package lexer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	got := kinds(t, "int x while whiley _a a1")
	want := []token.Kind{token.KwInt, token.Ident, token.KwWhile, token.Ident,
		token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestAllOperators(t *testing.T) {
	src := "( ) { } [ ] ; , : ? ... = += -= *= /= %= &= |= ^= <<= >>= + - * / % ++ -- == != < > <= >= && || ! & | ^ ~ << >> -> ."
	want := []token.Kind{
		token.LParen, token.RParen, token.LBrace, token.RBrace,
		token.LBracket, token.RBracket, token.Semi, token.Comma, token.Colon,
		token.Question, token.Ellipsis,
		token.Assign, token.PlusAssign, token.MinusAssign, token.StarAssign,
		token.SlashAssign, token.PercentAssign, token.AmpAssign,
		token.PipeAssign, token.CaretAssign, token.ShlAssign, token.ShrAssign,
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Inc, token.Dec,
		token.Eq, token.Ne, token.Lt, token.Gt, token.Le, token.Ge,
		token.AndAnd, token.OrOr, token.Not,
		token.Amp, token.Pipe, token.Caret, token.Tilde, token.Shl, token.Shr,
		token.Arrow, token.Dot, token.EOF,
	}
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestMaximalMunch(t *testing.T) {
	// a+++b lexes as a ++ + b per maximal munch.
	got := kinds(t, "a+++b")
	want := []token.Kind{token.Ident, token.Inc, token.Plus, token.Ident, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v want %v (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestIntConstants(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"0", 0}, {"42", 42}, {"0x1f", 31}, {"010", 8}, {"123456789", 123456789},
		{"42L", 42}, {"42u", 42}, {"0xFFul", 255},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", c.src, err)
		}
		if toks[0].Kind != token.IntLit {
			t.Fatalf("%q: kind %v", c.src, toks[0].Kind)
		}
		if toks[0].IntVal != c.want {
			t.Errorf("%q: got %d want %d", c.src, toks[0].IntVal, c.want)
		}
	}
}

func TestFloatConstants(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1.0", 1.0}, {"0.5", 0.5}, {".25", 0.25}, {"1e3", 1000},
		{"2.5e-2", 0.025}, {"1.0f", 1.0}, {"3f", 3.0},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", c.src, err)
		}
		if toks[0].Kind != token.FloatLit {
			t.Fatalf("%q: kind %v not FloatLit", c.src, toks[0].Kind)
		}
		if toks[0].FloatVal != c.want {
			t.Errorf("%q: got %g want %g", c.src, toks[0].FloatVal, c.want)
		}
	}
}

func TestDotVersusFloat(t *testing.T) {
	// "s.f" must lex Dot, while ".5" must lex a float.
	got := kinds(t, "s.f")
	want := []token.Kind{token.Ident, token.Dot, token.Ident, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestCharConstants(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"'a'", 'a'}, {"'\\n'", '\n'}, {"'\\0'", 0}, {"'\\x41'", 'A'}, {"'\\''", '\''},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", c.src, err)
		}
		if toks[0].Kind != token.CharLit || toks[0].IntVal != c.want {
			t.Errorf("%q: got kind %v val %d, want CharLit %d", c.src, toks[0].Kind, toks[0].IntVal, c.want)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, err := Tokenize(`"hello\tworld\n"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "hello\tworld\n" {
		t.Errorf("got %q", toks[0].Text)
	}
}

func TestComments(t *testing.T) {
	src := "a /* multi\nline */ b // rest of line\nc"
	got := kinds(t, src)
	want := []token.Kind{token.Ident, token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestPragma(t *testing.T) {
	toks, err := Tokenize("#pragma safe\nint x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.Pragma || toks[0].Text != "safe" {
		t.Fatalf("got %v %q", toks[0].Kind, toks[0].Text)
	}
}

func TestRejectsOtherDirectives(t *testing.T) {
	if _, err := Tokenize("#include <stdio.h>\n"); err == nil {
		t.Fatal("expected error for #include")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{"/* unterminated", "'", "''", "\"unterminated", "\"new\nline\"", "@"}
	for _, src := range bad {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

// Property: any sequence of identifiers round-trips through the lexer.
func TestQuickIdentRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			// Sanitize into a valid identifier.
			var sb strings.Builder
			sb.WriteByte('v')
			for _, r := range w {
				if r < 128 && (r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
					sb.WriteRune(r)
				}
			}
			clean = append(clean, sb.String())
		}
		toks, err := Tokenize(strings.Join(clean, " "))
		if err != nil {
			return false
		}
		if len(toks) != len(clean)+1 {
			return false
		}
		for i, w := range clean {
			if toks[i].Text != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer constants in [0, 1<<31) round-trip through the lexer.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		toks, err := Tokenize(strings.TrimSpace((" ") + itoa(int64(n))))
		return err == nil && toks[0].Kind == token.IntLit && toks[0].IntVal == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestTokenizeSizedOnce pins the token slice's one allocation at the sound
// bound len(src)+1: every token but EOF consumes at least one byte.
func TestTokenizeSizedOnce(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no programs match testdata/*.c (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := Tokenize(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if cap(toks) != len(src)+1 {
			t.Errorf("%s: cap(toks) = %d, want len(src)+1 = %d", p, cap(toks), len(src)+1)
		}
	}

	// One byte per token fills the bound exactly, with no regrowth.
	dense := strings.Repeat("a;", 4096)
	toks, err := Tokenize(dense)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != len(dense)+1 || cap(toks) != len(dense)+1 {
		t.Errorf("dense source: len %d cap %d, want both %d", len(toks), cap(toks), len(dense)+1)
	}

	for _, src := range []string{"", " \t\n\r\f\v\n"} {
		toks, err := Tokenize(src)
		if err != nil || len(toks) != 1 || toks[0].Kind != token.EOF {
			t.Errorf("Tokenize(%q) = %v, %v; want [EOF]", src, toks, err)
		}
	}

	plain := strings.Repeat("x = y + z1 * (w - v) / u; p->q[r] <<= s && !t;\n", 64)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Tokenize(plain); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Tokenize of identifiers and operators: %v allocations, want 1", n)
	}
}

// TestInternedTextLeavesSource: under an Interner, identifier,
// string-literal and pragma Text is a copy, not a substring pinning src.
func TestInternedTextLeavesSource(t *testing.T) {
	src := "#pragma safe\nint count; char *s = \"msg\";"
	toks, err := TokenizeInterned(src, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, tk := range toks {
		switch tk.Kind {
		case token.Pragma, token.Ident, token.StringLit:
			if p := uintptr(unsafe.Pointer(unsafe.StringData(tk.Text))); p >= lo && p < lo+uintptr(len(src)) {
				t.Errorf("%v %q points into the source", tk.Kind, tk.Text)
			}
		}
	}
}

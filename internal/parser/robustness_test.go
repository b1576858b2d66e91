package parser

import (
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
)

// The front end must reject or accept arbitrary input without panicking.

func TestNoPanicOnMutatedPrograms(t *testing.T) {
	seed := `
struct node { int v; struct node *next; };
typedef float real;
real table[16];
int sum(struct node *p, int k) {
	int s;
	s = 0;
	while (p) {
		s += p->v << (k & 3);
		p = p->next;
	}
	return s ? s : -1;
}
`
	r := rand.New(rand.NewSource(42))
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("parser panicked: %v", p)
		}
	}()
	for i := 0; i < 500; i++ {
		b := []byte(seed)
		// Mutate a few bytes.
		for k := 0; k < 1+r.Intn(6); k++ {
			pos := r.Intn(len(b))
			switch r.Intn(3) {
			case 0:
				b[pos] = byte(r.Intn(128))
			case 1:
				b = append(b[:pos], b[pos+1:]...)
			default:
				b = append(b[:pos], append([]byte{byte('!' + r.Intn(90))}, b[pos:]...)...)
			}
		}
		_, _ = Parse(string(b)) // errors fine; panics are not
	}
}

func TestNoPanicOnTokenSoup(t *testing.T) {
	toks := []string{"int", "float", "struct", "while", "for", "if", "else",
		"return", "(", ")", "{", "}", "[", "]", ";", ",", "*", "&", "+",
		"-", "/", "%", "=", "==", "<", ">", "?", ":", "x", "y", "42",
		"3.5", "\"s\"", "'c'", "->", ".", "++", "--", "goto", "volatile"}
	r := rand.New(rand.NewSource(7))
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("parser panicked: %v", p)
		}
	}()
	for i := 0; i < 500; i++ {
		n := 3 + r.Intn(40)
		var sb strings.Builder
		for k := 0; k < n; k++ {
			sb.WriteString(toks[r.Intn(len(toks))])
			sb.WriteByte(' ')
		}
		_, _ = Parse(sb.String())
	}
}

// TestDeeplyNestedParens: of deepSources, the one at the nesting bound
// parses, and every deeper one is the positioned nesting error — under an
// 8 MB goroutine stack, where 5,000 levels of parentheses once overflowed
// it and killed the process.
func TestDeeplyNestedParens(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	deep := "int main(void) { return " + strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000) + "; }"
	for i, src := range append(deepSources(), deep) {
		_, err := Parse(src)
		if i == 0 {
			if err != nil {
				t.Errorf("%.40q… at the bound: %v", src, err)
			}
			continue
		}
		if e, ok := err.(*Error); !ok || e.Pos.Line != 1 || e.Pos.Col < 1 || e.Msg != "nesting deeper than 256 levels" {
			t.Errorf("%.40q…: %v, want a positioned nesting error", src, err)
		}
	}
}

// deepSources nest parentheses at maxNesting (the return statement and
// the outer operand take two levels) and one past it, and each bounded
// construct — operands, statements, declarators and initializer braces
// — 1,300 levels deep.
func deepSources() []string {
	nest := func(head, open, mid, close, tail string, n int) string {
		return head + strings.Repeat(open, n) + mid + strings.Repeat(close, n) + tail
	}
	return []string{
		nest("int main(void) { return ", "(", "1", ")", "; }", maxNesting-2),
		nest("int main(void) { return ", "(", "1", ")", "; }", maxNesting-1),
		nest("int main(void) { return ", "(", "1", ")", "; }", 1300),
		nest("int main(void) { return ", "!", "1", "", "; }", 1300),
		nest("int main(void) { ", "{", "", "}", " return 0; }", 1300),
		nest("int ", "(", "x", ")", ";", 1300),
		nest("int a[1] = ", "{", "1", "}", ";", 1300),
	}
}

func TestUnterminatedConstructs(t *testing.T) {
	cases := []string{
		"int f(void) {",
		"int f(void) { if (",
		"struct s {",
		"int a[",
		"int f(void) { return \"",
		"/*",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

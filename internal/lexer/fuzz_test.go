package lexer

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/token"
)

// FuzzTokenize holds the lexer to its two outcomes: a positioned *Error, or
// at most len(src)+1 tokens — the bound TokenizeInterned allocates — that
// end in exactly one EOF and strictly increase in (line, col).
func FuzzTokenize(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.c")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no programs match testdata/*.c (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(strings.Repeat("<<=>>=...->++--&&||!=", 8) + "a;b.c")
	f.Add("int x; /* unterminated")
	f.Add(`char *s = "unterminated`)
	f.Add("int c = '\\")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			var le *Error
			if !errors.As(err, &le) {
				t.Fatalf("error %v (%T) is not a *lexer.Error", err, err)
			}
			if le.Pos.Line < 1 || le.Pos.Col < 1 {
				t.Fatalf("error %v has no position", err)
			}
			return
		}
		if len(toks) == 0 || len(toks) > len(src)+1 {
			t.Fatalf("%d tokens from %d bytes, want 1..%d", len(toks), len(src), len(src)+1)
		}
		for i, tk := range toks {
			if (tk.Kind == token.EOF) != (i == len(toks)-1) {
				t.Fatalf("token %d of %d is %v", i, len(toks), tk)
			}
			if i > 0 {
				prev := toks[i-1].Pos
				if tk.Pos.Line < prev.Line || tk.Pos.Line == prev.Line && tk.Pos.Col <= prev.Col {
					t.Fatalf("token %d (%v) at %v does not follow token %d at %v", i, tk, tk.Pos, i-1, prev)
				}
			}
		}
	})
}

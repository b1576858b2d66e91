package driver

import (
	"strings"
	"testing"

	"repro"
)

// FuzzFrontEndDiagnostics: for any source, the front end (lex, parse,
// sema, lower) either succeeds or fails with an error that
// ErrorDiagnostic maps to a positioned diagnostic, line and column at
// least 1. It never panics. The seeds are the corpus kernels, the
// rejected sources of TestInitializerErrors and parentheses, blocks and
// initializer braces nested far past the parser's bound; finds live in
// testdata/fuzz/FuzzFrontEndDiagnostics, replayed by plain `go test`.
func FuzzFrontEndDiagnostics(f *testing.F) {
	for _, k := range repro.Corpus {
		f.Add(repro.Source(k.Name, k.Size))
	}
	for _, src := range initializerErrors {
		f.Add(src)
	}
	deep := func(head, open, mid, close, tail string) string {
		return head + strings.Repeat(open, 1300) + mid + strings.Repeat(close, 1300) + tail
	}
	f.Add(deep("int main(void) { return ", "(", "1", ")", "; }"))
	f.Add(deep("int main(void) { ", "{", "return 1;", "}", " }"))
	f.Add(deep("int a[1] = ", "{", "1", "}", ";"))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		_, err := LowerWith(src, nil)
		if err == nil {
			return
		}
		if d, ok := ErrorDiagnostic(err); !ok || d.Pos.Line < 1 || d.Pos.Col < 1 {
			t.Fatalf("rejected with %q, diagnostic %+v (ok=%v)", err, d, ok)
		}
	})
}

package parser

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sema"
)

// FuzzFrontEnd holds the deferred-body parser to its claim: for every
// input, parsing with four workers gives what the serial parse gives —
// the same error text, or deeply equal files — and the checker, serial or
// with four workers, does not panic on either file. The seed corpus
// (testdata/fuzz/FuzzFrontEnd, replayed by plain `go test`) covers both
// bailouts, an error in a later body and an unterminated one; the deep
// seeds (deepSources) nest at the bound, one past it and far past it.
func FuzzFrontEnd(f *testing.F) {
	f.Add("int g;\nint sq(int x) { return x * x; }\nint main(void) { return sq(g); }\n")
	for _, src := range deepSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		serial, serr := ParseWorkers(src, 1)
		par, perr := ParseWorkers(src, 4)
		if (serr == nil) != (perr == nil) || serr != nil && serr.Error() != perr.Error() {
			t.Fatalf("serial error %v, 4 workers %v", serr, perr)
		}
		if serr != nil {
			return
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatal("4 workers parsed a different file than the serial parse")
		}
		sema.CheckWorkers(serial, 1)
		sema.CheckWorkers(par, 4)
	})
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

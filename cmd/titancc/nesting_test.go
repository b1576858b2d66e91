package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
)

// nestingShapes are programs nested n levels deep in each construct the
// parser bounds: operands (a parenthesized sum and a chain of unary
// minuses), statements (blocks), declarators and initializer braces, all
// on one line. at is the n at the bound, 256 levels: the enclosing
// statement, assignment and operand of an expression take levels of their
// own.
var nestingShapes = []struct {
	name     string
	src      func(n int) string
	at, line int
	exit     int
}{
	{"parenthesized sum", func(n int) string {
		return "int x;\nint main(void)\n{\n\tint i;\n\ti = 1;\n\tx = " +
			strings.Repeat("i + (", n) + "i" + strings.Repeat(")", n) + ";\n\treturn x;\n}\n"
	}, 253, 6, 254},
	{"unary minus", func(n int) string {
		return "int x;\nint main(void)\n{\n\tint i;\n\ti = 1;\n\tx = " +
			strings.Repeat("- ", n) + "i;\n\treturn x;\n}\n"
	}, 253, 6, -1},
	{"blocks", func(n int) string {
		return "int x;\nint main(void)\n{\n\tint i;\n\ti = 1;\n\t" +
			strings.Repeat("{ ", n) + "x = i;" + strings.Repeat(" }", n) + "\n\treturn x;\n}\n"
	}, 253, 6, 1},
	{"declarator", func(n int) string {
		return "int " + strings.Repeat("(", n) + "x" + strings.Repeat(")", n) +
			";\nint main(void)\n{\n\tx = 1;\n\treturn x;\n}\n"
	}, 255, 1, 1},
	{"initializer braces", func(n int) string {
		return "int a[1] = " + strings.Repeat("{", n) + "1" + strings.Repeat("}", n) +
			";\nint main(void)\n{\n\treturn a[0];\n}\n"
	}, 255, 1, 1},
}

// TestNestingBound: under an 8 MB goroutine stack, a program nested as
// deep as the parser's bound compiles with full options and runs, and one
// level deeper is an error positioned on the deep line — as is one 5,000
// levels deep, which before the bound overflowed the stack and killed the
// process.
func TestNestingBound(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	for _, sh := range nestingShapes {
		for _, n := range []int{sh.at, sh.at + 1, 5000} {
			src := sh.src(n)
			path := filepath.Join(t.TempDir(), "deep.c")
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := titancc(t, path, append(fullFlags, "-run")...)
			if n == sh.at {
				if err != nil || !strings.HasPrefix(out, fmt.Sprintf("exit=%d ", sh.exit)) {
					t.Errorf("%s at the bound: %q, %v; want exit=%d", sh.name, out, err, sh.exit)
				}
				continue
			}
			want := regexp.MustCompile(fmt.Sprintf(`^%d:\d+: nesting deeper than 256 levels$`, sh.line))
			if err == nil || !want.MatchString(err.Error()) {
				t.Errorf("%s %d levels deep: %v; want an error on line %d", sh.name, n, err, sh.line)
			}
		}
	}
}

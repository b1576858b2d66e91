package inline_test

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/inline"
	"repro/internal/titan"
)

// orderUnits are units whose procedures the declaration order must not
// matter to: a call chain, a callee over the size limit only once its own
// callee is expanded into it, and mutual recursion.
var orderUnits = []struct {
	name   string
	protos string
	procs  []string
	// check asserts on one order's compile.
	check func(t *testing.T, res *driver.Result)
}{
	{
		name:   "chain",
		protos: "int g = 7;\nint a(int);\nint b(int);\nint c(int);\n",
		procs: []string{
			"int c(int x) { return x * 3; }",
			"int b(int x) { return c(x) + 1; }",
			"int a(int x) { return b(x) * 2; }",
			"int main(void) { return a(g); }",
		},
		check: func(t *testing.T, res *driver.Result) { wantCalls(t, res, "main", 0) },
	},
	{
		name:   "size",
		protos: "int g[4];\nint b(int);\nint c(int);\n",
		procs: []string{
			"int b(int x)\n{\n" + strings.Repeat("\tg[1] = g[1] + x;\n", 59) + "\treturn c(x);\n}",
			"int c(int x)\n{\n" + strings.Repeat("\tg[2] = g[2] + x;\n", 149) + "\treturn x;\n}",
			"int main(void) { return b(g[0]); }",
		},
		check: func(t *testing.T, res *driver.Result) {
			wantCalls(t, res, "main", 1)
			if !slices.ContainsFunc(res.Report.Diags, func(d diag.Diagnostic) bool {
				return d.Code == diag.InlineRefused && d.Proc == "main" && d.Args["callee"] == "b"
			}) {
				t.Error("b not refused in main")
			}
		},
	},
	{
		name:   "mutual",
		protos: "int g = 9;\nint even(int);\nint odd(int);\n",
		procs: []string{
			"int even(int n) { if (n == 0) return 1; return odd(n - 1); }",
			"int odd(int n) { if (n == 0) return 0; return even(n - 1); }",
			"int main(void) { return even(g); }",
		},
		check: func(t *testing.T, res *driver.Result) {
			wantCalls(t, res, "main", 1)
			if res.Report.Inline.CallsExpanded != 0 {
				t.Errorf("%d calls expanded, want none", res.Report.Inline.CallsExpanded)
			}
		},
	},
}

// wantCalls asserts that proc's code makes n calls.
func wantCalls(t *testing.T, res *driver.Result, proc string, n int) {
	t.Helper()
	got := 0
	for _, in := range res.Machine.Funcs[proc].Instrs {
		if in.Op == titan.OpCall {
			got++
		}
	}
	if got != n {
		t.Errorf("%s makes %d calls, want %d", proc, got, n)
	}
}

// permutations lists every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for k := 0; k <= len(p); k++ {
			out = append(out, slices.Insert(slices.Clone(p), k, n-1))
		}
	}
	return out
}

// inlineLabel is the one part of the code the order may change: the
// numbering of the labels expansion made.
var inlineLabel = regexp.MustCompile(`\.in[0-9]+[a-z0-9]*`)

// disassembly is every function's code in name order, expansion labels
// unnumbered.
func disassembly(prog *titan.Program) string {
	var names []string
	for name := range prog.Funcs {
		names = append(names, name)
	}
	slices.Sort(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s:\n%s", name, prog.Funcs[name].Disassemble())
	}
	return inlineLabel.ReplaceAllString(sb.String(), ".in")
}

func TestInlineOrderIndependent(t *testing.T) {
	for _, u := range orderUnits {
		t.Run(u.name, func(t *testing.T) {
			var wantCode string
			var wantRun titan.Result
			for k, perm := range permutations(len(u.procs)) {
				src := u.protos
				for _, i := range perm {
					src += u.procs[i] + "\n"
				}
				res, err := driver.Compile(src, driver.FullOptions())
				if err != nil {
					t.Fatalf("order %v: %v", perm, err)
				}
				u.check(t, res)
				run, err := titan.NewMachine(res.Machine, 1).Run("main")
				if err != nil {
					t.Fatalf("order %v: %v", perm, err)
				}
				code := disassembly(res.Machine)
				if k == 0 {
					wantCode, wantRun = code, run
					continue
				}
				if code != wantCode {
					t.Errorf("order %v compiles differently:\n%s\nfirst order:\n%s", perm, code, wantCode)
				}
				if run != wantRun {
					t.Errorf("order %v runs %+v, first order %+v", perm, run, wantRun)
				}
			}
		})
	}
}

// TestCatalogSharedAcrossCompiles compiles concurrently against one
// catalog whose procedure calls another: each compile finishes the caller
// on its own copy, and the shared catalog is only read.
func TestCatalogSharedAcrossCompiles(t *testing.T) {
	var buf bytes.Buffer
	if err := driver.WriteCatalogFromSource(&buf, `
int sq(int x) { return x * x; }
int quad(int x) { return sq(sq(x)); }
`); err != nil {
		t.Fatal(err)
	}
	cat, err := inline.ReadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before, err := cat.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	opts := driver.FullOptions()
	opts.Catalogs = []*inline.Catalog{cat}
	const src = "int g = 3;\nint quad(int);\nint main(void) { return quad(g) + quad(g + 1); }\n"
	results := make([]titan.Result, 8)
	var wg sync.WaitGroup
	for k := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := driver.Compile(src, opts)
			if err != nil {
				t.Error(err)
				return
			}
			wantCalls(t, res, "main", 0)
			if results[k], err = titan.NewMachine(res.Machine, 1).Run("main"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, r := range results[1:] {
		if r != results[0] {
			t.Errorf("compiles differ: %+v and %+v", r, results[0])
		}
	}
	if results[0].ExitCode != 81+256 {
		t.Errorf("exit %d, want %d", results[0].ExitCode, 81+256)
	}
	after, err := cat.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("catalog fingerprint %s after the compiles, %s before", after, before)
	}
}

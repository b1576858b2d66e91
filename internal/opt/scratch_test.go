package opt

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/il"
	"repro/internal/inline"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sema"
)

// forEachCorpusProc lowers and inlines every corpus program and calls fn
// on each of its procedures, in program and then procedure order.
func forEachCorpusProc(t *testing.T, fn func(file string, p *il.Proc)) {
	t.Helper()
	paths, err := filepath.Glob("../../benchmark/programs/*.c")
	if err != nil || len(paths) < 12 {
		t.Fatalf("benchmark/programs has %d programs (%v)", len(paths), err)
	}
	srcs := map[string]string{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(src)
	}
	for _, k := range repro.Corpus {
		path := "testdata/" + k.Name + ".c"
		paths = append(paths, path)
		srcs[path] = repro.Source(k.Name, k.Size)
	}
	for _, path := range paths {
		f, err := parser.Parse(srcs[path])
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		info, err := sema.Check(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		prog, err := lower.File(f, info)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inline.New(prog).ExpandProgram()
		for _, p := range prog.Procs {
			fn(filepath.Base(path), p)
		}
	}
}

// optimizeWith runs Optimize's sub-passes with copy propagation and
// dead-code elimination given the scratch sc returns for each call.
func optimizeWith(p *il.Proc, sc func() *scratch) Counts {
	sub := subPasses(DefaultOptions(), nil, nil)
	for i := range sub {
		switch sub[i].name {
		case "copyprop":
			sub[i].run = func(p *il.Proc) int { return propagateCopies(p, nil, sc()) }
		case "dce":
			sub[i].run = func(p *il.Proc) int { return eliminateDeadCode(p, nil, sc()) }
		}
	}
	return fixpoint(p, sub, nil)
}

// Copy propagation and dead-code elimination reuse one scratch for a
// whole Optimize call, clearing what each call uses. Here one scratch
// serves every procedure of the corpus in turn, so each call meets sets,
// maps and buffers another procedure of another size left behind: the
// optimized IL and the counts must equal those of a run that gives every
// call a fresh scratch.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var reused, fresh []*il.Proc
	forEachCorpusProc(t, func(_ string, p *il.Proc) { reused = append(reused, p) })
	forEachCorpusProc(t, func(_ string, p *il.Proc) { fresh = append(fresh, p) })
	shared := new(scratch)
	for i, p := range reused {
		got := optimizeWith(p, func() *scratch { return shared })
		want := optimizeWith(fresh[i], func() *scratch { return new(scratch) })
		if p.String() != fresh[i].String() {
			t.Errorf("%s: IL with a reused scratch:\n%s\nwith fresh scratch:\n%s", p.Name, p, fresh[i])
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: counts %v with a reused scratch, %v with fresh", p.Name, got, want)
		}
	}
}

// A statement that stops being a copy between two copy-propagation calls
// forgets its copy index: y's source outgrows copyExprLimit once x is
// propagated into it, and in the next call index 1 belongs to z = b,
// which must not become available at y and reach h's argument.
func TestCopyPropForgetsDroppedCopies(t *testing.T) {
	p := compileProc(t, `
void h(int);
int f(int a, int b, int z) {
	int x, y;
	x = a + b;
	y = x + x + x + x + x;
	h(z);
	z = b;
	return y + z;
}
`, "f")
	propagateCopies(p, nil, new(scratch))
	var arg il.Expr
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if c, ok := s.(*il.Call); ok {
			arg = c.Args[0]
		}
		return true
	})
	if v, ok := arg.(*il.VarRef); !ok || p.Vars[v.ID].Name != "z" {
		t.Errorf("h's argument became %s:\n%s", p.ExprString(arg), p)
	}
}

// What one dead-code elimination call marked needed is not needed in the
// next once its only use is gone: b = b + 1 feeds itself around the loop,
// so only the mark, not liveness, can find it dead.
func TestDCEForgetsLastCallsMarks(t *testing.T) {
	p := compileProc(t, "int f(int a, int n) { int b, i; b = 0; for (i = 0; i < n; i++) b = b + 1; return b; }", "f")
	sc := new(scratch)
	eliminateDeadCode(p, nil, sc)
	ret := lastReturn(t, p)
	ret.Val = p.Arena().VarRef(p.LookupVar("a"), ret.Val.Type())
	p.Rewrote(1)
	eliminateDeadCode(p, nil, sc)
	b := p.LookupVar("b")
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if il.DefinedVar(s) == b {
			t.Errorf("an assignment to b survived once return b became return a:\n%s", p)
			return false
		}
		return true
	})
}

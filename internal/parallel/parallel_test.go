package parallel

import (
	"testing"

	"repro/internal/depend"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/schedule"
	"repro/internal/sema"
)

func compileOpt(t *testing.T, src, name string) *il.Proc {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	prog, err := lower.File(f, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	p := prog.Proc(name)
	if p == nil {
		t.Fatalf("no proc %s", name)
	}
	opt.Optimize(p, opt.DefaultOptions(), nil, nil)
	return p
}

func parCount(body []il.Stmt) int {
	n := 0
	il.WalkStmts(body, func(s il.Stmt) bool {
		if _, ok := s.(*il.DoParallel); ok {
			n++
		}
		return true
	})
	return n
}

func TestParallelizeIotaStore(t *testing.T) {
	// a[i] = i does not vectorize (no iota) but parallelizes fine.
	src := `
int a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = i;
}
`
	p := compileOpt(t, src, "f")
	st := ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	if st.LoopsParallelized != 1 || parCount(p.Body) != 1 {
		t.Fatalf("stats: %+v\n%s", st, p)
	}
}

func TestRecurrenceStaysSerial(t *testing.T) {
	src := `
float c[500];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) c[i+1] = c[i] * 0.5f;
}
`
	p := compileOpt(t, src, "f")
	st := ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	if st.LoopsParallelized != 0 {
		t.Fatalf("recurrence parallelized: %+v\n%s", st, p)
	}
}

func TestCallStaysSerial(t *testing.T) {
	src := `
void g(int);
void f(int n) {
	int i;
	for (i = 0; i < n; i++) g(i);
}
`
	p := compileOpt(t, src, "f")
	st := ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	if st.LoopsParallelized != 0 {
		t.Fatalf("call loop parallelized: %+v\n%s", st, p)
	}
}

func TestGlobalScalarWriteStaysSerial(t *testing.T) {
	src := `
int last;
int a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = i;
		last = i;
	}
}
`
	p := compileOpt(t, src, "f")
	st := ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	if st.LoopsParallelized != 0 {
		t.Fatalf("global-writing loop parallelized: %+v\n%s", st, p)
	}
}

func TestAliasedPointersStaySerial(t *testing.T) {
	src := `
void f(int *x, int *y, int n) {
	int i;
	for (i = 0; i < n; i++) x[i] = y[i] + i;
}
`
	p := compileOpt(t, src, "f")
	if st := ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default()); st.LoopsParallelized != 0 {
		t.Fatalf("aliased loop parallelized: %+v\n%s", st, p)
	}
	// With Fortran aliasing rules it parallelizes.
	p2 := compileOpt(t, src, "f")
	if st := ParallelizeProc(p2, depend.Options{NoAlias: true}, nil, nil, nil, schedule.Default()); st.LoopsParallelized != 1 {
		t.Fatalf("noalias loop not parallelized: %+v\n%s", st, p2)
	}
}

func TestOuterLoopOfNestStaysSerial(t *testing.T) {
	// Only loop-free bodies parallelize (nested loops are barriers).
	src := `
float a[32][32];
void f(int n) {
	int i, j;
	for (i = 0; i < n; i++)
		for (j = 0; j < n; j++)
			a[i][j] = a[i][j] + 1.0f;
}
`
	p := compileOpt(t, src, "f")
	st := ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	// The inner loop parallelizes; the outer (containing a loop) does not.
	if st.LoopsParallelized != 1 {
		t.Fatalf("stats: %+v\n%s", st, p)
	}
}

func TestExistingDoParallelUntouched(t *testing.T) {
	src := `
float a[1000];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = 1.0f;
}
`
	p := compileOpt(t, src, "f")
	ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	before := parCount(p.Body)
	ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default())
	if parCount(p.Body) != before {
		t.Error("second pass changed parallel loops")
	}
}

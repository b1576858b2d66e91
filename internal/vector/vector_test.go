package vector

import (
	"strings"
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

func countKind(body []il.Stmt) (vec, par, do, while int) {
	il.WalkStmts(body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.VectorAssign:
			vec++
		case *il.DoParallel:
			par++
		case *il.DoLoop:
			do++
		case *il.While:
			while++
		}
		return true
	})
	return
}

func TestVectorizeSimpleCopy(t *testing.T) {
	src := `
float a[1000], b[1000];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = b[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.LoopsVectorized != 1 || st.VectorStmts != 1 {
		t.Fatalf("stats: %+v\n%s", st, p)
	}
	vec, _, do, _ := countKind(p.Body)
	if vec != 1 {
		t.Errorf("vector stmts: %d\n%s", vec, p)
	}
	if do != 1 { // the strip loop
		t.Errorf("strip loops: %d\n%s", do, p)
	}
}

func TestVectorizeParallelStrips(t *testing.T) {
	src := `
float a[1000], b[1000], c[1000];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = b[i] + c[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default(), Parallel: true})
	if st.ParallelLoops != 1 {
		t.Fatalf("stats: %+v\n%s", st, p)
	}
	_, par, _, _ := countKind(p.Body)
	if par != 1 {
		t.Errorf("parallel loops: %d\n%s", par, p)
	}
}

func TestSmallConstantTripNoStripLoop(t *testing.T) {
	// §5.2: 4-element graphics loops must emit a bare vector statement.
	src := `
float m[4], v[4];
void f(void) {
	int i;
	for (i = 0; i < 4; i++) m[i] = v[i] * 2.0f;
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 1 {
		t.Fatalf("stats: %+v\n%s", st, p)
	}
	vec, par, do, while := countKind(p.Body)
	if vec != 1 || par != 0 || do != 0 || while != 0 {
		t.Errorf("shapes: vec=%d par=%d do=%d while=%d\n%s", vec, par, do, while, p)
	}
	// The vector length must be the constant 4.
	var va *il.VectorAssign
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if v, ok := s.(*il.VectorAssign); ok {
			va = v
		}
		return true
	})
	if l, ok := il.IsIntConst(va.Len); !ok || l != 4 {
		t.Errorf("len: %s", p.ExprString(va.Len))
	}
}

func TestBacksolveStaysSerial(t *testing.T) {
	// §6: the backsolve recurrence must not vectorize.
	src := `
void backsolve(float *x, float *y, float *z, int n)
{
	float *p, *q;
	int i;
	p = &x[1];
	q = &x[0];
	for (i = 0; i < n-2; i++)
		p[i] = z[i] * (y[i] - q[i]);
}
`
	p := compileOpt(t, src, "backsolve")
	st := VectorizeProc(p, Config{Default: schedule.Default(), Parallel: true, Depend: depend.Options{NoAlias: true}})
	if st.LoopsVectorized != 0 || st.VectorStmts != 0 {
		t.Fatalf("recurrence vectorized: %+v\n%s", st, p)
	}
}

func TestAliasedPointersStaySerial(t *testing.T) {
	// §9: without inlining/pragma/noalias, pointer parameters may alias.
	src := `
void f(float *x, float *y, int n) {
	int i;
	for (i = 0; i < n; i++) x[i] = y[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.LoopsVectorized != 0 {
		t.Fatalf("aliased loop vectorized: %+v\n%s", st, p)
	}
}

func TestNoAliasVectorizes(t *testing.T) {
	src := `
void f(float *x, float *y, int n) {
	int i;
	for (i = 0; i < n; i++) x[i] = y[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default(), Depend: depend.Options{NoAlias: true}})
	if st.LoopsVectorized != 1 {
		t.Fatalf("noalias loop not vectorized: %+v\n%s", st, p)
	}
}

func TestPragmaSafeVectorizes(t *testing.T) {
	src := "void f(float *x, float *y, int n) {\n\tint i;\n#pragma safe\n\tfor (i = 0; i < n; i++) x[i] = y[i];\n}"
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.LoopsVectorized != 1 {
		t.Fatalf("safe loop not vectorized: %+v\n%s", st, p)
	}
}

func TestReductionStaysSerial(t *testing.T) {
	src := `
float a[100];
float f(int n) {
	float s;
	int i;
	s = 0;
	for (i = 0; i < n; i++) s = s + a[i];
	return s;
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 0 {
		t.Fatalf("reduction vectorized: %+v\n%s", st, p)
	}
}

func TestCallLoopStaysSerial(t *testing.T) {
	src := `
float g(float);
float a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = g(a[i]);
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 0 {
		t.Fatalf("call loop vectorized: %+v\n%s", st, p)
	}
}

func TestVolatileStaysSerial(t *testing.T) {
	src := `
volatile float port[100];
float a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = port[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 0 {
		t.Fatalf("volatile loop vectorized: %+v\n%s", st, p)
	}
}

func TestLoopDistribution(t *testing.T) {
	// S1 (vectorizable) and S2 (recurrence) split into a vector statement
	// plus a serial loop.
	src := `
float a[500], b[500], c[500];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = b[i] * 2.0f;
		c[i+1] = c[i] + a[i];
	}
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 1 {
		t.Fatalf("distribution failed: %+v\n%s", st, p)
	}
	if st.SerialResidue == 0 {
		t.Errorf("recurrence residue missing: %+v\n%s", st, p)
	}
	// Order: the vector statement must precede the serial loop (c uses a).
	out := p.String()
	vecPos := strings.Index(out, "](0:")
	serialPos := strings.LastIndex(out, "do ")
	if vecPos == -1 || serialPos == -1 || vecPos > serialPos {
		t.Errorf("distribution order wrong:\n%s", out)
	}
}

func TestPaperDaxpyShape(t *testing.T) {
	// §9 end-to-end (manually pre-inlined): the daxpy loop over arrays
	// becomes a parallel strip loop of vector statements.
	src := `
float a[100], b[100], c[100];
void f(void) {
	int i;
	for (i = 0; i < 100; i++)
		a[i] = b[i] + 1.0f * c[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default(), Parallel: true})
	if st.ParallelLoops != 1 {
		t.Fatalf("stats: %+v\n%s", st, p)
	}
	var par *il.DoParallel
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoParallel); ok {
			par = d
		}
		return true
	})
	// do parallel vi = 0, 99, 32 — the paper's exact shape.
	if v, ok := il.IsIntConst(par.Limit); !ok || v != 99 {
		t.Errorf("limit: %s", p.ExprString(par.Limit))
	}
	if v, ok := il.IsIntConst(par.Step); !ok || v != 32 {
		t.Errorf("step: %s", p.ExprString(par.Step))
	}
}

func TestStrideTwoVectorizes(t *testing.T) {
	src := `
float a[2000];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[2*i] = 1.0f;
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 1 {
		t.Fatalf("strided store not vectorized: %+v\n%s", st, p)
	}
	var va *il.VectorAssign
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if v, ok := s.(*il.VectorAssign); ok {
			va = v
		}
		return true
	})
	if v, ok := il.IsIntConst(va.DstStride); !ok || v != 8 {
		t.Errorf("stride: %s", p.ExprString(va.DstStride))
	}
}

func TestIVValueStoreStaysSerial(t *testing.T) {
	// a[i] = i stores the IV itself — no iota hardware modeled, must stay
	// serial.
	src := `
int a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = i;
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 0 {
		t.Fatalf("iota store vectorized: %+v\n%s", st, p)
	}
}

func TestDownwardLoopNormalizes(t *testing.T) {
	src := `
float a[300], b[300];
void f(int n) {
	int i;
	for (i = n - 1; i >= 0; i--) a[i] = b[i];
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 1 {
		t.Fatalf("downward loop not vectorized: %+v\n%s", st, p)
	}
}

func TestScalarBroadcast(t *testing.T) {
	src := `
float a[100];
void f(float alpha, int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = alpha;
}
`
	p := compileOpt(t, src, "f")
	st := VectorizeProc(p, Config{Default: schedule.Default()})
	if st.VectorStmts != 1 {
		t.Fatalf("broadcast not vectorized: %+v\n%s", st, p)
	}
}

func TestConfigurableStripLength(t *testing.T) {
	src := `
float a[100], b[100];
void f(void) {
	int i;
	for (i = 0; i < 100; i++) a[i] = b[i];
}
`
	p := compileOpt(t, src, "f")
	VectorizeProc(p, Config{Default: schedule.Schedule{VL: 8, Unroll: 1}})
	var d *il.DoLoop
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if l, ok := s.(*il.DoLoop); ok {
			d = l
		}
		return true
	})
	if d == nil {
		t.Fatalf("no strip loop:\n%s", p)
	}
	if v, ok := il.IsIntConst(d.Step); !ok || v != 8 {
		t.Errorf("strip step: %s", p.ExprString(d.Step))
	}
}

func TestTarjanTopoOrder(t *testing.T) {
	// 0 → 1 → 2 with a 1↔2 cycle: SCCs {0}, {1,2} in that order.
	adj := [][]int{{1}, {2}, {1}}
	sccs := tarjan(3, adj)
	if len(sccs) != 2 {
		t.Fatalf("sccs: %v", sccs)
	}
	if len(sccs[0]) != 1 || sccs[0][0] != 0 {
		t.Errorf("first scc: %v", sccs[0])
	}
	if len(sccs[1]) != 2 {
		t.Errorf("second scc: %v", sccs[1])
	}
}

func TestTarjanSelfLoop(t *testing.T) {
	adj := [][]int{{0}}
	sccs := tarjan(1, adj)
	if len(sccs) != 1 || len(sccs[0]) != 1 {
		t.Errorf("sccs: %v", sccs)
	}
}

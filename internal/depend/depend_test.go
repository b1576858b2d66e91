// The test package is external (with a dot-import of depend) so it can
// drive the scalar optimizer: opt now depends on the analysis cache,
// which depends on depend — an in-package test would be an import cycle.
package depend_test

import (
	"testing"

	. "repro/internal/depend"

	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sema"
)

// loopOf compiles src through the scalar pipeline and returns the named
// proc and its first DO loop.
func loopOf(t *testing.T, src, name string) (*il.Proc, *il.DoLoop) {
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
	var loop *il.DoLoop
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoLoop); ok && loop == nil {
			loop = d
		}
		return loop == nil
	})
	if loop == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	return p, loop
}

func carriedDeps(ld *LoopDeps) []Dep {
	var out []Dep
	for _, d := range ld.Deps {
		if d.Carried {
			out = append(out, d)
		}
	}
	return out
}

func TestIndependentArrays(t *testing.T) {
	// a[i] = b[i]: distinct named arrays never overlap.
	src := `
float a[100], b[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = b[i];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if len(ld.Refs) != 2 {
		t.Fatalf("refs: %d", len(ld.Refs))
	}
	if got := carriedDeps(ld); len(got) != 0 {
		t.Errorf("carried deps between distinct arrays: %v\n%s", got, p)
	}
}

func TestRefNormalization(t *testing.T) {
	src := `
float a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i+2] = 0;
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if len(ld.Refs) != 1 {
		t.Fatalf("refs: %d", len(ld.Refs))
	}
	r := ld.Refs[0]
	if !r.Linear || !r.IsWrite {
		t.Fatalf("ref: %+v", r)
	}
	if r.Coef != 4 || r.Offset != 8 {
		t.Errorf("coef=%d offset=%d (want 4, 8)", r.Coef, r.Offset)
	}
	if r.Base.Kind != BaseVar || p.Vars[r.Base.Var].Name != "a" {
		t.Errorf("base: %+v", r.Base)
	}
}

func TestPaperBacksolveCarriedFlow(t *testing.T) {
	// §6: p[i] = z[i]*(y[i] - q[i]) with p=&x[1], q=&x[0] has a carried
	// flow dependence of distance 1 — not vectorizable, but register-
	// promotable.
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
	p, loop := loopOf(t, src, "backsolve")
	ld := AnalyzeLoop(p, loop, Options{NoAlias: true})
	var flow []Dep
	for _, d := range ld.Deps {
		if d.Kind == Flow && d.Carried && !d.Scalar {
			flow = append(flow, d)
		}
	}
	if len(flow) != 1 {
		t.Fatalf("carried flow deps: %v\nrefs: %+v\n%s", flow, ld.Refs, p)
	}
	if !flow[0].Known || flow[0].Distance != 1 {
		t.Errorf("distance: %+v", flow[0])
	}
	if !ld.HasCycleThrough(flow[0].From) {
		t.Error("self-cycle not detected")
	}
}

func TestDistanceTwoNotOne(t *testing.T) {
	src := `
float a[200];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i+2] = a[i];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	found := false
	for _, d := range ld.Deps {
		if d.Carried && d.Known && !d.Scalar {
			found = true
			if d.Distance != 2 {
				t.Errorf("distance %d, want 2", d.Distance)
			}
		}
	}
	if !found {
		t.Errorf("no carried dep found: %+v", ld.Deps)
	}
	_ = p
}

func TestGCDIndependent(t *testing.T) {
	// a[2i] and a[2i+1] never collide (odd difference, even strides).
	src := `
float a[400];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[2*i] = a[2*i+1];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if got := carriedDeps(ld); len(got) != 0 {
		t.Errorf("deps: %v\nrefs %+v\n%s", got, ld.Refs, p)
	}
}

func TestTripCountBoundsDistance(t *testing.T) {
	// a[i] and a[i+50] in a 10-trip loop never meet.
	src := `
float a[200];
void f(void) {
	int i;
	for (i = 0; i < 10; i++) a[i+50] = a[i];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if ld.Trips != 10 {
		t.Fatalf("trips: %d", ld.Trips)
	}
	if got := carriedDeps(ld); len(got) != 0 {
		t.Errorf("deps: %v", got)
	}
	_ = p
}

func TestPointerParamsMayAlias(t *testing.T) {
	// §9: x and y could point into the same array — C imposes no
	// restrictions on argument aliasing.
	src := `
void f(float *x, float *y, int n) {
	int i;
	for (i = 0; i < n; i++) x[i] = y[i];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if got := carriedDeps(ld); len(got) == 0 {
		t.Errorf("pointer params must conservatively alias\nrefs: %+v", ld.Refs)
	}
	_ = p
}

func TestNoAliasOptionClears(t *testing.T) {
	src := `
void f(float *x, float *y, int n) {
	int i;
	for (i = 0; i < n; i++) x[i] = y[i];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{NoAlias: true})
	if got := carriedDeps(ld); len(got) != 0 {
		t.Errorf("NoAlias should clear pointer deps: %v", got)
	}
	_ = p
}

func TestPragmaSafeClears(t *testing.T) {
	src := "void f(float *x, float *y, int n) {\n\tint i;\n#pragma safe\n\tfor (i = 0; i < n; i++) x[i] = y[i];\n}"
	p, loop := loopOf(t, src, "f")
	if !loop.Safe {
		t.Fatal("loop not marked safe")
	}
	ld := AnalyzeLoop(p, loop, Options{})
	if got := carriedDeps(ld); len(got) != 0 {
		t.Errorf("safe loop still has deps: %v", got)
	}
	_ = p
}

func TestScalarReductionCycle(t *testing.T) {
	// s = s + a[i] carries a scalar flow dependence — the reduction is a
	// cycle and must not vectorize.
	src := `
float a[100];
float f(int n) {
	int i;
	float s;
	s = 0;
	for (i = 0; i < n; i++) s = s + a[i];
	return s;
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	found := false
	for _, d := range ld.Deps {
		if d.Scalar && d.Carried && d.From == d.To {
			found = true
		}
	}
	if !found {
		t.Errorf("reduction cycle missed: %+v\n%s", ld.Deps, p)
	}
}

func TestScalarFlowWithinIteration(t *testing.T) {
	src := `
float a[100], b[100];
void f(int n) {
	int i;
	float t;
	for (i = 0; i < n; i++) {
		t = a[i] * 2.0f;
		b[i] = t;
	}
}
`
	p, loop := loopOf(t, src, "f")
	if len(loop.Body) < 2 {
		t.Skipf("forward substitution fused the body:\n%s", p)
	}
	ld := AnalyzeLoop(p, loop, Options{})
	found := false
	for _, d := range ld.Deps {
		if d.Scalar && !d.Carried && d.Kind == Flow && d.From < d.To {
			found = true
		}
	}
	if !found {
		t.Errorf("scalar flow t missing: %+v", ld.Deps)
	}
}

func TestCallIsBarrier(t *testing.T) {
	src := `
float g(float);
float a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = g(a[i]);
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	hasBarrier := false
	for _, b := range ld.Barrier {
		if b {
			hasBarrier = true
		}
	}
	if !hasBarrier {
		t.Errorf("call not flagged as barrier:\n%s", p)
	}
	// Every barrier has a carried self-dep.
	selfDep := false
	for _, d := range ld.Deps {
		if d.From == d.To && d.Carried {
			selfDep = true
		}
	}
	if !selfDep {
		t.Error("barrier missing self dependence")
	}
}

func TestVolatileIsBarrier(t *testing.T) {
	src := `
volatile int port;
float a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = 0;
		port = i;
	}
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	hasBarrier := false
	for _, b := range ld.Barrier {
		if b {
			hasBarrier = true
		}
	}
	if !hasBarrier {
		t.Errorf("volatile store not a barrier:\n%s", p)
	}
}

func TestStructArrayBases(t *testing.T) {
	// §10: arrays embedded within structures. Refs to t->m root at the
	// pointer with distinct invariant row offsets.
	src := `
struct xform { float m[4][4]; };
void f(struct xform *t, int j) {
	int i;
	for (i = 0; i < 4; i++) t->m[0][i] = t->m[1][i];
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if len(ld.Refs) != 2 {
		t.Fatalf("refs: %d (%+v)", len(ld.Refs), ld.Refs)
	}
	for _, r := range ld.Refs {
		if !r.Linear || r.Base.Kind != BasePointer {
			t.Errorf("ref not normalized: %+v", r)
		}
	}
	// Row 0 spans bytes [0,16), row 1 [16,32): same base var, offsets
	// differ by 16 with coef 4 — the subscript test sees distance 4, but
	// the 4-trip count must kill it.
	if got := carriedDeps(ld); len(got) != 0 {
		t.Errorf("rows should be independent within 4 trips: %v", got)
	}
}

func TestOutputDepSameLocation(t *testing.T) {
	// a[0] written every iteration: the store is tested against itself,
	// and an address that does not move with the index is a carried
	// output dependence of the statement on itself.
	src := `
float a[10];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[0] = i;
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	if len(ld.Refs) != 1 || ld.Refs[0].Coef != 0 {
		t.Fatalf("refs: %+v", ld.Refs)
	}
	if !ld.HasCycleThrough(0) {
		t.Errorf("no carried self-dependence on the invariant store: %v\n%s", ld.Deps, p)
	}
	if d := ld.Carried(); d == nil || d.String() != "S0 -output carried(?)-> S0" {
		t.Errorf("Carried() = %v, want S0 -output carried(?)-> S0", d)
	}
}

func TestInvariantWordAcrossStatements(t *testing.T) {
	// S0 stores a[0], S1 loads it: the same word in every iteration, so
	// besides the distance-0 flow edge the pair is carried both ways —
	// iteration k+1's store must wait for iteration k's load.
	src := `
float a[10], b[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[0] = i;
		b[i] = a[0];
	}
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	var sameIter, flow, anti bool
	for _, d := range ld.Deps {
		if d.Scalar {
			continue
		}
		switch {
		case d.From == 0 && d.To == 1 && d.Kind == Flow && !d.Carried:
			sameIter = true
		case d.From == 0 && d.To == 1 && d.Kind == Flow && d.Carried:
			flow = true
		case d.From == 1 && d.To == 0 && d.Kind == Anti && d.Carried:
			anti = true
		}
	}
	if !sameIter || !flow || !anti {
		t.Errorf("distance-0 flow %v, carried flow %v, carried anti %v; want all three: %v\n%s",
			sameIter, flow, anti, ld.Deps, p)
	}
}

func TestUnknownAddressConservative(t *testing.T) {
	// Indirection through a loaded pointer is not affine: unknown base.
	src := `
float *tab[10];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) *tab[i] = 0;
}
`
	p, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(p, loop, Options{})
	foundUnknown := false
	for _, r := range ld.Refs {
		if !r.Linear || r.Base.Kind == BaseUnknown {
			foundUnknown = true
		}
	}
	if !foundUnknown {
		t.Errorf("refs: %+v", ld.Refs)
	}
	_ = p
}

func TestDepStringForms(t *testing.T) {
	d := Dep{From: 0, To: 1, Kind: Flow, Carried: true, Distance: 2, Known: true}
	if got := d.String(); got != "S0 -flow carried(2)-> S1" {
		t.Errorf("got %q", got)
	}
	d2 := Dep{From: 1, To: 0, Kind: Anti, Carried: true}
	if got := d2.String(); got != "S1 -anti carried(?)-> S0" {
		t.Errorf("got %q", got)
	}
	d3 := Dep{From: 0, To: 0, Kind: Output, Scalar: true, Var: 3}
	if got := d3.String(); got != "S0 -output/scalar-> S0" {
		t.Errorf("got %q", got)
	}
}

func TestBasesMayAliasRules(t *testing.T) {
	src := `
float a[10], b[10];
void f(float *p, float *q, int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = p[i];
		b[i] = q[i];
	}
}
`
	proc, loop := loopOf(t, src, "f")
	ld := AnalyzeLoop(proc, loop, Options{})
	var aBase, bBase, pBase, qBase *Base
	for i := range ld.Refs {
		r := &ld.Refs[i]
		switch {
		case r.Base.Kind == BaseVar && proc.Vars[r.Base.Var].Name == "a":
			aBase = &r.Base
		case r.Base.Kind == BaseVar && proc.Vars[r.Base.Var].Name == "b":
			bBase = &r.Base
		case r.Base.Kind == BasePointer && proc.Vars[r.Base.Var].Name == "p":
			pBase = &r.Base
		case r.Base.Kind == BasePointer && proc.Vars[r.Base.Var].Name == "q":
			qBase = &r.Base
		}
	}
	if aBase == nil || bBase == nil || pBase == nil || qBase == nil {
		t.Fatalf("bases not classified: %+v", ld.Refs)
	}
	// Distinct named arrays never alias.
	if BasesMayAlias(*aBase, *bBase, false, Options{}) {
		t.Error("a and b alias")
	}
	// Identical bases trivially alias.
	if !BasesMayAlias(*aBase, *aBase, false, Options{}) {
		t.Error("a does not alias itself")
	}
	// Distinct pointers alias under C rules, not under Fortran rules.
	if !BasesMayAlias(*pBase, *qBase, false, Options{}) {
		t.Error("p and q should alias under C rules")
	}
	if BasesMayAlias(*pBase, *qBase, false, Options{NoAlias: true}) {
		t.Error("p and q alias under -noalias")
	}
	if BasesMayAlias(*pBase, *qBase, true, Options{}) {
		t.Error("p and q alias under #pragma safe")
	}
}

func TestDepKindString(t *testing.T) {
	if Flow.String() != "flow" || Anti.String() != "anti" || Output.String() != "output" {
		t.Error("kind names")
	}
}

// TestNestDirections: the edges of a 2-nest's graph carry the direction
// at each level, and the distance where one iteration difference solves
// the pair.
func TestNestDirections(t *testing.T) {
	for _, tc := range []struct{ stmt, want string }{
		{"a[i][j] = a[i][j-1];", "S0 -flow (0,1)-> S0"},
		{"a[i][j] = a[i-1][j+1];", "S0 -flow (<,>)-> S0"},
		{"b[j] = a[i][j];", "S0 -output (<,0)-> S0"},
	} {
		src := "float a[16][16], b[16];\nvoid f(void) {\n\tint i, j;\n\tfor (i = 1; i < 16; i++)\n\t\tfor (j = 1; j < 15; j++)\n\t\t\t" +
			tc.stmt + "\n}\n"
		p, outer := loopOf(t, src, "f")
		nd := AnalyzeNest(p, outer, Options{})
		if nd == nil || len(nd.Deps) != 1 || nd.Deps[0].String() != tc.want {
			t.Errorf("%s: graph %v, want the one edge %s", tc.stmt, nd, tc.want)
		}
	}
}

// TestNestScalarCover: a scalar flows into the next outer iteration when
// a use is not covered by a definition earlier in the same outer
// iteration, and one inside an inner loop that may run zero times covers
// nothing.
func TestNestScalarCover(t *testing.T) {
	for _, tc := range []struct {
		bound string
		flow  bool
	}{{"4", false}, {"n", true}} {
		src := "float a[16][16], b[16];\nvoid f(int n) {\n\tint i, j;\n\tfloat t;\n\tt = 0;\n" +
			"\tfor (i = 0; i < 16; i++) {\n\t\tfor (j = 0; j < " + tc.bound + "; j++)\n\t\t\tt = a[i][j];\n\t\tb[i] = t;\n\t}\n}\n"
		p, outer := loopOf(t, src, "f")
		nd := AnalyzeNest(p, outer, Options{})
		flow := false
		for _, d := range nd.Deps {
			flow = flow || d.Scalar && d.Kind == Flow && d.To == 1
		}
		if flow != tc.flow {
			t.Errorf("j < %s: scalar flow into b[i] = t is %v, want %v: %v", tc.bound, flow, tc.flow, nd.Deps)
		}
	}
}

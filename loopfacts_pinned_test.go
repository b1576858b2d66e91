package repro_test

// What each consumer of the affine form base + coef·iv answers on the
// inputs where their five hand-written decompositions used to differ,
// asserted at the consumer's surface: depend's reference for the store,
// whether the loop vectorizes, how many references strength reduction
// rewrites (the b[i] load is always one), whether the outer loop of the
// two-level version parallelizes, whether the loop itself does. The table was written, and passed,
// against the five separate walkers; a row the one il.Affine changes on
// purpose keeps its old answer in was, with the reason.

import (
	"fmt"
	"testing"

	"repro/internal/ctype"
	"repro/internal/depend"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/parallel"
	"repro/internal/schedule"
	"repro/internal/strength"
	"repro/internal/vector"
)

// pinnedVars is the variable table every pinned row builds over.
type pinnedVars struct {
	a, b, i, j, n, m, q, vol il.VarID
}

// pinnedProc builds
//
//	do i = 0, 15, 1 { *(addr) = *(&b + 4·i) }
//
// or, nested, the same loop inside do j = 0, 63, 1 with 256·j added to
// both addresses. addr builds the row's store address on the nil arena.
func pinnedProc(nested bool, addr func(h *il.Arena, v pinnedVars) il.Expr) (*il.Proc, *il.DoLoop) {
	var h *il.Arena
	it, ft := ctype.IntType, ctype.FloatType
	pf := ctype.PointerTo(ft)
	arr := ctype.ArrayOf(ft, 4096)
	p := il.NewProc("f", ctype.VoidType)
	v := pinnedVars{
		a:   p.AddVar(il.Var{Name: "a", Type: arr, Class: il.ClassLocal, AddrTaken: true}),
		b:   p.AddVar(il.Var{Name: "b", Type: arr, Class: il.ClassLocal, AddrTaken: true}),
		i:   p.AddVar(il.Var{Name: "i", Type: it, Class: il.ClassTemp}),
		j:   p.AddVar(il.Var{Name: "j", Type: it, Class: il.ClassTemp}),
		n:   p.AddVar(il.Var{Name: "n", Type: it, Class: il.ClassParam}),
		m:   p.AddVar(il.Var{Name: "m", Type: it, Class: il.ClassParam}),
		q:   p.AddVar(il.Var{Name: "q", Type: ctype.PointerTo(it), Class: il.ClassParam}),
		vol: p.AddVar(il.Var{Name: "vol", Type: ctype.Qualified(it, true, false), Class: il.ClassLocal}),
	}
	p.Params = []il.VarID{v.n, v.m, v.q}

	dst := addr(h, v)
	src := il.Expr(h.Bin(il.OpAdd, h.AddrOf(v.b, pf), h.Bin(il.OpMul, h.Int(4), h.VarRef(v.i, it), it), pf))
	if nested {
		row := func(e il.Expr) il.Expr {
			return h.Bin(il.OpAdd, e, h.Bin(il.OpMul, h.Int(256), h.VarRef(v.j, it), it), pf)
		}
		dst, src = row(dst), row(src)
	}
	loop := h.DoLoop(il.DoLoop{IV: v.i, Init: h.Int(0), Limit: h.Int(15), Step: h.Int(1),
		Body: []il.Stmt{h.Assign(il.Assign{Dst: h.Load(dst, ft, false), Src: h.Load(src, ft, false)})}})
	p.Body = []il.Stmt{loop}
	if nested {
		p.Body = []il.Stmt{h.DoLoop(il.DoLoop{IV: v.j, Init: h.Int(0), Limit: h.Int(63), Step: h.Int(1),
			Body: []il.Stmt{loop}})}
	}
	return p, loop
}

// pinnedAnswer asks the four consumers about one store address.
func pinnedAnswer(addr func(h *il.Arena, v pinnedVars) il.Expr) string {
	p, loop := pinnedProc(false, addr)
	r := depend.AnalyzeLoop(p, loop, depend.Options{}).Refs[0]
	dep := "nonlinear"
	if r.Linear {
		extra := "-"
		if r.Base.Extra != nil {
			extra = r.Base.Extra.String()
		}
		dep = fmt.Sprintf("%d·i%+d kind=%d root=v%d extra=%s", r.Coef, r.Offset, r.Base.Kind, r.Base.Var, extra)
	}
	p, _ = pinnedProc(false, addr)
	vect := vector.VectorizeProc(p, vector.Config{Default: schedule.Default()}).LoopsVectorized == 1
	p, _ = pinnedProc(false, addr)
	reduced := strength.OptimizeLoops(p, strength.Config{Default: schedule.Default()}).ReducedRefs
	p, _ = pinnedProc(true, addr)
	nest := parallel.ParallelizeNests(p, depend.Options{}, nil).NestsParallelized == 1
	p, _ = pinnedProc(false, addr)
	doall := parallel.ParallelizeProc(p, depend.Options{}, nil, nil, nil, schedule.Default()).LoopsParallelized == 1
	return fmt.Sprintf("depend{%s} vector=%v reduced=%d nest=%v doall=%v", dep, vect, reduced, nest, doall)
}

func TestAffineConsumersPinned(t *testing.T) {
	it, ft := ctype.IntType, ctype.FloatType
	pf := ctype.PointerTo(ft)
	// &a + rest + 4·ix, the shape the rows vary.
	sum := func(h *il.Arena, v pinnedVars, rest, ix il.Expr) il.Expr {
		base := il.Expr(h.AddrOf(v.a, pf))
		if rest != nil {
			base = h.Bin(il.OpAdd, base, rest, pf)
		}
		return h.Bin(il.OpAdd, base, h.Bin(il.OpMul, h.Int(4), ix, it), pf)
	}
	rows := []struct {
		name string
		addr func(h *il.Arena, v pinnedVars) il.Expr
		want string
		// was is the answer of the five separate walkers where the one
		// decomposition changed it on purpose; why says what was wrong.
		was, why string
	}{
		{name: "plain",
			addr: func(h *il.Arena, v pinnedVars) il.Expr { return sum(h, v, nil, h.VarRef(v.i, it)) },
			want: "depend{4·i+0 kind=0 root=v0 extra=-} vector=true reduced=2 nest=true doall=true"},
		{name: "cast-around-index",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, nil, h.Cast(h.VarRef(v.i, it), ctype.LongType))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=-} vector=true reduced=2 nest=true doall=true"},
		{name: "cast-around-invariant-load",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Cast(h.Load(h.VarRef(v.q, ctype.PointerTo(it)), it, false), ctype.LongType), h.VarRef(v.i, it))
			},
			want: "depend{nonlinear} vector=false reduced=1 nest=false doall=false",
			was:  "depend{nonlinear} vector=false reduced=2 nest=false doall=false",
			why: "strength's walker returned a cast around an index-free operand before the load-free " +
				"test its own fallback arm applied, so the store's base, reading *q, was hoisted to the " +
				"preheader past body stores that may alias it; the test now follows the one descent"},
		{name: "invariant-load",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Load(h.VarRef(v.q, ctype.PointerTo(it)), it, false), h.VarRef(v.i, it))
			},
			want: "depend{nonlinear} vector=false reduced=1 nest=false doall=false"},
		{name: "cast-around-invariant-address",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				inner := h.Cast(h.Bin(il.OpAdd, h.AddrOf(v.a, pf), h.Int(8), pf), ctype.PointerTo(it))
				return h.Bin(il.OpAdd, inner, h.Bin(il.OpMul, h.Int(4), h.VarRef(v.i, it), it), pf)
			},
			want: "depend{4·i+8 kind=0 root=v0 extra=-} vector=true reduced=2 nest=true doall=true"},
		{name: "x-minus-x-over-index",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Bin(il.OpSub, h.VarRef(v.i, it), h.VarRef(v.i, it), it), h.VarRef(v.i, it))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=-} vector=true reduced=2 nest=true doall=true"},
		{name: "cast-around-x-minus-x",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Cast(h.Bin(il.OpSub, h.VarRef(v.i, it), h.VarRef(v.i, it), it), ctype.LongType), h.VarRef(v.i, it))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=-} vector=true reduced=2 nest=true doall=true"},
		{name: "product-of-invariants",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Bin(il.OpMul, h.VarRef(v.n, it), h.VarRef(v.m, it), it), h.VarRef(v.i, it))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=(v4 * v5)} vector=true reduced=2 nest=false doall=true"},
		{name: "scaled-invariant",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Bin(il.OpMul, h.Int(4), h.VarRef(v.n, it), it), h.VarRef(v.i, it))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=(4 * v4)} vector=true reduced=2 nest=false doall=true"},
		{name: "invariant-twice",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Bin(il.OpAdd, h.VarRef(v.n, it), h.VarRef(v.n, it), it), h.VarRef(v.i, it))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=(2 * v4)} vector=true reduced=2 nest=false doall=true",
			was:  "depend{4·i+0 kind=0 root=v0 extra=(v4 + v4)} vector=true reduced=2 nest=true doall=true",
			why: "the flattening merges like terms before any consumer sees them: depend's base for " +
				"n + n is now the one it builds for 2·n (same base, so the subscript test applies), and " +
				"the nest walker, which refuses a scaled invariant, refuses the same value spelled as a repeat"},
		{name: "volatile-variable",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.VarRef(v.vol, ctype.Qualified(it, true, false)), h.VarRef(v.i, it))
			},
			want: "depend{4·i+0 kind=0 root=v0 extra=v7} vector=true reduced=2 nest=false doall=false",
			was:  "depend{4·i+0 kind=0 root=v0 extra=v7} vector=true reduced=2 nest=false doall=true",
			why: "only the nest and list-loop copies of the scalar-safety test looked for volatile operands; " +
				"the single-loop parallelizer left that to depend's barriers, which do not look inside a store's " +
				"address; the one UnsafeScalar refuses a body that touches volatile storage for every caller"},
		{name: "volatile-load",
			addr: func(h *il.Arena, v pinnedVars) il.Expr {
				return sum(h, v, h.Load(h.VarRef(v.q, ctype.PointerTo(it)), it, true), h.VarRef(v.i, it))
			},
			want: "depend{nonlinear} vector=false reduced=0 nest=false doall=false"},
	}
	for _, row := range rows {
		got := pinnedAnswer(row.addr)
		if got != row.want {
			t.Errorf("%s:\n got  %s\n want %s", row.name, got, row.want)
		}
		if row.was != "" && (row.was == row.want || row.why == "") {
			t.Errorf("%s: a changed row needs a different old answer and a reason", row.name)
		}
	}
}

// The nest table: what the nest parallelizer and the interchange check
// answer on the 2-nests where their dependence testers disagree with
// the direction vectors of the nest's references. Each row compiles f
// through the scalar phase and asks both about f's first loop nest. The
// table was written, and passed, against the nest parallelizer's own
// tester and the interchange check's outer-index view; a row the one
// direction-vector graph changes keeps its old answer in was, with the
// reason.
func TestNestFactsPinned(t *testing.T) {
	rows := []struct {
		name    string
		src     string
		noAlias bool
		want    string
		was     string
		why     string
	}{
		{name: "transform4x4-init",
			src: `struct vertex { float p[4]; };
struct vertex verts[64];
void f(void) {
	int k, i;
	for (k = 0; k < 64; k++)
		for (i = 0; i < 4; i++)
			verts[k].p[i] = k + 2 * i;
}`,
			want: "nest=true interchange=true"},
		{name: "transform4x4-copy",
			src: `struct vertex { float p[4]; };
struct vertex verts[64], moved[64];
void f(void) {
	int k, i;
	for (k = 0; k < 64; k++)
		for (i = 0; i < 4; i++)
			verts[k].p[i] = moved[k].p[i];
}`,
			want: "nest=true interchange=true"},
		{name: "lt-eq-row-into-vector",
			src: `float a[16], b[16][16];
void f(void) {
	int i, j;
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			a[j] = b[i][j];
}`,
			want: "nest=false interchange=true",
			was:  "nest=false interchange=false",
			why: "the outer-index view saw a[j] as a store to one address and refused it; its only " +
				"dependence is (<,=), which interchange keeps"},
		{name: "eq-lt-along-the-row",
			src: `float a[16][16];
void f(void) {
	int i, j;
	for (i = 0; i < 16; i++)
		for (j = 1; j < 16; j++)
			a[i][j] = a[i][j-1];
}`,
			want: "nest=true interchange=true",
			was:  "nest=true interchange=false",
			why: "the check refused every inner-carried edge; (=,<) becomes (<,=) under interchange, " +
				"which is legal"},
		{name: "lt-gt-diagonal",
			src: `float a[16][16];
void f(void) {
	int i, j;
	for (i = 1; i < 16; i++)
		for (j = 0; j < 15; j++)
			a[i][j] = a[i-1][j+1];
}`,
			want: "nest=false interchange=false",
			was:  "nest=false interchange=true",
			why: "each level alone is independent, so the two one-loop views passed it; the pair's " +
				"direction is (<,>), which interchange reverses"},
		{name: "daxpy-repeat",
			src: `float a[512], b[512], c[512];
void f(void) {
	int r, j;
	for (r = 0; r < 12; r++)
		for (j = 0; j < 512; j++)
			a[j] = b[j] + 0.5f * c[j];
}`,
			want: "nest=false interchange=true",
			was:  "nest=false interchange=false",
			why: "the outer-index view saw the store to a[j] as one address; its self-dependence is " +
				"(<,=), which interchange keeps: the interchanged inner loop carries it instead"},
		{name: "two-pointers",
			src: `void f(float *x, float *y) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			x[i * 64 + j] = y[i * 64 + j] + 1.0f;
}`,
			want: "nest=false interchange=false"},
		{name: "two-pointers-safe",
			src: `void f(float *x, float *y) {
	int i, j;
#pragma safe
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			x[i * 64 + j] = y[i * 64 + j] + 1.0f;
}`,
			want: "nest=true interchange=true",
			was:  "nest=false interchange=false",
			why: "the nest tester refused any pointer root and never read #pragma safe; the " +
				"interchange check read it only on the inner loop"},
		{name: "two-pointers-noalias",
			src: `void f(float *x, float *y) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			x[i * 64 + j] = y[i * 64 + j] + 1.0f;
}`,
			noAlias: true,
			want:    "nest=true interchange=true",
			was:     "nest=false interchange=true",
			why:     "the nest tester refused any pointer root and never read -noalias"},
		{name: "stepped-outer",
			src: `float a[64][16];
void f(void) {
	int i, j;
	for (i = 0; i < 64; i += 2)
		for (j = 0; j < 16; j++)
			a[i][j] = 1.0f;
}`,
			want: "nest=false interchange=true",
			was:  "nest=true interchange=true",
			why: "the nest pass is narrowed to a unit outer step: its old test measured the outer " +
				"stride per unit of the index, and counting it per iteration, as the graph does, " +
				"newly parallelizes stepped nests, a trade of its own"},
	}
	for _, row := range rows {
		got := nestAnswer(t, row.src, row.noAlias)
		if got != row.want {
			t.Errorf("%s:\n got  %s\n want %s", row.name, got, row.want)
		}
		if row.was != "" && (row.was == row.want || row.why == "") {
			t.Errorf("%s: a changed row needs a different old answer and a reason", row.name)
		}
	}
}

// nestAnswer compiles src through the scalar phase and asks the
// interchange check, then the nest parallelizer, about f's first nest.
func nestAnswer(t *testing.T, src string, noAlias bool) string {
	t.Helper()
	res, err := driver.CompileIL(src, driver.Options{OptLevel: 1, ForceIVSub: true, NoAlias: noAlias})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p := res.IL.Proc("f")
	var nest *il.DoLoop
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if loop, ok := s.(*il.DoLoop); ok && nest == nil && !isInnermostLoop(loop) {
			nest = loop
		}
		return nest == nil
	})
	if nest == nil {
		t.Fatalf("no loop nest in f:\n%s", p)
	}
	ic := schedule.CheckInterchange(p, nest, depend.Options{NoAlias: noAlias}) == nil
	par := parallel.ParallelizeNests(p, depend.Options{NoAlias: noAlias}, nil).NestsParallelized == 1
	return fmt.Sprintf("nest=%v interchange=%v", par, ic)
}

// isInnermostLoop reports whether loop's body holds no DO loop.
func isInnermostLoop(loop *il.DoLoop) bool {
	for _, s := range loop.Body {
		if _, ok := s.(*il.DoLoop); ok {
			return false
		}
	}
	return true
}

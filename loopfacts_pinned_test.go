package repro

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
	"repro/internal/il"
	"repro/internal/parallel"
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
	vect := vector.VectorizeProc(p, vector.Config{}).LoopsVectorized == 1
	p, _ = pinnedProc(false, addr)
	reduced := strength.OptimizeLoops(p, strength.Config{}).ReducedRefs
	p, _ = pinnedProc(true, addr)
	nest := parallel.ParallelizeNests(p, nil).NestsParallelized == 1
	p, _ = pinnedProc(false, addr)
	doall := parallel.ParallelizeProc(p, depend.Options{}, nil, nil, nil).LoopsParallelized == 1
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

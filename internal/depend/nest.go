package depend

// The dependence graph of a 2-nest: an outer DO loop whose body holds
// assignments and inner constant-step DO loops of assignments. Each edge
// carries a direction per level, (outer, inner), the form interchange and
// outer-level parallelization both read (Allen & Kennedy's direction
// vectors). Pairs of references go through testPair, the test AnalyzeLoop
// runs on one loop; references in different inner loops, or one at the
// outer level, share only the outer level.

import (
	"fmt"
	"slices"

	"repro/internal/il"
)

// NestDep is one edge of a nest's graph: statement To depends on From
// (indices into NestDeps.Stmts) with direction Dir over (outer, inner).
// Where Known, Dist is the level's distance in iterations, sink minus
// source. Scalar marks a dependence through a scalar variable.
type NestDep struct {
	From, To int
	Kind     DepKind
	Dir      [2]Dir
	Dist     [2]int64
	Known    [2]bool
	Scalar   bool
}

// String renders the edge with a distance where it is known and a
// direction where it is not: S0 -flow (0,1)-> S0, S0 -flow (<,>)-> S0.
func (d *NestDep) String() string {
	var lv [2]any
	for k := range lv {
		lv[k] = d.Dir[k]
		if d.Known[k] {
			lv[k] = d.Dist[k]
		}
	}
	kind := d.Kind.String()
	if d.Scalar {
		kind += "/scalar"
	}
	return fmt.Sprintf("S%d -%s (%v,%v)-> S%d", d.From, kind, lv[0], lv[1], d.To)
}

// NestDeps is the dependence graph of a 2-nest.
type NestDeps struct {
	Outer *il.DoLoop
	// Stmts are the nest's assignments in the order one outer iteration
	// runs them; Inner[i] is the inner loop holding Stmts[i], nil at the
	// outer level.
	Stmts []il.Stmt
	Inner []*il.DoLoop
	Refs  []Ref
	Deps  []NestDep
}

// AnalyzeNest computes the graph of the nest outer, or returns nil when
// outer is not a 2-nest: its body must hold assignments and at least one
// inner DO loop, each with a constant step and a body of assignments.
// Scalar edges are a definition's output dependence on itself and a
// flow into every use that no definition earlier in the same outer
// iteration surely covers — one in an inner loop that may run zero times
// does not. Both are given direction (*,*).
func AnalyzeNest(p *il.Proc, outer *il.DoLoop, opts Options) *NestDeps {
	if !slices.ContainsFunc(outer.Body, func(s il.Stmt) bool { _, ok := s.(*il.DoLoop); return ok }) {
		return nil
	}
	nd := &NestDeps{Outer: outer}
	assigned := map[il.VarID]bool{} // what the nest writes, inner indices included
	for _, s := range outer.Body {
		body, in := []il.Stmt{s}, (*il.DoLoop)(nil)
		if l, ok := s.(*il.DoLoop); ok {
			if _, ok := il.IsIntConst(l.Step); !ok {
				return nil
			}
			body, in = l.Body, l
			assigned[l.IV] = true
		}
		for _, b := range body {
			switch b.(type) {
			case *il.Assign, *il.PredAssign:
			default:
				return nil
			}
			nd.Stmts, nd.Inner = append(nd.Stmts, b), append(nd.Inner, in)
			if v := il.DefinedVar(b); v != il.NoVar {
				assigned[v] = true
			}
		}
	}
	barrier := make([]bool, len(nd.Stmts))
	for i, s := range nd.Stmts {
		loops := [2]*il.DoLoop{nd.Inner[i], outer}
		norm := func(addr il.Expr) Ref {
			// A base the nest writes is not invariant in it.
			r := normalizeRef(addr, loops)
			varies := r.Base.Kind == BasePointer && assigned[r.Base.Var]
			il.WalkExpr(r.Base.Extra, func(x il.Expr) bool {
				v, ok := x.(*il.VarRef)
				varies = varies || ok && assigned[v.ID]
				return !varies
			})
			if varies {
				return Ref{Base: Base{Kind: BaseUnknown}}
			}
			return r
		}
		barrier[i] = collectRefs(p, i, s, norm, &nd.Refs)
	}
	edge := func(src, dst *Ref, dir [2]Dir, dist [2]int64, known [2]bool) {
		nd.add(NestDep{From: src.StmtIdx, To: dst.StmtIdx, Kind: depKindFor(src.IsWrite, dst.IsWrite),
			Dir: dir, Dist: dist, Known: known})
	}
	for i := range nd.Refs {
		for j := i; j < len(nd.Refs); j++ {
			a, b := &nd.Refs[i], &nd.Refs[j]
			if !a.IsWrite && !b.IsWrite {
				continue
			}
			inA, inB := nd.Inner[a.StmtIdx], nd.Inner[b.StmtIdx]
			shared := inA != nil && inA == inB
			testPair(a, b, outer.Safe || shared && inA.Safe, opts,
				[3]int64{last(outer), last(inA), last(inB)}, shared, edge)
		}
	}
	nd.scalarDeps()
	barrierDeps(barrier, func(from, to int) {
		nd.add(NestDep{From: from, To: to, Kind: Output, Dir: [2]Dir{Any, Any}})
	})
	return nd
}

func (nd *NestDeps) add(d NestDep) { nd.Deps = append(nd.Deps, d) }

// scalarDeps adds the nest's scalar edges (see AnalyzeNest). cover[v] is
// the inner loop within whose iteration a definition of v covers later
// uses, or the outer loop once one covers the rest of the outer iteration.
func (nd *NestDeps) scalarDeps() {
	defs := map[il.VarID][]int{}
	for i, s := range nd.Stmts {
		if v := il.DefinedVar(s); v != il.NoVar {
			defs[v] = append(defs[v], i)
		}
	}
	cover := map[il.VarID]*il.DoLoop{}
	for i, s := range nd.Stmts {
		in := nd.Inner[i]
		if i > 0 && nd.Inner[i-1] != in && nd.Inner[i-1] != nil && nd.Inner[i-1].TripCount() >= 1 {
			for v, l := range cover {
				if l == nd.Inner[i-1] {
					cover[v] = nd.Outer
				}
			}
		}
		seen := map[il.VarID]bool{}
		for _, u := range usedScalars(s) {
			if l, ok := cover[u]; seen[u] || ok && (l == nd.Outer || l == in) {
				continue
			}
			seen[u] = true
			for _, d := range defs[u] {
				nd.add(NestDep{From: d, To: i, Kind: Flow, Dir: [2]Dir{Any, Any}, Scalar: true})
			}
		}
		if v := il.DefinedVar(s); v != il.NoVar {
			nd.add(NestDep{From: i, To: i, Kind: Output, Dir: [2]Dir{Any, Any}, Scalar: true})
			if cover[v] != nd.Outer {
				cover[v] = in
				if in == nil {
					cover[v] = nd.Outer
				}
			}
		}
	}
}

package parallel

// Loop-nest parallelization: the Titan's natural execution model for dense
// 2-d workloads is the outer loop spread across processors with the inner
// loop vectorized on each (§2; the Doré results of §10 are exactly this
// pattern). This pass converts the *outer* loop of a two-level nest into a
// do-parallel when no dependence of the nest's graph crosses outer
// iterations — rows of a matrix are the canonical case. It runs before
// vectorization, so the inner loops it leaves inside the do-parallel body
// still vectorize.

import (
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/il"
)

// NestStats reports conversions.
type NestStats struct {
	NestsParallelized int `json:"nests_parallelized"`
}

// Add folds another procedure's stats into s.
func (s *NestStats) Add(o NestStats) { s.NestsParallelized += o.NestsParallelized }

// ParallelizeNests converts eligible outer loops of 2-level nests. Every
// converted nest gets a nest-parallelized remark on r. (Rejections are
// silent here — most loops are simply not two-level nests; the later
// vectorize/parallelize passes give every surviving loop its verdict.)
func ParallelizeNests(p *il.Proc, opts depend.Options, r *diag.Reporter) NestStats {
	var st NestStats
	p.Body = il.RewriteStmts(p.Body, serialOnly, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		n, ok := s.(*il.DoLoop)
		if !ok || !nestIndependent(p, n, opts) {
			return nil, false
		}
		st.NestsParallelized++
		r.Report(diag.Diagnostic{Severity: diag.SevRemark, Code: diag.NestParallelized,
			Pos: n.Pos, Proc: p.Name, Pass: "nest-parallelize",
			Message: "outer loop of nest parallelized: outer stride clears the inner sweep"})
		p.BumpGeneration()
		return []il.Stmt{p.Arena().DoParallel(il.DoParallel{IV: n.IV, Init: n.Init,
			Limit: n.Limit, Step: n.Step, Body: n.Body, Pos: n.Pos})}, true
	})
	return st
}

// nestIndependent reports whether the outer loop's iterations are provably
// independent: no memory dependence crosses outer iterations, no scalar
// value flows into the next one, and none is observable after the nest.
// The pass keeps the shape it took before it read the nest's graph, so
// that the nests the graph alone would add are decisions of their own
// (ROADMAP): a unit outer step, inner loops of known trip count, bases
// that are plain sums of objects and variables, and rows — references
// that may touch one object, a store among them, advance by one outer
// stride that clears each one's inner sweep.
func nestIndependent(p *il.Proc, outer *il.DoLoop, opts depend.Options) bool {
	if step, ok := il.IsIntConst(outer.Step); !ok || step != 1 {
		return false
	}
	for _, s := range outer.Body {
		if in, ok := s.(*il.DoLoop); ok && in.TripCount() < 0 {
			return false
		}
	}
	nd := depend.AnalyzeNest(p, outer, opts)
	if nd == nil || depend.UnsafeScalar(p, outer.Body) != "" {
		return false
	}
	sweep := func(r *depend.Ref) int64 {
		trips := int64(1)
		if in := nd.Inner[r.StmtIdx]; in != nil {
			trips = in.TripCount()
		}
		return max(r.Coef, -r.Coef)*(trips-1) + int64(r.Size)
	}
	for i := range nd.Refs {
		a := &nd.Refs[i]
		if !plainSum(a.Base.Extra) {
			return false
		}
		for j := i; j < len(nd.Refs); j++ {
			b := &nd.Refs[j]
			if (a.IsWrite || b.IsWrite) && depend.BasesMayAlias(a.Base, b.Base, outer.Safe, opts) &&
				(a.OuterCoef != b.OuterCoef || max(a.OuterCoef, -a.OuterCoef) < max(sweep(a), sweep(b))) {
				return false
			}
		}
	}
	for _, d := range nd.Deps {
		if d.Dir[0] != depend.EQ && (!d.Scalar || d.Kind == depend.Flow) {
			return false
		}
	}
	return true
}

// plainSum reports whether e is nil or a sum of variables.
func plainSum(e il.Expr) bool {
	switch n := e.(type) {
	case nil, *il.VarRef:
		return true
	case *il.Bin:
		return n.Op == il.OpAdd && plainSum(n.L) && plainSum(n.R)
	}
	return false
}

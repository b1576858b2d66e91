package parallel

// Loop-nest parallelization: the Titan's natural execution model for dense
// 2-d workloads is the outer loop spread across processors with the inner
// loop vectorized on each (§2; the Doré results of §10 are exactly this
// pattern). This pass converts the *outer* loop of a two-level nest into a
// do-parallel when outer iterations provably touch disjoint memory:
//
//	do i = 0, N-1 {
//	    do j = 0, Tj-1 { ... a[base + c1·i + c2·j + d] ... }
//	}
//
// Outer iterations are independent when, for every conflicting pair of
// references to the same object, the outer stride c1 clears the span the
// inner loop sweeps: |c1| > max cross extent. Rows of a matrix are the
// canonical case (c1 = row size, inner sweep stays inside the row).
//
// The pass runs before vectorization, so the inner loops it leaves behind
// inside the do-parallel body still vectorize.

import (
	"repro/internal/ctype"
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
func ParallelizeNests(p *il.Proc, r *diag.Reporter) NestStats {
	var st NestStats
	p.Body = il.RewriteStmts(p.Body, serialOnly, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		n, ok := s.(*il.DoLoop)
		if !ok || !nestIndependent(p, n) {
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

// nestRef is one memory access in two-level affine form.
type nestRef struct {
	write   bool
	c1, c2  int64 // outer and inner IV coefficients (bytes)
	d       int64 // constant offset
	base    il.Expr
	baseKey string
	size    int64
	tj      int64 // inner trip count the access sweeps (1 for outer-body refs)
}

// nestIndependent reports whether the outer loop's iterations are provably
// disjoint.
func nestIndependent(p *il.Proc, outer *il.DoLoop) bool {
	if _, ok := il.IsIntConst(outer.Step); !ok {
		return false
	}
	// Gather the nest's statements: plain assigns at the outer level plus
	// at most a few inner serial DoLoops with constant bounds and
	// straight-line assign bodies.
	type innerLoop struct {
		loop  *il.DoLoop
		trips int64
	}
	var inners []innerLoop
	var flat []il.Stmt // (stmt, inner index or -1) pairs flattened below
	innerOf := map[il.Stmt]int{}
	sawInner := false
	for _, s := range outer.Body {
		switch n := s.(type) {
		case *il.Assign:
			flat = append(flat, s)
			innerOf[s] = -1
		case *il.DoLoop:
			trips := n.TripCount()
			if trips < 0 {
				return false
			}
			if _, ok := il.IsIntConst(n.Step); !ok {
				return false
			}
			for _, bs := range n.Body {
				if _, ok := bs.(*il.Assign); !ok {
					return false
				}
				flat = append(flat, bs)
				innerOf[bs] = len(inners)
			}
			inners = append(inners, innerLoop{n, trips})
			sawInner = true
		default:
			return false
		}
	}
	if !sawInner {
		return false // single-level loops belong to ParallelizeProc
	}

	if depend.UnsafeScalar(p, outer.Body) != "" {
		return false
	}

	// Scalars written in the nest must be dead on entry to each outer
	// iteration: every scalar defined anywhere in the nest must be defined
	// before it is used (in straight-line order), or it carries a value
	// across outer iterations (a reduction) and the loop must stay serial.
	definedInNest := map[il.VarID]bool{}
	for _, s := range flat {
		if dv := il.DefinedVar(s); dv != il.NoVar {
			definedInNest[dv] = true
		}
	}
	seen := map[il.VarID]bool{}
	for _, il2 := range inners {
		seen[il2.loop.IV] = true // loop headers define their IVs first
	}
	usesBeforeDef := false
	checkUses := func(e il.Expr) {
		il.WalkExpr(e, func(x il.Expr) bool {
			if v, ok := x.(*il.VarRef); ok {
				if definedInNest[v.ID] && !seen[v.ID] {
					usesBeforeDef = true
				}
			}
			return !usesBeforeDef
		})
	}
	for _, s := range outer.Body {
		switch n := s.(type) {
		case *il.Assign:
			if ld, isStore := n.Dst.(*il.Load); isStore {
				checkUses(ld.Addr)
			}
			checkUses(n.Src)
			if dv := il.DefinedVar(n); dv != il.NoVar {
				seen[dv] = true
			}
		case *il.DoLoop:
			checkUses(n.Init)
			checkUses(n.Limit)
			checkUses(n.Step)
			executes := n.TripCount() >= 1
			for _, bs := range n.Body {
				as := bs.(*il.Assign)
				if ld, isStore := as.Dst.(*il.Load); isStore {
					checkUses(ld.Addr)
				}
				checkUses(as.Src)
				// A zero-trip inner loop's definitions never happen, so
				// they cannot satisfy later uses.
				if dv := il.DefinedVar(as); dv != il.NoVar && executes {
					seen[dv] = true
				}
			}
		}
		if usesBeforeDef {
			return false
		}
	}

	// Collect and linearize every memory reference.
	var refs []nestRef
	for _, s := range flat {
		as := s.(*il.Assign)
		idx := innerOf[s]
		var innerIV il.VarID = il.NoVar
		var tj int64 = 1
		var stepJ int64 = 1
		if idx >= 0 {
			innerIV = inners[idx].loop.IV
			tj = inners[idx].trips
			stepJ, _ = il.IsIntConst(inners[idx].loop.Step)
		}
		collect := func(addr il.Expr, size int64, write bool) bool {
			r, ok := nestAffine(p, addr, outer.IV, innerIV)
			if !ok {
				return false
			}
			r.write = write
			r.size = size
			r.tj = tj
			r.c2 *= stepJ // per-trip advance includes the step sign
			refs = append(refs, r)
			return true
		}
		okAll := true
		if ld, isStore := as.Dst.(*il.Load); isStore {
			okAll = okAll && collect(ld.Addr, int64(ld.T.Size()), true)
		}
		il.WalkExpr(as.Src, func(e il.Expr) bool {
			if ld, isLoad := e.(*il.Load); isLoad {
				okAll = okAll && collect(ld.Addr, int64(ld.T.Size()), false)
			}
			return okAll
		})
		if !okAll {
			return false
		}
	}

	// Pairwise disjointness across outer iterations.
	for i := range refs {
		for j := i; j < len(refs); j++ {
			a, b := &refs[i], &refs[j]
			if !a.write && !b.write {
				continue
			}
			if a.baseKey != b.baseKey {
				// Distinct named objects never overlap; anything else is
				// conservative.
				if distinctObjects(p, a.base, b.base) {
					continue
				}
				return false
			}
			// Same object: outer strides must agree, and the stride must
			// clear the inner sweep.
			if a.c1 != b.c1 || a.c1 == 0 {
				return false
			}
			lo1, hi1 := span(a)
			lo2, hi2 := span(b)
			c1 := a.c1
			if c1 < 0 {
				c1 = -c1
			}
			if c1 <= max64(hi1-lo2, hi2-lo1) {
				return false
			}
		}
	}
	return true
}

// span returns the byte interval a reference sweeps within one outer
// iteration, excluding the c1·i term.
func span(r *nestRef) (lo, hi int64) {
	sweep := r.c2 * (r.tj - 1)
	lo, hi = r.d, r.d
	if sweep < 0 {
		lo += sweep
	} else {
		hi += sweep
	}
	hi += r.size - 1
	return
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// distinctObjects reports whether two base expressions are addresses of
// different named objects.
func distinctObjects(p *il.Proc, a, b il.Expr) bool {
	av, aok := rootObject(a)
	bv, bok := rootObject(b)
	return aok && bok && av != bv
}

// rootObject finds the single AddrOf root of a base expression.
func rootObject(e il.Expr) (il.VarID, bool) {
	var root il.VarID = il.NoVar
	count := 0
	ok := true
	il.WalkExpr(e, func(x il.Expr) bool {
		switch n := x.(type) {
		case *il.AddrOf:
			root = n.ID
			count++
		case *il.VarRef:
			if n.T != nil && n.T.Kind == ctype.Pointer {
				ok = false // pointer roots may alias anything
			}
		case *il.Load:
			ok = false
		}
		return ok
	})
	return root, ok && count == 1
}

// nestAffine decomposes addr = base + c1·ivOuter + c2·ivInner + d: il's
// one affine descent over the inner index with the outer index second,
// then the index-free part flattened. The base must be a plain sum of
// variables and object addresses, each taken once — so it is load-free by
// construction, and a scaled or repeated invariant keeps the nest serial.
func nestAffine(p *il.Proc, addr il.Expr, ivOuter, ivInner il.VarID) (nestRef, bool) {
	a := p.Arena()
	coefs, rest, ok := a.Affine(addr, [2]il.VarID{ivInner, ivOuter})
	if !ok {
		return nestRef{}, false
	}
	d, terms, ok := il.LinearTerms(rest)
	if !ok || len(terms) == 0 {
		return nestRef{}, false
	}
	var base il.Expr
	for _, t := range terms {
		switch t.Expr.(type) {
		case *il.VarRef, *il.AddrOf:
		default:
			return nestRef{}, false
		}
		if t.Coef != 1 {
			return nestRef{}, false
		}
		if base == nil {
			base = t.Expr
		} else {
			base = a.Bin(il.OpAdd, base, t.Expr, base.Type())
		}
	}
	return nestRef{c1: coefs[1], c2: coefs[0], d: d, base: base, baseKey: base.String()}, true
}

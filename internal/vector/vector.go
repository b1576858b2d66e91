// Package vector implements the vectorizer: Allen–Kennedy codegen over the
// dependence graph. Each innermost DO loop's top-level statements are
// grouped into strongly connected components of the dependence graph;
// acyclic components whose statement is a regular store become vector
// statements (loop distribution), cyclic components stay as serial loops.
// Vector statements longer than the Titan's vector length are strip mined
// (§9); strips with no carried dependences become do-parallel loops so the
// iterations can spread across processors (§2).
package vector

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ctype"
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/schedule"
)

// Config controls vectorization.
type Config struct {
	// Default is the plan's loop schedule, which every loop without a
	// Schedules entry follows.
	Default schedule.Schedule
	// Parallel enables emitting do-parallel strip loops when legal.
	Parallel bool
	// Depend carries aliasing assumptions.
	Depend depend.Options
	// Analysis, when non-nil, memoizes per-loop dependence graphs across
	// this pass and the parallel/strength consumers of the same loops.
	Analysis *analysis.Cache
	// Diags receives one verdict remark per examined innermost loop:
	// vect-vectorized with the chosen strip shape, or a rejection code
	// naming the blocking dependence edge. Nil drops the remarks.
	Diags *diag.Reporter
	// Schedules holds explicit per-loop plans (the tuner's output).
	Schedules *schedule.Set
}

// Stats reports what the vectorizer did to a procedure.
type Stats struct {
	LoopsExamined   int `json:"loops_examined"`
	LoopsVectorized int `json:"loops_vectorized"` // at least one statement went vector
	VectorStmts     int `json:"vector_stmts"`
	MaskedStmts     int `json:"masked_stmts"` // vector statements executing under a mask
	ParallelLoops   int `json:"parallel_loops"`
	SerialResidue   int `json:"serial_residue"` // statements left in serial loops after distribution
}

// Add folds another procedure's stats into s (the pipeline merges per-proc
// results through this).
func (s *Stats) Add(o Stats) {
	s.LoopsExamined += o.LoopsExamined
	s.LoopsVectorized += o.LoopsVectorized
	s.VectorStmts += o.VectorStmts
	s.MaskedStmts += o.MaskedStmts
	s.ParallelLoops += o.ParallelLoops
	s.SerialResidue += o.SerialResidue
}

// VectorizeProc vectorizes every innermost DO loop in the procedure. A
// scheduled interchange happens on the way down, before the walk descends
// into the nest, so the vectorizer sees the interchanged inner dimension.
func VectorizeProc(p *il.Proc, cfg Config) Stats {
	var st Stats
	enter := func(s il.Stmt) bool {
		if outer, ok := s.(*il.DoLoop); ok {
			maybeInterchange(p, outer, cfg)
		}
		return true
	}
	p.Body = il.RewriteStmts(p.Body, enter, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		loop, ok := s.(*il.DoLoop)
		if !ok || !isInnermost(loop.Body) {
			return nil, false
		}
		st.LoopsExamined++
		repl, ok := vectorizeLoop(p, loop, cfg, &st)
		if ok {
			st.LoopsVectorized++
		}
		return repl, ok
	})
	return st
}

// isInnermost reports whether the body contains no loops.
func isInnermost(body []il.Stmt) bool {
	inner := false
	il.WalkStmts(body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.DoLoop, *il.While, *il.DoParallel:
			inner = true
		}
		return !inner
	})
	return !inner
}

// maybeInterchange swaps the headers of a perfect two-level nest when the
// outer loop's schedule asks for it and the swap is provably legal (no
// dependence is, or may be, (<,>)).
func maybeInterchange(p *il.Proc, outer *il.DoLoop, cfg Config) {
	s := cfg.Schedules.Lookup(p.Name, outer.Pos, cfg.Default)
	if !s.Interchange {
		return
	}
	if err := schedule.CheckInterchange(p, outer, cfg.Depend); err != nil {
		return
	}
	inner := outer.Body[0].(*il.DoLoop)
	outer.IV, inner.IV = inner.IV, outer.IV
	outer.Init, inner.Init = inner.Init, outer.Init
	outer.Limit, inner.Limit = inner.Limit, outer.Limit
	outer.Step, inner.Step = inner.Step, outer.Step
	p.BumpGeneration()
	remark(cfg, p, outer, diag.VectInterchanged, map[string]string{"schedule": s.String()},
		"loop nest interchanged: outer and inner headers swapped by the loop schedule")
}

// remark files one verdict diagnostic for the loop (nil-reporter safe).
func remark(cfg Config, p *il.Proc, loop *il.DoLoop, code diag.Code, args map[string]string, format string, a ...any) {
	cfg.Diags.Report(diag.Diagnostic{
		Severity: diag.SevRemark,
		Code:     code,
		Pos:      loop.Pos,
		Proc:     p.Name,
		Pass:     "vectorize",
		Message:  fmt.Sprintf(format, a...),
		Args:     args,
	})
}

// blockingDep scans the loop's dependence edges for the one that kills
// vectorization of the statements in scc: a carried self-dependence or any
// edge between two members of a multi-statement cycle. Returns false when
// the component fails for a non-dependence reason.
func blockingDep(ld *depend.LoopDeps, scc []int) (depend.Dep, bool) {
	member := make(map[int]bool, len(scc))
	for _, i := range scc {
		member[i] = true
	}
	var fallback depend.Dep
	found := false
	for _, d := range ld.Deps {
		if !member[d.From] || !member[d.To] {
			continue
		}
		if len(scc) == 1 && !(d.From == d.To && d.Carried) {
			continue
		}
		if d.Carried {
			return d, true
		}
		if !found {
			fallback, found = d, true
		}
	}
	return fallback, found
}

// vectorizeLoop attempts Allen–Kennedy codegen on one innermost loop,
// returning the replacement statement sequence. Exactly one verdict remark
// is reported per call (§5's accept-or-reject decision, with the blocking
// dependence named on rejection).
func vectorizeLoop(p *il.Proc, loop *il.DoLoop, cfg Config, st *Stats) ([]il.Stmt, bool) {
	if !normalize(p, loop) {
		remark(cfg, p, loop, diag.VectNotNormalized, nil,
			"loop not vectorized: step is not a known non-zero constant")
		return nil, false
	}
	ld := cfg.Analysis.LoopDeps(p, loop, cfg.Depend)
	n := len(loop.Body)
	if n == 0 {
		remark(cfg, p, loop, diag.VectEmptyBody, nil, "loop not vectorized: empty body")
		return nil, false
	}

	sched := cfg.Schedules.Lookup(p.Name, loop.Pos, cfg.Default)
	// Predicated statements vectorize as masked strips only under the
	// default strategy; branchy-serial keeps them in the serial residue
	// (predicated scalar execution).
	allowMasked := sched.MaskStrategy == ""
	hasPred := false
	for _, s := range loop.Body {
		if _, ok := s.(*il.PredAssign); ok {
			hasPred = true
			break
		}
	}

	// Condense the dependence graph into SCCs.
	adj := make([][]int, n)
	for _, d := range ld.Deps {
		adj[d.From] = append(adj[d.From], d.To)
	}
	sccs := tarjan(n, adj)

	// Decide vectorizability per SCC.
	type piece struct {
		stmts  []int
		vector bool
	}
	var pieces []piece
	anyVector := false
	for _, scc := range sccs {
		vec := false
		if len(scc) == 1 {
			i := scc[0]
			if !ld.HasCycleThrough(i) && !ld.Barrier[i] && vectorizableStmt(p, loop, loop.Body[i], allowMasked) {
				vec = true
			}
		}
		pieces = append(pieces, piece{scc, vec})
		if vec {
			anyVector = true
		}
	}
	if !anyVector {
		// Name what blocked every component: prefer the dependence cycle,
		// then a barrier statement, then the shape of the store.
		var dep depend.Dep
		depFound := false
		barrier := -1
		for _, pc := range pieces {
			if d, ok := blockingDep(ld, pc.stmts); ok && (!depFound || (d.Carried && !dep.Carried)) {
				dep, depFound = d, true
			}
			for _, i := range pc.stmts {
				if ld.Barrier[i] && barrier < 0 {
					barrier = i
				}
			}
		}
		switch {
		case hasPred && !allowMasked:
			remark(cfg, p, loop, diag.VectIfRejected, map[string]string{"schedule": sched.String()},
				"loop kept branchy-serial: predicated statements pinned scalar by the loop's mask strategy")
		case hasPred && depFound:
			remark(cfg, p, loop, diag.VectIfRejected, map[string]string{"dep": dep.String()},
				"if-converted loop not vectorized: dependence %s crosses the guard", dep.String())
		case depFound:
			remark(cfg, p, loop, diag.VectDepCycle, map[string]string{"dep": dep.String()},
				"loop not vectorized: dependence cycle %s", dep.String())
		case barrier >= 0:
			remark(cfg, p, loop, diag.VectBarrier, map[string]string{"stmt": loop.Body[barrier].String()},
				"loop not vectorized: statement S%d is a dependence barrier (call or irregular control)", barrier)
		default:
			remark(cfg, p, loop, diag.VectNotAffine, nil,
				"loop not vectorized: no store with addresses affine in the loop variable")
		}
		return nil, false
	}

	// Distribution is only legal when no scalar flow crosses component
	// boundaries (scalar expansion is not implemented).
	sccOf := make([]int, n)
	for pi, pc := range pieces {
		for _, i := range pc.stmts {
			sccOf[i] = pi
		}
	}
	if len(pieces) > 1 {
		for _, d := range ld.Deps {
			if d.Scalar && sccOf[d.From] != sccOf[d.To] {
				remark(cfg, p, loop, diag.VectScalarFlow, map[string]string{"dep": d.String()},
					"loop not vectorized: scalar dependence %s crosses distribution components", d.String())
				return nil, false
			}
		}
	}

	// No carried dependence anywhere ⇒ strips are independent ⇒ parallel,
	// unless the loop's schedule pins the strips serial.
	parallelOK := cfg.Parallel && ld.Carried() == nil && !sched.SerialStrips

	var out []il.Stmt
	vecStmts, maskedStmts, residue := 0, 0, 0
	for _, pc := range pieces {
		if pc.vector {
			for _, i := range pc.stmts {
				var dst *il.Load
				var src, cond il.Expr
				switch as := loop.Body[i].(type) {
				case *il.Assign:
					dst, src = as.Dst.(*il.Load), as.Src
				case *il.PredAssign:
					dst, src, cond = as.Dst.(*il.Load), as.Src, as.Cond
					st.MaskedStmts++
					maskedStmts++
				}
				stmts := emitVector(p, loop, dst, src, cond, int64(sched.VL), parallelOK, st)
				out = append(out, stmts...)
				st.VectorStmts++
				vecStmts++
			}
			continue
		}
		// Serial residue: a copy of the loop holding just this component.
		var body []il.Stmt
		for _, i := range pc.stmts {
			body = append(body, loop.Body[i])
			st.SerialResidue++
			residue++
		}
		a := p.Arena()
		out = append(out, a.DoLoop(il.DoLoop{IV: loop.IV, Init: loop.Init,
			Limit: loop.Limit, Step: loop.Step,
			Body: body, Safe: loop.Safe, Pos: loop.Pos}))
	}
	// Optimizer-manufactured strip statements inherit the loop's position.
	il.StampStmts(out, loop.Pos)
	shape := "serial strips"
	if parallelOK {
		shape = "parallel strips"
	}
	args := map[string]string{
		"vl":           fmt.Sprint(sched.VL),
		"vector_stmts": fmt.Sprint(vecStmts),
		"residue":      fmt.Sprint(residue),
		"shape":        shape,
		"schedule":     sched.String(),
	}
	if maskedStmts > 0 {
		args["masked_stmts"] = fmt.Sprint(maskedStmts)
		remark(cfg, p, loop, diag.VectMasked, args,
			"loop vectorized under a mask: %d vector statement(s) (%d masked), VL=%d, %s (%d serial residue)",
			vecStmts, maskedStmts, sched.VL, shape, residue)
	} else {
		remark(cfg, p, loop, diag.VectVectorized, args,
			"loop vectorized: %d vector statement(s), VL=%d, %s (%d serial residue)",
			vecStmts, sched.VL, shape, residue)
	}
	// The rewrite replaces statements the proc-wide chains and any cached
	// dependence graphs were built over; stale entries must not survive.
	p.BumpGeneration()
	return out, true
}

// normalize rewrites the loop to Init 0, Step 1, replacing body uses of
// the IV by Init + Step·IV. Returns false when the step is not a known
// constant.
func normalize(p *il.Proc, loop *il.DoLoop) bool {
	stepC, ok := il.IsIntConst(loop.Step)
	if !ok || stepC == 0 {
		return false
	}
	initC, initConst := il.IsIntConst(loop.Init)
	if initConst && initC == 0 && stepC == 1 {
		return true
	}
	// trips-1 = floor((Limit-Init)/Step). Division truncates toward zero,
	// so a loop that runs no times, with Limit short of Init by less than
	// a step, would get quotient 0: one trip. A unit step cannot fall
	// short by less than itself; any other adds a step first and takes
	// one off the quotient, which is exact when it runs and below 0 when
	// it does not.
	a := p.Arena()
	t := p.Vars[loop.IV].Type
	diff := a.Sub(loop.Limit, loop.Init, t)
	var limit il.Expr
	if stepC == 1 || stepC == -1 {
		limit = a.NewBin(il.OpDiv, diff, loop.Step, t)
	} else {
		limit = a.Sub(a.NewBin(il.OpDiv, a.Add(diff, a.Int(stepC), t), a.Int(stepC), t), a.Int(1), t)
	}
	oldIV := loop.IV
	init := loop.Init
	step := loop.Step
	newIV := p.AddVar(il.Var{Name: p.Vars[oldIV].Name + ".n", Type: ctype.IntType, Class: il.ClassTemp})
	for _, s := range loop.Body {
		a.RewriteTreeExprs(s, func(e il.Expr) il.Expr {
			if v, ok := e.(*il.VarRef); ok && v.ID == oldIV {
				return a.Add(init,
					a.Mul(step, a.VarRef(newIV, ctype.IntType), ctype.IntType), t)
			}
			return e
		})
	}
	loop.IV = newIV
	loop.Init = a.Int(0)
	loop.Limit = limit
	loop.Step = a.Int(1)
	return true
}

// vectorizableStmt reports whether s is a store whose destination and
// every load are affine in the loop IV with non-zero destination stride,
// and whose value expression uses the IV only inside load addresses. A
// predicated store additionally needs a mask-lowerable condition and the
// masked strategy enabled for the loop.
func vectorizableStmt(p *il.Proc, loop *il.DoLoop, s il.Stmt, allowMasked bool) bool {
	var dstE, src il.Expr
	switch as := s.(type) {
	case *il.Assign:
		dstE, src = as.Dst, as.Src
	case *il.PredAssign:
		if !allowMasked || !maskableCond(p, loop, as.Cond) {
			return false
		}
		dstE, src = as.Dst, as.Src
	default:
		return false
	}
	dst, ok := dstE.(*il.Load)
	if !ok || dst.Volatile {
		return false
	}
	if c, _, ok := affine(p, loop.IV, dst.Addr); !ok || c == 0 {
		return false
	}
	// Loads must be affine; the residual expression must not use the IV.
	return vecOperandOK(p, loop, src)
}

// vecOperandOK reports whether e can ride a vector strip: every load is
// non-volatile and affine in the loop IV, the residual (non-address)
// expression never uses the IV, and every node computing on a vector
// operand has an exact vector lowering (il.VectorExact).
func vecOperandOK(p *il.Proc, loop *il.DoLoop, e il.Expr) bool {
	ok := true
	a := p.Arena()
	resid := a.RewriteExpr(e, func(x il.Expr) il.Expr {
		if ld, isLoad := x.(*il.Load); isLoad {
			if ld.Volatile {
				ok = false
			}
			coef, _, isAffine := affine(p, loop.IV, ld.Addr)
			if !isAffine {
				ok = false
			}
			// Stand-ins so the checks below only see residual
			// (non-address) uses of the IV, and the vector section a
			// moving load becomes.
			if coef != 0 {
				return a.VecRef(nil, nil, ld.T)
			}
			return a.Int(0)
		}
		return x
	})
	return ok && !il.UsesVar(resid, loop.IV) && il.VectorExact(resid)
}

// maskableCond reports whether cond can be lowered to Titan mask ops: a
// comparison over vector-ridable operands, or !, & , | combinations of
// such comparisons. This mirrors exactly what codegen's mask lowering
// handles (vcmp.{lt,le,eq,ne} plus mnot/mand/mor), and the operands obey
// the same il.VectorExact rule that codegen's vecExpr enforces.
func maskableCond(p *il.Proc, loop *il.DoLoop, e il.Expr) bool {
	switch n := e.(type) {
	case *il.Bin:
		if n.Op.IsComparison() {
			return vecOperandOK(p, loop, n.L) && vecOperandOK(p, loop, n.R)
		}
		if n.Op == il.OpAnd || n.Op == il.OpOr {
			return maskableCond(p, loop, n.L) && maskableCond(p, loop, n.R)
		}
	case *il.Un:
		if n.Op == il.OpNot {
			return maskableCond(p, loop, n.X)
		}
	}
	return false
}

// affine is il's decomposition over the one loop index: e = rest + coef·iv.
// rest is taken as found, loads included: a load in an address makes the
// reference non-linear to depend, whose unknown-base edges then decide
// whether the statement may leave the serial loop at all.
func affine(p *il.Proc, iv il.VarID, e il.Expr) (int64, il.Expr, bool) {
	c, rest, ok := p.Arena().Affine(e, [2]il.VarID{iv, il.NoVar})
	return c[0], rest, ok
}

// emitVector produces the strip-mined vector code for one (possibly
// predicated) store statement of a normalized loop (IV 0..Limit step 1),
// in strips of vl elements that spread over the processors when
// parallelOK. A non-nil cond becomes the strip's mask expression.
func emitVector(p *il.Proc, loop *il.DoLoop, dst *il.Load, src, cond il.Expr, vl int64, parallelOK bool, st *Stats) []il.Stmt {
	a := p.Arena()
	dstCoef, dstBase, _ := affine(p, loop.IV, dst.Addr)

	// Total length = Limit + 1 (normalized).
	total := a.Add(loop.Limit, a.Int(1), ctype.IntType)

	// An expression with loads replaced by vector section references of
	// the strip origin; the strip IV is added to bases below.
	makeVec := func(e il.Expr, originIV il.Expr) il.Expr {
		if e == nil {
			return nil
		}
		return a.RewriteExpr(e, func(x il.Expr) il.Expr {
			ld, ok := x.(*il.Load)
			if !ok {
				return x
			}
			coef, base, _ := affine(p, loop.IV, ld.Addr)
			if coef == 0 {
				return x // invariant scalar load, broadcast
			}
			b := a.Add(base, a.Mul(a.Int(coef), originIV, ctype.IntType), ld.Addr.Type())
			return a.VecRef(b, a.Int(coef), ld.T)
		})
	}

	// Small constant trip counts skip the strip loop entirely (§5.2: 4×4
	// graphics transforms must not pay strip overhead).
	if tc, ok := il.IsIntConst(total); ok && tc <= vl && tc > 0 {
		return []il.Stmt{a.VectorAssign(il.VectorAssign{
			DstBase:   a.Add(dstBase, a.Mul(a.Int(dstCoef), a.Int(0), ctype.IntType), dst.Addr.Type()),
			DstStride: a.Int(dstCoef),
			Len:       a.Int(tc),
			Elem:      dst.T,
			RHS:       makeVec(src, a.Int(0)),
			Mask:      makeVec(cond, a.Int(0)),
		})}
	}

	// Strip loop:
	//   do vi = 0, total-1, VL {
	//       vlen = total - vi; if (VL < vlen) vlen = VL
	//       [dstBase + c·vi : c](0:vlen) = RHS
	//   }
	vi := p.AddVar(il.Var{Name: "vi", Type: ctype.IntType, Class: il.ClassTemp})
	vlen := p.AddVar(il.Var{Name: "vlen", Type: ctype.IntType, Class: il.ClassTemp})
	viRef := a.VarRef(vi, ctype.IntType)
	vlenRef := a.VarRef(vlen, ctype.IntType)

	body := []il.Stmt{
		a.Assign(il.Assign{Dst: vlenRef, Src: a.Sub(total, viRef, ctype.IntType)}),
		a.If(il.If{
			Cond: a.NewBin(il.OpLt, a.Int(vl), vlenRef, ctype.IntType),
			Then: []il.Stmt{a.Assign(il.Assign{Dst: vlenRef, Src: a.Int(vl)})},
		}),
		a.VectorAssign(il.VectorAssign{
			DstBase:   a.Add(dstBase, a.Mul(a.Int(dstCoef), viRef, ctype.IntType), dst.Addr.Type()),
			DstStride: a.Int(dstCoef),
			Len:       vlenRef,
			Elem:      dst.T,
			RHS:       makeVec(src, viRef),
			Mask:      makeVec(cond, viRef),
		}),
	}
	limit := loop.Limit
	if parallelOK {
		st.ParallelLoops++
		return []il.Stmt{a.DoParallel(il.DoParallel{IV: vi, Init: a.Int(0), Limit: limit, Step: a.Int(vl), Body: body})}
	}
	return []il.Stmt{a.DoLoop(il.DoLoop{IV: vi, Init: a.Int(0), Limit: limit, Step: a.Int(vl), Body: body})}
}

// tarjan computes strongly connected components in reverse topological
// order; the caller receives them in topological order.
func tarjan(n int, adj [][]int) [][]int {
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	// Tarjan emits reverse topological order; flip it, then order the
	// statements inside each component by source position.
	slices.Reverse(sccs)
	for _, scc := range sccs {
		slices.Sort(scc)
	}
	return sccs
}

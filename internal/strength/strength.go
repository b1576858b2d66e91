// Package strength implements §6's dependence-driven optimizations for
// loops that do not vectorize:
//
//   - Register promotion: a carried flow dependence of distance 1 between
//     a store and a load of the same array means the loaded value is
//     exactly the value stored one iteration earlier — the dependence
//     graph "pinpoints the memory locations that are most frequently
//     accessed". The value is kept in a register across iterations,
//     eliminating the load (the backsolve example's f_reg1).
//   - Strength reduction of addresses: affine addresses base + c·IV are
//     rewritten as bumped pointer temporaries, eliminating the integer
//     multiplications induction-variable substitution introduced (§6:
//     "classic vectorizing transformations ... deoptimize programs that do
//     not vectorize"; this undoes the damage). References with equal base
//     and stride share one pointer — common subexpression elimination and
//     loop-invariant removal fall out of the same rewrite.
//   - Loop-invariant hoisting for pure scalar subexpressions.
//
// All three run only on serial DO loops (vector statements carry their own
// addressing).
package strength

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ctype"
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/schedule"
)

// Stats reports what the pass did.
type Stats struct {
	PromotedLoads    int `json:"promoted_loads"`    // loads replaced by registers
	ReducedRefs      int `json:"reduced_refs"`      // references rewritten to bumped pointers
	Pointers         int `json:"pointers"`          // pointer temporaries introduced
	HoistedExprs     int `json:"hoisted_exprs"`     // invariant expressions moved to the preheader
	LoopsTransformed int `json:"loops_transformed"` // loops §6 rewrote
	UnrolledLoops    int `json:"unrolled_loops"`    // loops replicated per their schedule
}

// Add folds another procedure's stats into s.
func (s *Stats) Add(o Stats) {
	s.PromotedLoads += o.PromotedLoads
	s.ReducedRefs += o.ReducedRefs
	s.Pointers += o.Pointers
	s.HoistedExprs += o.HoistedExprs
	s.LoopsTransformed += o.LoopsTransformed
	s.UnrolledLoops += o.UnrolledLoops
}

// Config controls the pass.
type Config struct {
	Depend depend.Options
	// Analysis, when non-nil, memoizes per-loop dependence graphs across
	// this pass and the vector/parallel consumers of the same loops.
	Analysis *analysis.Cache
	// Diags receives a strength-reduced remark for each loop §6 rewrote.
	// Nil drops the remarks.
	Diags *diag.Reporter
	// Schedules holds explicit per-loop plans, and a loop without an entry
	// follows Default, the plan's: a loop whose schedule asks for
	// Unroll > 1 has its body replicated after the §6 rewrites.
	Schedules *schedule.Set
	Default   schedule.Schedule
}

// OptimizeLoops transforms every serial innermost DO loop of p.
func OptimizeLoops(p *il.Proc, cfg Config) Stats {
	var st Stats
	p.Body = il.RewriteStmts(p.Body, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		loop, ok := s.(*il.DoLoop)
		if !ok || !eligible(loop) {
			return nil, false
		}
		pre, post := transformLoop(p, loop, cfg, &st)
		if len(pre)+len(post) == 0 {
			return nil, false
		}
		return append(append(pre, s), post...), true
	})
	return st
}

// eligible restricts the pass to innermost serial loops of straight-line
// assignments (no vector statements, no control flow) free of volatile
// references, which must be left exactly as written (§1).
func eligible(loop *il.DoLoop) bool {
	volatileRef := false
	for _, s := range loop.Body {
		as, ok := s.(*il.Assign)
		if !ok {
			return false
		}
		check := func(e il.Expr) {
			il.WalkExpr(e, func(x il.Expr) bool {
				if l, isLoad := x.(*il.Load); isLoad && l.Volatile {
					volatileRef = true
				}
				return true
			})
		}
		check(as.Dst)
		check(as.Src)
	}
	if volatileRef {
		return false
	}
	if _, ok := il.IsIntConst(loop.Step); !ok {
		return false
	}
	return true
}

// transformLoop applies promotion, reduction, hoisting, then any
// schedule-directed unrolling, returning preheader statements and the
// statements to place after the loop (the unroll remainder loop).
func transformLoop(p *il.Proc, loop *il.DoLoop, cfg Config, st *Stats) (pre, post []il.Stmt) {
	base := *st // snapshot so the remark reports this loop's counts only
	changed := false
	if stmts, ok := promote(p, loop, cfg, st); ok {
		pre = append(pre, stmts...)
		changed = true
	}
	if stmts, ok := reduce(p, loop, cfg, st); ok {
		pre = append(pre, stmts...)
		changed = true
	}
	if stmts, ok := hoist(p, loop, st); ok {
		pre = append(pre, stmts...)
		changed = true
	}
	sched := cfg.Schedules.Lookup(p.Name, loop.Pos, cfg.Default)
	unrolled := 1
	if sched.Unroll > 1 {
		if rem, ok := unroll(p, loop, sched.Unroll, st); ok {
			post = rem
			unrolled = sched.Unroll
			changed = true
		}
	}
	if changed {
		st.LoopsTransformed++
		p.BumpGeneration()
		il.StampStmts(pre, loop.Pos)
		if cfg.Diags != nil {
			promoted := st.PromotedLoads - base.PromotedLoads
			reduced := st.ReducedRefs - base.ReducedRefs
			hoisted := st.HoistedExprs - base.HoistedExprs
			msg := fmt.Sprintf(
				"loop strength-reduced: %d load(s) promoted to registers, %d reference(s) rewritten to bumped pointers, %d invariant expression(s) hoisted (§6)",
				promoted, reduced, hoisted)
			if unrolled > 1 {
				msg += fmt.Sprintf(", body unrolled %d×", unrolled)
			}
			cfg.Diags.Report(diag.Diagnostic{
				Severity: diag.SevRemark,
				Code:     diag.StrengthReduced,
				Pos:      loop.Pos,
				Proc:     p.Name,
				Pass:     "strength",
				Message:  msg,
				Args: map[string]string{
					"promoted": fmt.Sprint(promoted),
					"reduced":  fmt.Sprint(reduced),
					"hoisted":  fmt.Sprint(hoisted),
					"unroll":   fmt.Sprint(unrolled),
					"schedule": sched.String(),
				},
			})
		}
	}
	return pre, post
}

// unroll replicates the loop body factor times (replica j reads the IV as
// IV + j·step), widens the step to factor·step, pulls the limit in by
// (factor−1)·step so every replica stays in bounds, and returns a
// remainder loop that continues from the main loop's exit IV — the §6
// loop-overhead reduction the schedule layer can ask for on serial loops.
// Replication in source order preserves every dependence, carried or not;
// the strength-reduction pointer bumps replicate with the body, so each
// replica advances the reduced pointers exactly as the original iteration
// did.
func unroll(p *il.Proc, loop *il.DoLoop, factor int, st *Stats) ([]il.Stmt, bool) {
	stepC, ok := il.IsIntConst(loop.Step)
	if !ok || stepC == 0 || factor < 2 {
		return nil, false
	}
	ivType := p.Vars[loop.IV].Type
	if ivType == nil {
		ivType = ctype.IntType
	}
	// The remainder continues at the main loop's exit IV (codegen defines
	// it: Init + trips·Step), covering the trips the widened step skips.
	a := p.Arena()
	rem := a.DoLoop(il.DoLoop{IV: loop.IV, Init: a.VarRef(loop.IV, ivType),
		Limit: loop.Limit, Step: loop.Step,
		Body: a.CloneStmts(loop.Body), Safe: loop.Safe, Pos: loop.Pos})
	var body []il.Stmt
	for j := 0; j < factor; j++ {
		clone := a.CloneStmts(loop.Body)
		if j > 0 {
			off := int64(j) * stepC
			for _, cs := range clone {
				a.RewriteTreeExprs(cs, func(e il.Expr) il.Expr {
					if v, isVar := e.(*il.VarRef); isVar && v.ID == loop.IV {
						return a.Add(a.VarRef(loop.IV, ivType), a.Int(off), ivType)
					}
					return e
				})
			}
		}
		body = append(body, clone...)
	}
	loop.Body = body
	loop.Limit = a.Sub(loop.Limit, a.Int(int64(factor-1)*stepC), ctype.IntType)
	loop.Step = a.Int(stepC * int64(factor))
	st.UnrolledLoops++
	return []il.Stmt{rem}, true
}

// ---------------------------------------------------------------- promotion

// promote finds a store→load carried flow dependence of distance 1 on the
// same base and keeps the value in a register.
func promote(p *il.Proc, loop *il.DoLoop, cfg Config, st *Stats) ([]il.Stmt, bool) {
	ld := cfg.Analysis.LoopDeps(p, loop, cfg.Depend)
	for _, b := range ld.Barrier {
		if b {
			return nil, false
		}
	}
	// Find the unique (store, load) pair with distance-1 flow.
	var storeRef, loadRef *depend.Ref
	for i := range ld.Refs {
		for j := range ld.Refs {
			a, b := &ld.Refs[i], &ld.Refs[j]
			if !a.IsWrite || b.IsWrite || !a.Linear || !b.Linear {
				continue
			}
			if a.Coef != b.Coef || a.Coef == 0 {
				continue
			}
			if a.Base.Kind != b.Base.Kind || a.Base.Var != b.Base.Var || !il.ExprEqual(a.Base.Extra, b.Base.Extra) {
				continue
			}
			// Load reads what the store wrote one iteration ago:
			// a.Offset - b.Offset == Coef, the bytes of one iteration.
			if a.Offset-b.Offset == a.Coef {
				if storeRef != nil {
					return nil, false // multiple candidates: bail
				}
				storeRef, loadRef = a, b
			}
		}
	}
	// The store must be a top-level statement, and the load must come no
	// later in the iteration: the register holds the value stored one
	// iteration earlier only until this iteration's store overwrites it.
	// In the backsolve shape both are in the same statement, whose source
	// is read before it is stored.
	if storeRef == nil || loadRef.StmtIdx > storeRef.StmtIdx || storeRef.StmtIdx >= len(loop.Body) {
		return nil, false
	}
	storeStmt, ok := loop.Body[storeRef.StmtIdx].(*il.Assign)
	if !ok || !il.IsStore(storeStmt) {
		return nil, false
	}
	// Aside from this pair, no other reference may touch — or possibly
	// alias — the promoted base (conservative).
	for i := range ld.Refs {
		r := &ld.Refs[i]
		if r == storeRef || r == loadRef {
			continue
		}
		if !r.Linear || r.Base.Kind == depend.BaseUnknown {
			return nil, false
		}
		if depend.BasesMayAlias(r.Base, storeRef.Base, loop.Safe, cfg.Depend) {
			return nil, false
		}
	}
	// The pair itself must also be exact, not a may-alias guess: both
	// refs share a provably identical base by construction above.

	elem := elementType(storeStmt)
	reg := p.AddVar(il.Var{Name: fmt.Sprintf("f_reg%d", len(p.Vars)), Type: elem, Class: il.ClassTemp})
	a := p.Arena()
	regRef := func() *il.VarRef { return a.VarRef(reg, elem) }

	// Preheader: reg = load at the first iteration's address.
	initAddr := substIV(a, loadRef.Expr, loop.IV, loop.Init)
	pre := []il.Stmt{a.Assign(il.Assign{Dst: regRef(), Src: a.Load(initAddr, elem, false)})}

	// Replace the load and funnel the store through the register.
	loadExpr := loadRef.Expr
	replaced := 0
	for _, s := range loop.Body {
		as, ok := s.(*il.Assign)
		if !ok {
			continue
		}
		as.Src = a.RewriteExpr(as.Src, func(e il.Expr) il.Expr {
			if l, isLoad := e.(*il.Load); isLoad && il.ExprEqual(l.Addr, loadExpr) {
				replaced++
				return regRef()
			}
			return e
		})
	}
	if replaced == 0 {
		return nil, false
	}
	// Split the store: reg = Src; *addr = reg.
	idx := storeRef.StmtIdx
	newBody := make([]il.Stmt, 0, len(loop.Body)+1)
	for i, s := range loop.Body {
		if i == idx {
			as := s.(*il.Assign)
			newBody = append(newBody,
				a.Assign(il.Assign{Dst: regRef(), Src: as.Src}),
				a.Assign(il.Assign{Dst: as.Dst, Src: regRef()}))
			continue
		}
		newBody = append(newBody, s)
	}
	loop.Body = newBody
	st.PromotedLoads += replaced
	return pre, true
}

// elementType returns the stored element type of a store statement.
func elementType(as *il.Assign) *ctype.Type {
	if l, ok := as.Dst.(*il.Load); ok {
		return l.T
	}
	return ctype.FloatType
}

// substIV replaces the loop IV in e.
func substIV(a *il.Arena, e il.Expr, iv il.VarID, with il.Expr) il.Expr {
	return a.RewriteExpr(e, func(x il.Expr) il.Expr {
		if v, ok := x.(*il.VarRef); ok && v.ID == iv {
			return with
		}
		return x
	})
}

// ---------------------------------------------------------------- reduction

// addrClass groups references by (base expression, stride).
type addrClass struct {
	key  string
	base il.Expr
	coef int64
	ptr  il.VarID
	t    *ctype.Type // pointee for naming only
}

// reduce rewrites affine addresses into bumped pointers.
func reduce(p *il.Proc, loop *il.DoLoop, cfg Config, st *Stats) ([]il.Stmt, bool) {
	a := p.Arena()
	stepC, _ := il.IsIntConst(loop.Step)
	classes := map[string]*addrClass{}
	var order []*addrClass

	classify := func(addr il.Expr, elem *ctype.Type) (*addrClass, int64, bool) {
		coef, base, off, ok := affineParts(a, loop.IV, addr)
		if !ok || coef == 0 {
			return nil, 0, false
		}
		key := fmt.Sprintf("%s|%d", base.String(), coef)
		c, exists := classes[key]
		if !exists {
			c = &addrClass{key: key, base: base, coef: coef, t: elem}
			classes[key] = c
			order = append(order, c)
		}
		return c, off, true
	}

	// First pass: classify every reference.
	type rewriteTarget struct {
		class *addrClass
		off   int64
	}
	any := false
	for _, s := range loop.Body {
		as := s.(*il.Assign)
		check := func(addr il.Expr, elem *ctype.Type) {
			if _, _, ok := classify(addr, elem); ok {
				any = true
			}
		}
		if l, ok := as.Dst.(*il.Load); ok {
			check(l.Addr, l.T)
		}
		il.WalkExpr(as.Src, func(e il.Expr) bool {
			if l, ok := e.(*il.Load); ok {
				check(l.Addr, l.T)
			}
			return true
		})
	}
	if !any {
		return nil, false
	}

	// Allocate pointer temps and preheader initializations:
	//   ptr = base + coef·Init.
	var pre []il.Stmt
	for _, c := range order {
		pt := ctype.PointerTo(c.t)
		c.ptr = p.AddVar(il.Var{Name: fmt.Sprintf("temp_p%d", len(p.Vars)), Type: pt, Class: il.ClassTemp})
		init := a.Add(c.base,
			a.Mul(a.Int(c.coef), loop.Init, ctype.IntType), pt)
		pre = append(pre, a.Assign(il.Assign{Dst: a.VarRef(c.ptr, pt), Src: init}))
		st.Pointers++
	}

	// Second pass: rewrite references and append the bumps.
	rewriteAddr := func(addr il.Expr, elem *ctype.Type) il.Expr {
		c, off, ok := classify(addr, elem)
		if !ok {
			return addr
		}
		st.ReducedRefs++
		pt := ctype.PointerTo(elem)
		return a.Add(a.VarRef(c.ptr, pt), a.Int(off), pt)
	}
	for _, s := range loop.Body {
		as := s.(*il.Assign)
		if l, ok := as.Dst.(*il.Load); ok {
			as.Dst = a.Load(rewriteAddr(l.Addr, l.T), l.T, l.Volatile)
		}
		as.Src = a.RewriteExpr(as.Src, func(e il.Expr) il.Expr {
			if l, ok := e.(*il.Load); ok {
				return a.Load(rewriteAddr(l.Addr, l.T), l.T, l.Volatile)
			}
			return e
		})
	}
	for _, c := range order {
		pt := ctype.PointerTo(c.t)
		bump := a.Add(a.VarRef(c.ptr, pt), a.Int(c.coef*stepC), pt)
		loop.Body = append(loop.Body, a.Assign(il.Assign{Dst: a.VarRef(c.ptr, pt), Src: bump}))
	}
	return pre, true
}

// affineParts decomposes addr = base + coef·iv + off with base iv-free and
// off the constant part. The base is computed once, in the preheader, so
// it must be load-free: a store in the body may change what a load reads.
func affineParts(a *il.Arena, iv il.VarID, e il.Expr) (coef int64, base il.Expr, off int64, ok bool) {
	c, rest, ok := a.Affine(e, [2]il.VarID{iv, il.NoVar})
	if !ok || !il.LoadFree(rest) {
		return 0, nil, 0, false
	}
	base, off = splitConst(a, rest)
	return c[0], base, off, true
}

// splitConst pulls additive integer constants out of e.
func splitConst(a *il.Arena, e il.Expr) (il.Expr, int64) {
	if c, ok := il.IsIntConst(e); ok {
		return a.Int(0), c
	}
	if b, ok := e.(*il.Bin); ok {
		switch b.Op {
		case il.OpAdd:
			l, cl := splitConst(a, b.L)
			r, cr := splitConst(a, b.R)
			return a.Add(l, r, b.T), cl + cr
		case il.OpSub:
			l, cl := splitConst(a, b.L)
			r, cr := splitConst(a, b.R)
			return a.Sub(l, r, b.T), cl - cr
		}
	}
	return e, 0
}

// ---------------------------------------------------------------- hoisting

// hoist moves pure loop-invariant non-trivial subexpressions into
// preheader temporaries (loop-invariant code motion with CSE: equal
// expressions share a temp).
func hoist(p *il.Proc, loop *il.DoLoop, st *Stats) ([]il.Stmt, bool) {
	a := p.Arena()
	defined := map[il.VarID]bool{loop.IV: true}
	for _, s := range loop.Body {
		il.WalkStmts([]il.Stmt{s}, func(sub il.Stmt) bool {
			if dv := il.DefinedVar(sub); dv != il.NoVar {
				defined[dv] = true
			}
			return true
		})
	}
	invariant := func(e il.Expr) bool {
		if !il.LoadFree(e) {
			return false
		}
		ok := true
		il.WalkExpr(e, func(x il.Expr) bool {
			if v, isVar := x.(*il.VarRef); isVar {
				if defined[v.ID] || p.Vars[v.ID].IsVolatile() {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	size := func(e il.Expr) int {
		n := 0
		il.WalkExpr(e, func(il.Expr) bool { n++; return true })
		return n
	}

	temps := map[string]il.VarID{}
	var pre []il.Stmt
	changed := false
	for _, s := range loop.Body {
		as, ok := s.(*il.Assign)
		if !ok {
			continue
		}
		rewrite := func(e il.Expr) il.Expr {
			return a.RewriteExpr(e, func(x il.Expr) il.Expr {
				b, isBin := x.(*il.Bin)
				if !isBin || !invariant(b) || size(b) < 3 {
					return x
				}
				key := b.String()
				id, have := temps[key]
				if !have {
					id = p.NewTemp(b.T)
					temps[key] = id
					pre = append(pre, a.Assign(il.Assign{Dst: a.VarRef(id, b.T), Src: b}))
					st.HoistedExprs++
				}
				changed = true
				return a.VarRef(id, b.T)
			})
		}
		if l, isStore := as.Dst.(*il.Load); isStore {
			as.Dst = a.Load(rewrite(l.Addr), l.T, l.Volatile)
		}
		as.Src = rewrite(as.Src)
	}
	return pre, changed
}

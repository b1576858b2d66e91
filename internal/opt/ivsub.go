package opt

import (
	"slices"
	"strconv"

	"repro/internal/ctype"
	"repro/internal/diag"
	"repro/internal/il"
)

// ivsubProc performs §5.3's induction-variable substitution on every DO
// loop, innermost first: auxiliary induction variables (variables advanced
// by a loop-invariant amount each iteration, including the pointer-bump
// temps the front end emits for *a++) are rewritten into closed form over
// the loop's iteration count, and pure assignments are
// forward-substituted into later statements with the paper's
// blocking/backtracking bookkeeping — a statement rejected only because a
// later statement redefines one of its operands is re-examined when the
// blocker is itself rewritten. Returns the number of rewrites performed.
//
// full == false is the A2 ablation: recurrence detection does not resolve
// through the front end's temp copies and only one substitution pass runs,
// which is the "straightforward technique" §5.3 says cannot handle the
// translated *a++ loop.
func ivsubProc(p *il.Proc, full bool, em *emitter) int {
	changed := 0
	p.Body = il.RewriteStmts(p.Body, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		loop, ok := s.(*il.DoLoop)
		if !ok {
			return nil, false
		}
		if pre := ivsubLoop(p, loop, full, &changed, em); len(pre) > 0 {
			return append(pre, s), true // preheader statements go before the loop
		}
		return nil, false
	})
	return p.Changed(changed)
}

// ivLimit bounds the substitution passes: n passes worst case (§5.3).
func ivLimit(body []il.Stmt) int { return len(body) + 2 }

// ivsubLoop rewrites one DO loop, returning preheader statements to place
// before it. Preheader statements inherit the loop's source position so
// later diagnostics on them never print a zero position.
func ivsubLoop(p *il.Proc, loop *il.DoLoop, full bool, changed *int, em *emitter) []il.Stmt {
	var pre []il.Stmt
	passes := ivLimit(loop.Body)
	if !full {
		passes = 1
	}
	loopTotal := 0
	for pass := 0; pass < passes; pass++ {
		n := 0
		pre = append(pre, closedFormPass(p, loop, full, &n, em)...)
		n += forwardSubstPass(p, loop, !full, em)
		*changed += n
		loopTotal += n
		if n == 0 {
			break
		}
	}
	il.StampStmts(pre, loop.Pos)
	if loopTotal > 0 {
		em.remark(diag.IVSubstituted, "ivsub", loop.Pos,
			map[string]string{"rewrites": strconv.Itoa(loopTotal)},
			"auxiliary induction variables rewritten into closed form over the loop index (§5.3)")
	}
	return pre
}

// kExpr returns the loop's iteration-index expression (0, 1, 2, ...) and
// any preheader statements needed to snapshot a varying Init.
func kExpr(p *il.Proc, loop *il.DoLoop) (il.Expr, []il.Stmt) {
	ar := p.Arena()
	stepC, _ := il.IsIntConst(loop.Step)
	ivRef := ar.VarRef(loop.IV, ctype.IntType)
	var pre []il.Stmt

	init := loop.Init
	if !exprInvariantInBody(p, loop.Body, init) {
		// Init is evaluated once at entry; snapshot it so the closed forms
		// can refer to it even though the body changes its variables.
		t := p.NewTemp(ctype.IntType)
		pre = append(pre, ar.Assign(il.Assign{Dst: ar.VarRef(t, ctype.IntType), Src: init}))
		loop.Init = ar.VarRef(t, ctype.IntType)
		init = loop.Init
	}
	switch stepC {
	case 1:
		return ar.Sub(ivRef, init, ctype.IntType), pre
	case -1:
		return ar.Sub(init, ivRef, ctype.IntType), pre
	default:
		diff := ar.Sub(ivRef, init, ctype.IntType)
		return ar.NewBin(il.OpDiv, diff, loop.Step, ctype.IntType), pre
	}
}

// exprInvariantInBody reports whether no variable of e is defined in body.
func exprInvariantInBody(p *il.Proc, body []il.Stmt, e il.Expr) bool {
	defined := bodyDefinedVars(p, body)
	inv := true
	il.WalkExpr(e, func(x il.Expr) bool {
		if v, ok := x.(*il.VarRef); ok {
			if defined[v.ID] || p.Vars[v.ID].IsVolatile() {
				inv = false
			}
		}
		return inv
	})
	return inv
}

// bodyDefinedVars returns every variable possibly defined in body
// (explicit defs plus clobbers by stores and calls).
func bodyDefinedVars(p *il.Proc, body []il.Stmt) map[il.VarID]bool {
	defined := map[il.VarID]bool{}
	clobber := func() {
		for i := range p.Vars {
			v := &p.Vars[i]
			if v.Escapes() {
				defined[il.VarID(i)] = true
			}
		}
	}
	il.WalkStmts(body, func(s il.Stmt) bool {
		if dv := il.DefinedVar(s); dv != il.NoVar {
			defined[dv] = true
		}
		if il.IsStore(s) {
			clobber()
		}
		switch n := s.(type) {
		case *il.Call:
			clobber()
		case *il.DoLoop:
			defined[n.IV] = true
		case *il.DoParallel:
			defined[n.IV] = true
		}
		return true
	})
	return defined
}

// variantOperand names the operand that makes step differ from one
// iteration to the next whatever the body does — the DO index, or a load
// — or returns "".
func variantOperand(loop *il.DoLoop, step il.Expr) string {
	if il.UsesVar(step, loop.IV) {
		return "the loop index"
	}
	if !il.LoadFree(step) {
		return "memory"
	}
	return ""
}

// basicIV is a detected auxiliary induction variable.
type basicIV struct {
	v      il.VarID
	step   il.Expr // loop-invariant per-iteration increment
	update int     // top-level index of the (single) updating statement
}

// detectBasicIVs finds variables with a single top-level update whose net
// per-iteration effect is v += step. When resolveCopies is set, the
// recurrence is resolved through the body's temp copies by symbolic
// execution (the §5.3 requirement for front-end-generated code).
func detectBasicIVs(p *il.Proc, loop *il.DoLoop, resolveCopies bool, em *emitter) []basicIV {
	// One pass of symbolic execution over the top-level statements.
	ar := p.Arena()
	env := newSymEnv(ar)
	ok := true
	for _, s := range loop.Body {
		if !env.exec(p, s) {
			ok = false
			break
		}
	}
	if !ok {
		return nil
	}

	// Count updates per variable and record the top-level index.
	updateIdx := map[il.VarID][]int{}
	for i, s := range loop.Body {
		if as, ok := s.(*il.Assign); ok {
			if dst, ok := as.Dst.(*il.VarRef); ok {
				updateIdx[dst.ID] = append(updateIdx[dst.ID], i)
			}
		}
	}
	// Nested defs disqualify.
	nestedDefs := map[il.VarID]bool{}
	for _, s := range loop.Body {
		switch s.(type) {
		case *il.Assign:
		default:
			il.WalkStmts([]il.Stmt{s}, func(sub il.Stmt) bool {
				if dv := il.DefinedVar(sub); dv != il.NoVar {
					nestedDefs[dv] = true
				}
				return true
			})
		}
	}

	// Deterministic order: iterate candidates by variable id, not map
	// order (temp names and golden output depend on it).
	var cands []il.VarID
	for vid := range updateIdx {
		cands = append(cands, vid)
	}
	slices.Sort(cands)

	var out []basicIV
	for _, vid := range cands {
		idxs := updateIdx[vid]
		if len(idxs) != 1 || nestedDefs[vid] || vid == loop.IV {
			continue
		}
		v := &p.Vars[vid]
		if v.Escapes() || v.IsVolatile() {
			continue
		}
		if !v.Type.IsInteger() && v.Type.Kind != ctype.Pointer {
			continue
		}
		var next il.Expr
		if resolveCopies {
			var has bool
			next, has = env.vals[vid]
			if !has {
				continue
			}
		} else {
			// Straightforward technique: the update must literally read
			// v = v ± c.
			as := loop.Body[idxs[0]].(*il.Assign)
			next = as.Src
		}
		step, ok := matchRecurrence(ar, next, vid)
		if !ok {
			continue
		}
		// v becomes v.0 + step·k only when every iteration adds the same
		// step. A step that reads the DO index or memory never is — the
		// header, not the body, defines the index, and a body store may
		// alias any load — so say so; one whose operand the body redefines
		// may still become invariant once forward substitution has
		// rewritten the redefinition (§5.3), and is retried silently.
		if variant := variantOperand(loop, step); variant != "" {
			em.remark(diag.IVBlocked, "ivsub", il.StmtPos(loop.Body[idxs[0]]),
				map[string]string{"var": v.Name, "operand": variant},
				"closed form of %s blocked: its step reads %s, which changes between iterations (§5.3)", v.Name, variant)
			continue
		}
		if !exprInvariantInBody(p, loop.Body, step) {
			continue
		}
		out = append(out, basicIV{v: vid, step: step, update: idxs[0]})
	}
	return out
}

// closedFormPass replaces uses of each auxiliary IV with its closed form
// v0 + step*k (before the update) or v0 + step*(k+1) (after), where v0
// snapshots the variable at loop entry. Returns preheader statements.
//
// When the DO step s is a constant other than ±1, k is (iv − init)/s. A
// constant step that is a multiple m·s skips the division: step·k is
// exactly m·(iv − init), because s divides iv − init. So the IV of
// for (i = 0; i < n; i += 4) becomes i.0 + i.do, affine in the index, and
// not i.0 + 4·(i.do/4), which no dependence test sees through.
func closedFormPass(p *il.Proc, loop *il.DoLoop, resolveCopies bool, changed *int, em *emitter) []il.Stmt {
	ivs := detectBasicIVs(p, loop, resolveCopies, em)
	if len(ivs) == 0 {
		return nil
	}
	ar := p.Arena()
	k, pre := kExpr(p, loop)
	s, sConst := il.IsIntConst(loop.Step)

	for _, biv := range ivs {
		t := p.Vars[biv.v].Type
		v0 := p.AddVar(il.Var{Name: p.Vars[biv.v].Name + ".0", Type: t, Class: il.ClassTemp})
		pre = append(pre, ar.Assign(il.Assign{Dst: ar.VarRef(v0, t), Src: ar.VarRef(biv.v, t)}))

		c, constStep := il.IsIntConst(biv.step)
		multiple := constStep && sConst && (s > 1 || s < -1) && c%s == 0
		valueAt := func(afterUpdate bool) il.Expr {
			if multiple {
				diff := ar.Sub(ar.VarRef(loop.IV, ctype.IntType), loop.Init, ctype.IntType)
				v := ar.Add(ar.VarRef(v0, t), ar.Mul(ar.Int(c/s), diff, ctype.IntType), t)
				if afterUpdate {
					v = ar.Add(v, ar.Int(c), t)
				}
				return v
			}
			occ := k
			if afterUpdate {
				occ = ar.Add(occ, ar.Int(1), ctype.IntType)
			}
			return ar.Add(ar.VarRef(v0, t), ar.Mul(biv.step, occ, ctype.IntType), t)
		}

		for i, s := range loop.Body {
			after := i > biv.update
			if i == biv.update {
				// The update's RHS reads the before-update value; its
				// destination stays v so the variable remains correct for
				// any use after the loop.
				as := s.(*il.Assign)
				as.Src = ar.RewriteExpr(as.Src, func(x il.Expr) il.Expr {
					if vr, ok := x.(*il.VarRef); ok && vr.ID == biv.v {
						*changed++
						return valueAt(false)
					}
					return x
				})
				continue
			}
			ar.RewriteTreeExprs(s, func(x il.Expr) il.Expr {
				if vr, ok := x.(*il.VarRef); ok && vr.ID == biv.v {
					*changed++
					return valueAt(after)
				}
				return x
			})
		}
	}
	return pre
}

// forwardSubstPass forward-substitutes pure single-def assignments into
// later statements of the loop body, with the blocking bookkeeping of
// §5.3: when a substitution stops because statement B redefines one of the
// source's operands, the candidate is recorded as blocked by B; whenever a
// pass changes B (or deletes it), the blocked candidates are re-examined
// on the next pass. In strict mode (the "straightforward" A2 ablation) a
// blocking statement stops substitution before its own uses are rewritten,
// so the front end's pointer-bump pattern never resolves. Returns the
// number of substitutions.
func forwardSubstPass(p *il.Proc, loop *il.DoLoop, strict bool, em *emitter) int {
	ar := p.Arena()
	changed := 0
	body := loop.Body

	// Count defs per var at top level; vars with nested or multiple defs
	// are not candidates.
	defCount := map[il.VarID]int{}
	il.WalkStmts(body, func(s il.Stmt) bool {
		if dv := il.DefinedVar(s); dv != il.NoVar {
			defCount[dv]++
		}
		return true
	})

	for i, s := range body {
		as, ok := s.(*il.Assign)
		if !ok {
			continue
		}
		dst, ok := as.Dst.(*il.VarRef)
		if !ok || defCount[dst.ID] != 1 || dst.ID == loop.IV {
			continue
		}
		v := &p.Vars[dst.ID]
		if v.Escapes() || v.IsVolatile() {
			continue
		}
		if !il.LoadFree(as.Src) || il.UsesVar(as.Src, dst.ID) {
			continue
		}
		// Operand variables of the source.
		var operands []il.VarID
		il.WalkExpr(as.Src, func(x il.Expr) bool {
			if vr, ok := x.(*il.VarRef); ok {
				operands = append(operands, vr.ID)
			}
			return true
		})

		// Scan forward, substituting until an operand is redefined.
		for j := i + 1; j < len(body); j++ {
			t := body[j]
			redefines := stmtMayDefine(p, t, operands)
			_, plain := t.(*il.Assign)
			if redefines && (strict || !plain) {
				// A structured statement that redefines an operand may
				// interleave the redefinition with uses of x; do not
				// substitute into it at all.
				em.remark(diag.IVBlocked, "ivsub", il.StmtPos(s),
					map[string]string{"var": v.Name, "blocker": t.String()},
					"forward substitution of %s blocked: a later statement redefines an operand (§5.3)", v.Name)
				break
			}
			ar.RewriteTreeExprs(t, func(x il.Expr) il.Expr {
				if vr, ok := x.(*il.VarRef); ok && vr.ID == dst.ID {
					changed++
					return as.Src
				}
				return x
			})
			if redefines {
				// Blocked by t; §5.3's backtracking re-examines this
				// candidate on the next pass, after t has been rewritten.
				em.remark(diag.IVBlocked, "ivsub", il.StmtPos(s),
					map[string]string{"var": v.Name, "blocker": t.String()},
					"forward substitution of %s stopped at a redefining statement; will backtrack once the blocker is rewritten (§5.3)", v.Name)
				break
			}
		}
	}
	return changed
}

// stmtMayDefine reports whether s (including nested statements) may define
// any of the given variables.
func stmtMayDefine(p *il.Proc, s il.Stmt, vars []il.VarID) bool {
	defined := bodyDefinedVars(p, []il.Stmt{s})
	for _, v := range vars {
		if defined[v] {
			return true
		}
	}
	return false
}

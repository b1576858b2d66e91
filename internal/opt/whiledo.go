// Package opt implements the Titan compiler's scalar optimizations in the
// paper's order: while→DO conversion immediately after use-def chains are
// built (§5.2), constant propagation with the unreachable-code heuristic
// (§8), induction-variable substitution with blocking/backtracking (§5.3),
// forward/copy propagation, and dead-code elimination.
package opt

import (
	"slices"

	"repro/internal/analysis"
	"repro/internal/ctype"
	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/il"
)

// convertWhileLoops converts while loops that are "DO loops cast in a
// different guise" (§5.2) into Fortran-style DoLoops. Returns the number of
// loops converted.
//
// A while loop converts when:
//   - no branch enters the loop body from outside (checked on the CFG);
//   - the condition compares a control variable i against a loop-invariant
//     bound (or is plain `i` with a downward step);
//   - i has exactly one definition inside the body, at the top level,
//     whose effect (resolved through single-use in-body copies, which is
//     how the front end emits i-- and i = i - s) is i ± c for a
//     loop-invariant c whose sign matches the condition's direction.
//
// Following the paper's own output, the body is left untouched — a fresh
// dummy variable counts the iterations, and the original updates to i stay
// in place for induction-variable substitution and dead-code elimination
// to clean up. Each conversion is reported as a whiledo-converted remark
// at the while loop's source position. A nil cache analyzes directly.
func convertWhileLoops(p *il.Proc, ac *analysis.Cache, em *emitter) int {
	// Converting a loop invalidates the analysis for enclosing loops, so
	// the conversion iterates — each sweep converts the loops whose
	// analysis is still exact (innermost first). Between sweeps the §5.2
	// incremental-reconstruction obligation is discharged by splicing each
	// new DO node into the existing chains (SpliceWhileConversion) instead
	// of re-solving from scratch; the spliced analysis answers the
	// conversion queries exactly as a rebuilt one would. p.Changed moved
	// the shape before the splice, so the cache already holds it stale:
	// the next query re-solves into its storage. a is used only until
	// then — it is set to nil before this loop queries again.
	total := 0
	var a *dataflow.Analysis
	for {
		if a == nil {
			var err error
			a, err = ac.Dataflow(p)
			if err != nil {
				return total
			}
		}
		n := 0
		var convs []conversion
		p.Body = convertList(p, a, p.Body, &n, &convs, em)
		total += n
		p.Changed(n)
		if n == 0 {
			return total
		}
		for _, c := range convs {
			if !a.SpliceWhileConversion(c.w, c.d) {
				a = nil // fall back to a full re-solve
				break
			}
		}
	}
}

// conversion records one while→DO rewrite of a sweep, for the between-
// sweep §5.2 chain splice.
type conversion struct {
	w *il.While
	d *il.DoLoop
}

// convertList is one sweep: every while loop of the tree that tryConvert
// accepts, innermost first, is replaced by its DO loop.
func convertList(p *il.Proc, a *dataflow.Analysis, list []il.Stmt, n *int, convs *[]conversion, em *emitter) []il.Stmt {
	return il.RewriteStmts(list, nil, func(s il.Stmt, prev []il.Stmt) ([]il.Stmt, bool) {
		w, ok := s.(*il.While)
		if !ok {
			return nil, false
		}
		d := tryConvert(p, a, w, prev)
		if d == nil {
			return nil, false
		}
		*n++
		*convs = append(*convs, conversion{w, d})
		em.remark(diag.WhileConverted, "while-to-do", w.Pos, nil,
			"while loop proven countable and converted to a DO loop")
		return []il.Stmt{d}, true
	})
}

// tryConvert returns the DoLoop replacing w, or nil. prev holds the
// statements preceding w in its parent list (the front end places the
// condition's statement list there, duplicated at the body bottom — §4).
func tryConvert(p *il.Proc, a *dataflow.Analysis, w *il.While, prev []il.Stmt) *il.DoLoop {
	// Bodies containing labels can be targets of branches into the loop;
	// check precisely on the CFG (§5.2 requirement 1).
	bodySet := map[il.Stmt]bool{}
	il.WalkStmts(w.Body, func(s il.Stmt) bool { bodySet[s] = true; return true })
	head, ok := a.Graph.NodeOf[w]
	if !ok || a.Graph.EntersBody(head, bodySet) {
		return nil
	}
	// A return/goto out of the body gives the loop multiple exits.
	irregular := false
	il.WalkStmts(w.Body, func(s il.Stmt) bool {
		switch g := s.(type) {
		case *il.Return:
			irregular = true
		case *il.Goto:
			// A goto to a label inside the body is a harmless internal
			// jump only if the label is in the body; otherwise it exits.
			target := findLabel(w.Body, g.Target)
			if !target {
				irregular = true
			}
		}
		return true
	})
	if irregular {
		return nil
	}

	// Identify the control variable and relation from the condition. Both
	// operands of a comparison are candidates (n > i controls on i).
	for _, cand := range condShapes(p, w.Cond) {
		if d := tryCandidate(p, a, w, prev, bodySet, cand); d != nil {
			return d
		}
	}
	return nil
}

// condCand is one reading of the loop condition.
type condCand struct {
	iv    il.VarID
	rel   relKind
	bound il.Expr
}

func tryCandidate(p *il.Proc, a *dataflow.Analysis, w *il.While, prev []il.Stmt, bodySet map[il.Stmt]bool, cand condCand) *il.DoLoop {
	iv, rel, bound := cand.iv, cand.rel, cand.bound
	v := p.Var(iv)
	if v.Escapes() || v.IsVolatile() {
		return nil
	}
	// Bound must be loop-invariant (§5.2 requirement 2, via use-def).
	if bound != nil && !invariantIn(p, a, bound, bodySet) {
		return nil
	}

	// The control variable must be updated exactly once per iteration: all
	// its in-body definitions must be unambiguous top-level assignments.
	defs := a.DefsInside(iv, bodySet)
	if len(defs) == 0 {
		return nil
	}
	for _, d := range defs {
		as, ok := d.Node.Stmt.(*il.Assign)
		if d.Ambiguous || !ok || !topLevel(w.Body, as) {
			return nil
		}
	}
	// Resolve the per-iteration recurrence of iv by symbolic execution of
	// the body (which sees through the front end's `temp = i; i = temp-s`
	// form and through the duplicated condition statement list).
	step, ok := bodyRecurrence(p, w.Body, prev, iv)
	if !ok || !invariantIn(p, a, step, bodySet) {
		return nil
	}

	// Direction: we need the sign of the step. Constant steps give it
	// exactly; otherwise conversion is unsafe (§5.2's "variation of bounds
	// and strides").
	stepC, isConst := il.IsIntConst(step)
	if !isConst || stepC == 0 {
		return nil
	}

	ar := p.Arena()
	t := v.Type
	ivRef := ar.VarRef(iv, t)
	var limit il.Expr
	switch rel {
	case relNonZero:
		// while (i) with downward step: DO dummy = i, 1, -s (§5.2 example).
		if stepC >= 0 {
			return nil
		}
		limit = ar.Int(1)
	case relLT: // i < bound
		if stepC <= 0 {
			return nil
		}
		limit = ar.Sub(bound, ar.Int(1), t)
	case relLE:
		if stepC <= 0 {
			return nil
		}
		limit = bound
	case relGT: // i > bound, counting down
		if stepC >= 0 {
			return nil
		}
		limit = ar.Add(bound, ar.Int(1), t)
	case relGE:
		if stepC >= 0 {
			return nil
		}
		limit = bound
	case relNE:
		// i != bound terminates exactly when the step divides the
		// distance; like the paper's while(i) case we accept the unit
		// steps that C loops produce in practice.
		if stepC == 1 {
			limit = ar.Sub(bound, ar.Int(1), t)
		} else if stepC == -1 {
			limit = ar.Add(bound, ar.Int(1), t)
		} else {
			return nil
		}
	default:
		return nil
	}

	dummy := p.AddVar(il.Var{Name: p.Vars[iv].Name + ".do", Type: ctype.IntType, Class: il.ClassTemp})
	return ar.DoLoop(il.DoLoop{
		IV:    dummy,
		Init:  ivRef,
		Limit: limit,
		Step:  ar.Int(stepC),
		Body:  w.Body,
		Safe:  w.Safe,
		Pos:   w.Pos,
	})
}

type relKind int

const (
	relNone relKind = iota
	relNonZero
	relLT
	relLE
	relGT
	relGE
	relNE
)

// condShapes matches the while condition against the supported forms,
// returning every candidate (control variable, relation, bound) reading.
// The bound is nil for plain `i`.
func condShapes(p *il.Proc, cond il.Expr) []condCand {
	var out []condCand
	switch c := cond.(type) {
	case *il.VarRef:
		if c.Type() != nil && c.Type().IsInteger() {
			out = append(out, condCand{c.ID, relNonZero, nil})
		}
	case *il.Bin:
		if v, ok := c.L.(*il.VarRef); ok && il.LoadFree(c.R) {
			switch c.Op {
			case il.OpLt:
				out = append(out, condCand{v.ID, relLT, c.R})
			case il.OpLe:
				out = append(out, condCand{v.ID, relLE, c.R})
			case il.OpGt:
				out = append(out, condCand{v.ID, relGT, c.R})
			case il.OpGe:
				out = append(out, condCand{v.ID, relGE, c.R})
			case il.OpNe:
				if il.IsZero(c.R) {
					out = append(out, condCand{v.ID, relNonZero, nil})
				} else {
					out = append(out, condCand{v.ID, relNE, c.R})
				}
			}
		}
		// Mirrored: bound REL i.
		if v, ok := c.R.(*il.VarRef); ok && il.LoadFree(c.L) {
			switch c.Op {
			case il.OpGt: // bound > i  ≡  i < bound
				out = append(out, condCand{v.ID, relLT, c.L})
			case il.OpGe:
				out = append(out, condCand{v.ID, relLE, c.L})
			case il.OpLt:
				out = append(out, condCand{v.ID, relGT, c.L})
			case il.OpLe:
				out = append(out, condCand{v.ID, relGE, c.L})
			case il.OpNe:
				if il.IsZero(c.L) {
					out = append(out, condCand{v.ID, relNonZero, nil})
				} else {
					out = append(out, condCand{v.ID, relNE, c.L})
				}
			}
		}
	}
	return out
}

// invariantIn reports whether no variable used by e is defined inside the
// loop body.
func invariantIn(p *il.Proc, a *dataflow.Analysis, e il.Expr, bodySet map[il.Stmt]bool) bool {
	inv := true
	il.WalkExpr(e, func(x il.Expr) bool {
		if v, ok := x.(*il.VarRef); ok {
			if len(a.DefsInside(v.ID, bodySet)) > 0 {
				inv = false
			}
			if p.Vars[v.ID].IsVolatile() {
				inv = false
			}
		}
		return inv
	})
	return inv
}

// topLevel reports whether s is a direct element of list.
func topLevel(list []il.Stmt, s il.Stmt) bool {
	for _, t := range list {
		if t == s {
			return true
		}
	}
	return false
}

// findLabel reports whether a label named name occurs in list (recursively).
func findLabel(list []il.Stmt, name string) bool {
	found := false
	il.WalkStmts(list, func(s il.Stmt) bool {
		if l, ok := s.(*il.Label); ok && l.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// symEnv is a symbolic environment mapping variables to expressions over
// the values the variables held at the environment's start point.
type symEnv struct {
	ar      *il.Arena // of the procedure being executed
	vals    map[il.VarID]il.Expr
	unknown map[il.VarID]bool
}

func newSymEnv(ar *il.Arena) *symEnv {
	return &symEnv{ar: ar, vals: map[il.VarID]il.Expr{}, unknown: map[il.VarID]bool{}}
}

const symEnvMaxNodes = 64

// subst rewrites e replacing each variable by its symbolic value; returns
// false when the result involves an unknown or grows too large.
func (se *symEnv) subst(e il.Expr) (il.Expr, bool) {
	bad := false
	nodes := 0
	out := se.ar.RewriteExpr(e, func(x il.Expr) il.Expr {
		nodes++
		if v, ok := x.(*il.VarRef); ok {
			if se.unknown[v.ID] {
				bad = true
				return x
			}
			if val, ok := se.vals[v.ID]; ok {
				return val
			}
		}
		return x
	})
	if bad || nodes > symEnvMaxNodes {
		return nil, false
	}
	return out, true
}

// exec symbolically executes one top-level statement. Statements with
// effects we cannot model set the affected variables to unknown.
func (se *symEnv) exec(p *il.Proc, s il.Stmt) bool {
	poison := func(v il.VarID) {
		delete(se.vals, v)
		se.unknown[v] = true
	}
	poisonMemory := func() {
		for i := range p.Vars {
			v := &p.Vars[i]
			if v.Escapes() {
				poison(il.VarID(i))
			}
		}
	}
	switch n := s.(type) {
	case *il.Assign:
		if dst, ok := n.Dst.(*il.VarRef); ok {
			if !il.LoadFree(n.Src) {
				poison(dst.ID)
				return true
			}
			val, ok := se.subst(n.Src)
			if !ok {
				poison(dst.ID)
				return true
			}
			se.vals[dst.ID] = val
			delete(se.unknown, dst.ID)
			return true
		}
		poisonMemory()
		return true
	case *il.VectorAssign:
		poisonMemory()
		return true
	case *il.Call:
		if n.Dst != il.NoVar {
			poison(n.Dst)
		}
		poisonMemory()
		return true
	case *il.If, *il.While, *il.DoLoop, *il.DoParallel:
		// Poison everything a nested region might define.
		il.WalkStmts([]il.Stmt{s}, func(sub il.Stmt) bool {
			if dv := il.DefinedVar(sub); dv != il.NoVar {
				poison(dv)
			}
			if il.IsStore(sub) {
				poisonMemory()
			}
			if _, ok := sub.(*il.Call); ok {
				poisonMemory()
			}
			switch l := sub.(type) {
			case *il.DoLoop:
				poison(l.IV)
			case *il.DoParallel:
				poison(l.IV)
			}
			return true
		})
		return true
	case *il.Label, *il.Goto, *il.Return:
		// Control transfers break straight-line symbolic execution.
		return false
	}
	return false
}

// bodyRecurrence computes the per-iteration recurrence of iv: the symbolic
// value of iv after one execution of the body, expressed as iv + step.
// It uses the duplicated condition statement list (the common suffix of
// prev and body, §4) to recover head-invariant relations such as
// "n == t-1 at the loop head" that arise from while(n--)-style loops.
func bodyRecurrence(p *il.Proc, body, prev []il.Stmt, iv il.VarID) (il.Expr, bool) {
	ar := p.Arena()
	env := newSymEnv(ar)
	for _, s := range body {
		if !env.exec(p, s) {
			return nil, false
		}
	}
	next, ok := env.vals[iv]
	if !ok {
		return nil, false
	}
	// Apply head facts derived from the duplicated suffix until the
	// expression mentions iv or stops changing.
	facts := headFacts(p, body, prev)
	for i := 0; i < 4 && !il.UsesVar(next, iv); i++ {
		changed := false
		next = ar.RewriteExpr(next, func(x il.Expr) il.Expr {
			if v, ok := x.(*il.VarRef); ok {
				if f, ok := facts[v.ID]; ok {
					changed = true
					return f
				}
			}
			return x
		})
		if !changed {
			break
		}
	}

	return matchRecurrence(ar, next, iv)
}

// matchRecurrence matches e against iv + c / c + iv / iv - c.
func matchRecurrence(ar *il.Arena, e il.Expr, iv il.VarID) (il.Expr, bool) {
	b, ok := e.(*il.Bin)
	if !ok {
		return nil, false
	}
	if v, ok := b.L.(*il.VarRef); ok && v.ID == iv && !il.UsesVar(b.R, iv) {
		switch b.Op {
		case il.OpAdd:
			return b.R, true
		case il.OpSub:
			return ar.NewUn(il.OpNeg, b.R, b.R.Type()), true
		}
	}
	if v, ok := b.R.(*il.VarRef); ok && v.ID == iv && b.Op == il.OpAdd && !il.UsesVar(b.L, iv) {
		return b.L, true
	}
	return nil, false
}

// headFacts derives equalities that hold at the loop head from the
// condition statement list that the front end emits both before the loop
// and at the bottom of the body. For the §4 pattern [t = n; n = t-1] it
// yields n → t-1 (the value of n at the head, in terms of head values).
func headFacts(p *il.Proc, body, prev []il.Stmt) map[il.VarID]il.Expr {
	k := commonSuffix(body, prev)
	if k == 0 {
		return nil
	}
	suffix := body[len(body)-k:]
	ar := p.Arena()
	env := newSymEnv(ar)
	for _, s := range suffix {
		if !env.exec(p, s) {
			return nil
		}
	}
	// Variables whose symbolic value is a plain pre-suffix variable give a
	// renaming: pre-value(y) = head-value(x). Iterate in id order so that
	// when several head variables rename the same pre-value, the choice is
	// deterministic.
	var keys []il.VarID
	for x := range env.vals {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	rename := map[il.VarID]il.Expr{}
	for _, x := range keys {
		if y, ok := env.vals[x].(*il.VarRef); ok {
			if _, exists := rename[y.ID]; !exists {
				rename[y.ID] = ar.VarRef(x, y.T)
			}
		}
	}
	if len(rename) == 0 {
		return nil
	}
	facts := map[il.VarID]il.Expr{}
	for _, x := range keys {
		val := env.vals[x]
		if _, isPlain := val.(*il.VarRef); isPlain {
			continue
		}
		ok := true
		f := ar.RewriteExpr(val, func(e il.Expr) il.Expr {
			v, isVar := e.(*il.VarRef)
			if !isVar {
				return e
			}
			// Every VarRef in val denotes the variable's pre-suffix value.
			if r, has := rename[v.ID]; has {
				return r
			}
			if _, defined := env.vals[v.ID]; defined {
				// Redefined by the suffix with no renaming: the pre-value
				// is not expressible in head terms.
				ok = false
			}
			return e
		})
		if ok {
			facts[x] = f
		}
	}
	return facts
}

// commonSuffix returns the length of the longest common structurally-equal
// suffix of a and b (capped).
func commonSuffix(a, b []il.Stmt) int {
	max := len(a)
	if len(b) < max {
		max = len(b)
	}
	if max > 8 {
		max = 8
	}
	k := 0
	for k < max {
		sa := a[len(a)-1-k]
		sb := b[len(b)-1-k]
		if !stmtEqual(sa, sb) {
			break
		}
		k++
	}
	return k
}

// stmtEqual compares simple assignments structurally.
func stmtEqual(a, b il.Stmt) bool {
	x, ok1 := a.(*il.Assign)
	y, ok2 := b.(*il.Assign)
	if !ok1 || !ok2 {
		return false
	}
	return il.ExprEqual(x.Dst, y.Dst) && il.ExprEqual(x.Src, y.Src)
}

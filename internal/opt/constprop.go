package opt

import (
	"repro/internal/analysis"
	"repro/internal/ctype"
	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/token"
)

// propagateConstants performs constant propagation off the use-def graph,
// combined with the unreachable-code elimination of §8: when an if
// condition simplifies to a constant, the untaken branch is deleted, and
// the constant assignments whose definitions were blocked by the deleted
// code get another round of propagation (here, by iterating to a fixpoint,
// which subsumes the paper's re-queueing heuristic).
//
// §8's deletions surface as const-unreachable-delete remarks. A nil cache
// re-solves every round. It returns the number of rewrites performed.
func propagateConstants(p *il.Proc, ac *analysis.Cache, em *emitter) int {
	total := 0
	for {
		n := propagateOnce(p, ac, em)
		total += n
		if n == 0 {
			return total
		}
	}
}

func propagateOnce(p *il.Proc, ac *analysis.Cache, em *emitter) int {
	a, err := ac.Dataflow(p)
	if err != nil {
		return 0
	}
	ar := p.Arena()

	// Substitute uses whose every reaching definition assigns the same
	// constant, and fold expressions bottom-up. RewriteExpr hands f each
	// node after rebuilding it over its rewritten operands, so one walk
	// folds a substituted operand's parents. Folds are not counted toward
	// the propagation fixpoint (they cannot enable further substitutions
	// on their own), but they do rewrite uses, so they must invalidate any
	// cached liveness: foldNode preserves node identity on no-change
	// exactly so real folds are detectable here. Substitutions and folds
	// only replace expressions, so they keep the reaching definitions.
	substs, folds := 0, 0
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		ar.RewriteStmtExprs(s, func(x il.Expr) il.Expr {
			if v, ok := x.(*il.VarRef); ok {
				if c := constValueAt(p, a, s, v.ID); c != nil {
					substs++
					return c
				}
			}
			f := foldNode(ar, x)
			if f != x {
				folds++
			}
			return f
		})
		return true
	})
	p.Rewrote(substs + folds)

	// Simplify control flow on constant conditions (§8), then remove code
	// made unreachable by unconditional transfers (§8's vectorizer
	// postpass). Both delete statements.
	deleted := 0
	p.Body = simplifyControl(p, p.Body, &deleted, em)
	deleted += postpassUnreachable(p, em)
	return substs + p.Changed(deleted)
}

// constValueAt returns the constant value of v at statement s if every
// reaching definition is an unambiguous assignment of that same constant.
func constValueAt(p *il.Proc, a *dataflow.Analysis, s il.Stmt, v il.VarID) il.Expr {
	if p.Vars[v].IsVolatile() {
		return nil
	}
	var val il.Expr
	bad := false
	a.ForEachReachingDef(s, v, func(d *dataflow.Def) {
		if bad {
			return
		}
		if d.Ambiguous || d.Node.Stmt == nil {
			bad = true
			return
		}
		as, ok := d.Node.Stmt.(*il.Assign)
		if !ok {
			bad = true
			return
		}
		switch as.Src.(type) {
		case *il.ConstInt, *il.ConstFloat:
		default:
			bad = true
			return
		}
		if val == nil {
			val = as.Src
		} else if !il.ExprEqual(val, as.Src) {
			bad = true
		}
	})
	if bad || val == nil {
		return nil
	}
	return val
}

// foldNode rebuilds one expression node through the folding constructors,
// adding the float-comparison folding NewBin leaves alone. Rebuilt nodes
// come from ar; the constructors are only invoked when a fold or identity
// actually applies, so the nothing-to-fold path allocates nothing.
func foldNode(ar *il.Arena, e il.Expr) il.Expr {
	switch n := e.(type) {
	case *il.Bin:
		if n.Op.IsComparison() {
			if lf, ok := n.L.(*il.ConstFloat); ok {
				if rf, ok := n.R.(*il.ConstFloat); ok {
					if v, ok := il.FoldCompareFloat(n.Op, lf.Val, rf.Val); ok {
						return ar.ConstInt(v, ctype.IntType)
					}
				}
			}
		}
		// Keep the original node when nothing folds, so callers can detect
		// real rewrites by identity (SimplifyLinear already returns its
		// argument when nothing combines).
		var folded il.Expr = n
		if il.BinFoldable(n.Op, n.L, n.R, n.T) {
			folded = ar.NewBin(n.Op, n.L, n.R, n.T)
		}
		if b, stillBin := folded.(*il.Bin); stillBin {
			if b.Op == il.OpAdd || b.Op == il.OpSub {
				return ar.SimplifyLinear(folded)
			}
		}
		return folded
	case *il.Un:
		switch n.X.(type) {
		case *il.ConstInt, *il.ConstFloat:
			folded := ar.NewUn(n.Op, n.X, n.T)
			if u, still := folded.(*il.Un); still && u.Op == n.Op && u.X == n.X {
				return n
			}
			return folded
		}
		return n
	case *il.Cast:
		xt := n.X.Type()
		elide := xt != nil && xt.Kind == n.T.Kind && xt.Unsigned == n.T.Unsigned
		switch n.X.(type) {
		case *il.ConstInt, *il.ConstFloat:
		default:
			if !elide {
				return n
			}
		}
		folded := ar.NewCast(n.X, n.T)
		if c, still := folded.(*il.Cast); still && c.X == n.X {
			return n
		}
		return folded
	}
	return e
}

// simplifyControl deletes untaken branches of constant ifs and zero-trip
// loops, splicing the surviving statements in place. A zero-trip DO loop
// still leaves its IV at Init, which code after it may read (an unrolled
// loop's remainder starts there), so the assignment takes its place.
func simplifyControl(p *il.Proc, list []il.Stmt, changed *int, em *emitter) []il.Stmt {
	deleted := func(pos token.Pos, why string, keep ...il.Stmt) ([]il.Stmt, bool) {
		*changed++
		em.remark(diag.ConstUnreachableDelete, "constprop", pos, nil, "%s", why)
		return keep, true
	}
	exit := func(iv il.VarID, init il.Expr, pos token.Pos) il.Stmt {
		a := p.Arena()
		return a.Assign(il.Assign{Dst: a.VarRef(iv, p.Vars[iv].Type), Src: init, Pos: pos})
	}
	return il.RewriteStmts(list, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		switch n := s.(type) {
		case *il.If:
			if c, ok := il.IsIntConst(n.Cond); ok {
				*changed++
				kept, arm := "then", n.Then
				if c == 0 {
					kept, arm = "else", n.Else
				}
				em.remark(diag.ConstUnreachableDelete, "constprop", n.Pos,
					map[string]string{"kept": kept},
					"condition is the constant %d; untaken branch deleted (§8)", c)
				return arm, true
			}
			if len(n.Then) == 0 && len(n.Else) == 0 {
				*changed++
				return nil, true
			}
		case *il.While:
			if c, ok := il.IsIntConst(n.Cond); ok && c == 0 {
				return deleted(n.Pos, "while condition is constant zero; loop deleted (§8)")
			}
		case *il.DoLoop:
			if zeroTrip(n.Init, n.Limit, n.Step) {
				return deleted(n.Pos, "DO loop provably executes zero times; deleted (§8)", exit(n.IV, n.Init, n.Pos))
			}
		case *il.DoParallel:
			if zeroTrip(n.Init, n.Limit, n.Step) {
				return deleted(n.Pos, "parallel DO loop provably executes zero times; deleted (§8)", exit(n.IV, n.Init, n.Pos))
			}
		}
		return nil, false
	})
}

// zeroTrip reports whether a DO loop provably executes zero times.
func zeroTrip(init, limit, step il.Expr) bool {
	i, ok1 := il.IsIntConst(init)
	l, ok2 := il.IsIntConst(limit)
	s, ok3 := il.IsIntConst(step)
	if !ok1 || !ok2 || !ok3 || s == 0 {
		return false
	}
	if s > 0 {
		return i > l
	}
	return i < l
}

// postpassUnreachable removes statements that follow an unconditional
// control transfer up to the next label (§8: "code immediately following
// branches that are always taken is difficult to uncover as unreachable
// during constant propagation. The vectorizer has a separate postpass").
// It also deletes gotos that target the immediately following label.
func postpassUnreachable(p *il.Proc, em *emitter) int {
	removed := 0
	// clean removes dead statements; follow is the label that control
	// reaches immediately after the list ends (so trailing `goto follow`
	// statements are no-ops, even from inside an If arm).
	var clean func(list []il.Stmt, follow string) []il.Stmt
	clean = func(list []il.Stmt, follow string) []il.Stmt {
		// Filter in place: the write index never passes the read index
		// (each kept statement is appended at most once per consumed one).
		out := list[:0]
		dead := false
		for i, s := range list {
			if _, isLabel := s.(*il.Label); isLabel {
				dead = false
			}
			if dead {
				removed++
				em.remark(diag.ConstUnreachableDelete, "constprop", il.StmtPos(s), nil,
					"statement after an always-taken transfer is unreachable; deleted (§8 postpass)")
				continue
			}
			// The label control falls to after this statement.
			next := follow
			if i+1 < len(list) {
				if l, ok := list[i+1].(*il.Label); ok {
					next = l.Name
				} else {
					next = ""
				}
			}
			switch n := s.(type) {
			case *il.Goto:
				if n.Target == next {
					removed++
					continue
				}
				out = append(out, s)
				dead = true
				continue
			case *il.Return:
				out = append(out, s)
				dead = true
				continue
			case *il.If:
				n.Then = clean(n.Then, next)
				n.Else = clean(n.Else, next)
			case *il.While:
				n.Body = clean(n.Body, "")
			case *il.DoLoop:
				n.Body = clean(n.Body, "")
			case *il.DoParallel:
				n.Body = clean(n.Body, "")
			}
			out = append(out, s)
		}
		return out
	}
	p.Body = clean(p.Body, "")
	return removed
}

// removeUnusedLabels deletes labels that no goto targets. Run after the
// other passes so label bookkeeping does not block loop conversion.
func removeUnusedLabels(p *il.Proc) int {
	targets := map[string]bool{}
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if g, ok := s.(*il.Goto); ok {
			targets[g.Target] = true
		}
		return true
	})
	removed := 0
	p.Body = il.RewriteStmts(p.Body, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		if l, ok := s.(*il.Label); ok && !targets[l.Name] {
			removed++
			return nil, true
		}
		return nil, false
	})
	return p.Changed(removed)
}

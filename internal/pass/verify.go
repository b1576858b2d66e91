package pass

import (
	"fmt"

	"repro/internal/il"
)

// Verify checks the structural invariants the mid-end phases rely on and
// returns the first violation found, or nil. allowVector says whether the
// vectorizer slot has run: before it, VectorAssign statements and VecRef
// operands are IL corruption (the §5.2/§6 order puts all vector forms
// after vectorization).
//
// Invariants checked, per procedure:
//   - every referenced variable ID (VarRef, AddrOf, call result, loop IV,
//     parameter) indexes the procedure's variable table;
//   - assignment destinations are a scalar VarRef or a Load (store);
//   - calls name a callee or carry a function-pointer expression;
//   - labels are unique and every goto targets a defined label;
//   - DoLoop/DoParallel bounds are pure: no volatile loads (which may not
//     be re-evaluated or reordered) and no vector operands; the body never
//     assigns the induction variable (the while→DO conversion guarantees
//     this and later phases depend on it);
//   - vector forms only appear when allowVector is true.
func Verify(prog *il.Program, allowVector bool) error {
	for _, p := range prog.Procs {
		if err := verifyProc(p, allowVector); err != nil {
			return fmt.Errorf("proc %s: %w", p.Name, err)
		}
	}
	return nil
}

func verifyProc(p *il.Proc, allowVector bool) error {
	for _, id := range p.Params {
		if int(id) < 0 || int(id) >= len(p.Vars) {
			return fmt.Errorf("parameter id v%d out of range (have %d vars)", id, len(p.Vars))
		}
		if p.Vars[id].Class != il.ClassParam {
			return fmt.Errorf("parameter id v%d has class %s", id, p.Vars[id].Class)
		}
	}

	// Pass 1: collect labels (goto may jump forward).
	labels := map[string]bool{}
	var err error
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if l, ok := s.(*il.Label); ok {
			if labels[l.Name] {
				err = firstErr(err, fmt.Errorf("label %s defined twice", l.Name))
			}
			labels[l.Name] = true
		}
		return true
	})
	if err != nil {
		return err
	}

	// Sync markers are only meaningful directly inside a DoParallel that
	// carries a Sync annotation: codegen needs the region's cell registers
	// and induction variable in scope to lower them to post/wait.
	okSync := map[il.Stmt]bool{}
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if dp, ok := s.(*il.DoParallel); ok && dp.Sync != nil {
			for _, b := range dp.Body {
				switch b.(type) {
				case *il.SyncPost, *il.SyncWait:
					okSync[b] = true
				}
			}
		}
		return true
	})

	// Pass 2: statement and expression invariants.
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if err != nil {
			return false
		}
		switch n := s.(type) {
		case *il.Assign:
			switch n.Dst.(type) {
			case *il.VarRef, *il.Load:
			default:
				err = fmt.Errorf("assignment destination %s is neither variable nor store", n.Dst)
				return false
			}
		case *il.PredAssign:
			// Predicated stores are restricted to memory destinations so
			// scalar dataflow never depends on a predicate.
			if _, ok := n.Dst.(*il.Load); !ok {
				err = fmt.Errorf("predicated assignment destination %s is not a store", n.Dst)
				return false
			}
		case *il.Call:
			if n.Dst != il.NoVar && (int(n.Dst) < 0 || int(n.Dst) >= len(p.Vars)) {
				err = fmt.Errorf("call result id v%d out of range in %q", n.Dst, s)
				return false
			}
			if n.Callee == "" && n.FunPtr == nil {
				err = fmt.Errorf("call with neither callee name nor function pointer")
				return false
			}
		case *il.Goto:
			if !labels[n.Target] {
				err = fmt.Errorf("goto %s targets an undefined label", n.Target)
				return false
			}
		case *il.DoLoop:
			err = verifyCountedLoop(p, n.IV, n.Init, n.Limit, n.Step, n.Body, s)
		case *il.DoParallel:
			err = verifyCountedLoop(p, n.IV, n.Init, n.Limit, n.Step, n.Body, s)
			if err == nil && n.Sync != nil {
				if n.Sync.Distance < 1 {
					err = fmt.Errorf("DOACROSS loop %q has non-positive sync distance %d", s, n.Sync.Distance)
				}
				for _, b := range n.Body {
					if w, ok := b.(*il.SyncWait); ok && err == nil && w.Distance != n.Sync.Distance {
						err = fmt.Errorf("sync.wait distance %d disagrees with loop sync distance %d in %q",
							w.Distance, n.Sync.Distance, s)
					}
				}
			}
		case *il.SyncPost:
			if !okSync[s] {
				err = fmt.Errorf("sync.post at offset %d outside a DOACROSS parallel region", n.Pos)
				return false
			}
		case *il.SyncWait:
			if !okSync[s] {
				err = fmt.Errorf("sync.wait(%d) at offset %d outside a DOACROSS parallel region", n.Distance, n.Pos)
				return false
			}
		case *il.VectorAssign:
			if !allowVector {
				err = fmt.Errorf("vector statement %q before the vectorizer slot", s)
				return false
			}
		}
		if err != nil {
			return false
		}
		il.StmtExprs(s, func(e il.Expr) {
			err = firstErr(err, verifyExpr(p, e, allowVector, s))
		})
		return err == nil
	})
	return err
}

// verifyCountedLoop checks the invariants shared by DoLoop and DoParallel.
func verifyCountedLoop(p *il.Proc, iv il.VarID, init, limit, step il.Expr, body []il.Stmt, s il.Stmt) error {
	if int(iv) < 0 || int(iv) >= len(p.Vars) {
		return fmt.Errorf("loop iv v%d out of range in %q", iv, s)
	}
	for _, bound := range []il.Expr{init, limit, step} {
		var err error
		il.WalkExpr(bound, func(e il.Expr) bool {
			switch n := e.(type) {
			case *il.Load:
				if n.Volatile {
					err = firstErr(err, fmt.Errorf("loop bound %s is impure (volatile load) in %q", bound, s))
				}
			case *il.VecRef:
				err = firstErr(err, fmt.Errorf("loop bound %s contains a vector operand in %q", bound, s))
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	var err error
	il.WalkStmts(body, func(b il.Stmt) bool {
		if il.DefinedVar(b) == iv {
			err = firstErr(err, fmt.Errorf("loop body assigns the induction variable v%d in %q", iv, b))
		}
		return err == nil
	})
	return err
}

// verifyExpr checks variable references and vector-form placement inside
// one expression tree.
func verifyExpr(p *il.Proc, root il.Expr, allowVector bool, s il.Stmt) error {
	var err error
	il.WalkExpr(root, func(e il.Expr) bool {
		switch n := e.(type) {
		case *il.VarRef:
			if int(n.ID) < 0 || int(n.ID) >= len(p.Vars) {
				err = firstErr(err, fmt.Errorf("undefined variable id v%d in %q", n.ID, s))
			}
		case *il.AddrOf:
			if int(n.ID) < 0 || int(n.ID) >= len(p.Vars) {
				err = firstErr(err, fmt.Errorf("undefined variable id v%d in %q", n.ID, s))
			}
		case *il.VecRef:
			if !allowVector {
				err = firstErr(err, fmt.Errorf("vector operand %s before the vectorizer slot in %q", e, s))
			}
		}
		return err == nil
	})
	return err
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

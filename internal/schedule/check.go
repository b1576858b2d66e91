package schedule

import (
	"fmt"

	"repro/internal/depend"
	"repro/internal/il"
)

// Check decides whether schedule s may legally be applied to loop inside
// p. It rejects any plan the phases could not carry out soundly:
//
//   - Unroll > 1 requires a countable straight-line loop: constant
//     nonzero step and an all-Assign body, so body replicas can be
//     stamped out with IV+j·step substitution.
//   - Interchange requires a perfect two-level nest with rectangular
//     bounds (inner bounds invariant in the outer IV) and no dependence
//     whose direction is or may be (<,>), the one direction vector the
//     swap reverses.
//
// The phases keep their own guards as well; Check is the tuner's gate on
// the candidates it offers, not the only line of defense.
func Check(p *il.Proc, loop *il.DoLoop, s Schedule, opts depend.Options) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Unroll > 1 {
		if c, ok := loop.Step.(*il.ConstInt); !ok || c.Val == 0 {
			return fmt.Errorf("schedule: unroll %d illegal: loop step is not a nonzero constant", s.Unroll)
		}
		for i, st := range loop.Body {
			if _, ok := st.(*il.Assign); !ok {
				return fmt.Errorf("schedule: unroll %d illegal: body statement S%d is not an assignment", s.Unroll, i)
			}
		}
	}
	if s.Interchange {
		if err := CheckInterchange(p, loop, opts); err != nil {
			return err
		}
	}
	return nil
}

// CheckInterchange verifies loop is a perfect rectangular two-level nest
// that no dependence forbids swapping: one with direction (<,>) would run
// its sink before its source once the inner loop is outermost, so no edge
// of the nest's graph is, or may be, (<,>).
func CheckInterchange(p *il.Proc, loop *il.DoLoop, opts depend.Options) error {
	var inner *il.DoLoop // the outer body must be exactly the inner loop
	if len(loop.Body) == 1 {
		inner, _ = loop.Body[0].(*il.DoLoop)
	}
	if inner == nil {
		return fmt.Errorf("schedule: interchange illegal: loop is not a perfect two-level nest")
	}
	for _, e := range []il.Expr{inner.Init, inner.Limit, inner.Step} {
		if il.UsesVar(e, loop.IV) {
			return fmt.Errorf("schedule: interchange illegal: inner bounds depend on the outer index (triangular nest)")
		}
	}
	_, constStep := loop.Step.(*il.ConstInt)
	nd := depend.AnalyzeNest(p, loop, opts)
	if !constStep || nd == nil {
		return fmt.Errorf("schedule: interchange illegal: a step is not constant or the body is not all assignments")
	}
	for _, d := range nd.Deps {
		if d.Dir[0]&depend.LT != 0 && d.Dir[1]&depend.GT != 0 {
			return fmt.Errorf("schedule: interchange illegal: dependence %s would be reversed", d.String())
		}
	}
	return nil
}

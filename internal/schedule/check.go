package schedule

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/depend"
	"repro/internal/il"
	"repro/internal/titan"
)

// Check decides whether schedule s may legally be applied to loop inside
// p, consulting the same cached dependence graphs the loop phases use
// (a nil cache computes directly). It rejects any plan the phases could
// not carry out soundly:
//
//   - ParallelWidth > 0 (spreading strips across processors) requires
//     independent iterations: no carried dependence and no barrier
//     statement (call, volatile access, irregular control).
//   - Unroll > 1 requires a countable straight-line loop: constant
//     nonzero step and an all-Assign body, so body replicas can be
//     stamped out with IV+j·step substitution.
//   - Interchange requires a perfect two-level nest with rectangular
//     bounds (inner bounds invariant in the outer IV) and no dependence
//     whose direction is or may be (<,>), the one direction vector the
//     swap reverses.
//
// The phases keep their own guards as well; Check is the tuner's and
// the service's gate, not the only line of defense.
func Check(p *il.Proc, loop *il.DoLoop, s Schedule, ac *analysis.Cache, opts depend.Options) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.ParallelWidth > 0 && !s.SerialStrips && s.SyncStride == 0 {
		if d := ac.LoopDeps(p, loop, opts).Carried(); d != nil {
			return fmt.Errorf("schedule: parallel width %d illegal: carried dependence %s", s.ParallelWidth, d)
		}
	}
	if s.SyncStride > 0 && !s.SerialStrips {
		// A sync stride only makes sense for DOACROSS: the loop must have
		// carried dependences the parallelizer can plan post/wait for, and
		// coalesced posting (stride > 1) must keep the awaited iteration
		// strictly earlier than the waiter at the scheduled width. (A
		// barrier statement carries a dependence no plan can order.)
		ld := ac.LoopDeps(p, loop, opts)
		if ld.Carried() != nil {
			plan := depend.Doacross(p, ld)
			if plan == nil {
				return fmt.Errorf("schedule: sync stride %d illegal: no computable DOACROSS plan for the loop's carried dependences", s.SyncStride)
			}
			width := s.ParallelWidth
			if width == 0 {
				width = titan.MaxProcessors
			}
			if s.SyncStride > 1 && plan.Distance < int64(s.SyncStride)*int64(width) {
				return fmt.Errorf("schedule: sync stride %d illegal: coalesced posting needs dependence distance ≥ stride·width (distance %d, width %d)",
					s.SyncStride, plan.Distance, width)
			}
		}
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
	if s.MaskStrategy == MaskAuto || s.MaskStrategy == MaskBranchy {
		// Masked strategies direct how a guard is executed; a loop with no
		// conditional (and nothing already if-converted) has no guard to
		// direct, so the plan is inapplicable.
		guarded := false
		for _, st := range loop.Body {
			switch st.(type) {
			case *il.If, *il.PredAssign:
				guarded = true
			}
		}
		if !guarded {
			return fmt.Errorf("schedule: mask strategy %q illegal: loop body has no conditional to if-convert", s.MaskStrategy)
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

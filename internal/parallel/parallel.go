// Package parallel converts serial DO loops whose iterations are provably
// independent into do-parallel loops, spreading iterations across the
// Titan's processors (§2: "Spreading loop iterations among multiple
// processors can provide significant speedups").
//
// The vectorizer already emits do-parallel strip loops for vector code;
// this pass picks up the loops that did not vectorize (e.g. loops whose
// statements store the induction variable, or bodies with internal control
// flow but no cross-iteration dependence). Loops with calls, volatile
// accesses, scalar recurrences, or carried memory dependences stay serial.
// The paper's planned extension — spreading linked-list while loops by
// serializing the pointer chase — is future work there and here.
package parallel

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/schedule"
	"repro/internal/titan"
)

// Stats reports conversions.
type Stats struct {
	LoopsExamined     int `json:"loops_examined"`
	LoopsParallelized int `json:"loops_parallelized"`
	// LoopsDoacross counts loops pipelined with post/wait rather than
	// spread as independent iterations.
	LoopsDoacross int `json:"loops_doacross,omitempty"`
}

// Add folds another procedure's stats into s.
func (s *Stats) Add(o Stats) {
	s.LoopsExamined += o.LoopsExamined
	s.LoopsParallelized += o.LoopsParallelized
	s.LoopsDoacross += o.LoopsDoacross
}

// ParallelizeProc converts eligible serial DO loops in place. Every
// examined DO loop gets exactly one parallelize-or-not verdict remark on r,
// with the blocking dependence named on rejection. ac memoizes the
// per-loop dependence graphs (nil analyzes directly). scheds holds explicit
// per-loop schedules, and a loop without an entry follows def, the plan's
// default: a loop whose schedule pins serial_strips stays serial (with a
// par-sched-serial verdict).
func ParallelizeProc(p *il.Proc, opts depend.Options, ac *analysis.Cache, r *diag.Reporter, scheds *schedule.Set, def schedule.Schedule) Stats {
	var st Stats
	w := walker{opts: opts, ac: ac, r: r, scheds: scheds, def: def, st: &st}
	p.Body = il.RewriteStmts(p.Body, serialOnly, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		if n, ok := s.(*il.DoLoop); ok {
			if dp := w.convert(p, n); dp != nil {
				return []il.Stmt{dp}, true
			}
		}
		return nil, false
	})
	return st
}

// serialOnly keeps this package's passes out of do-parallel bodies: a loop
// that is already parallel (vectorizer or nest output) is left alone —
// nested parallelism is not profitable on a 4-processor machine.
func serialOnly(s il.Stmt) bool {
	_, par := s.(*il.DoParallel)
	return !par
}

// walker carries the per-run configuration to each loop's verdict.
type walker struct {
	opts   depend.Options
	ac     *analysis.Cache
	r      *diag.Reporter
	scheds *schedule.Set
	def    schedule.Schedule
	st     *Stats
}

// remark files one verdict diagnostic for the loop (nil-reporter safe).
func remark(r *diag.Reporter, p *il.Proc, loop *il.DoLoop, code diag.Code, args map[string]string, format string, a ...any) {
	r.Report(diag.Diagnostic{
		Severity: diag.SevRemark,
		Code:     code,
		Pos:      loop.Pos,
		Proc:     p.Name,
		Pass:     "parallelize",
		Message:  fmt.Sprintf(format, a...),
		Args:     args,
	})
}

// convert gives one serial DO loop (its body already visited) its verdict
// and returns the do-parallel replacing it, or nil when it stays serial.
func (w *walker) convert(p *il.Proc, n *il.DoLoop) *il.DoParallel {
	w.st.LoopsExamined++
	rej := classify(p, n, w.opts, w.ac)
	if rej == nil {
		sched := w.scheds.Lookup(p.Name, n.Pos, w.def)
		if sched.SerialStrips {
			remark(w.r, p, n, diag.ParSchedSerial, map[string]string{"schedule": sched.String()},
				"loop kept serial: iterations are independent but the loop schedule pins serial strips")
			return nil
		}
		w.st.LoopsParallelized++
		remark(w.r, p, n, diag.ParParallelized, map[string]string{"schedule": sched.String()},
			"loop parallelized: iterations are independent")
		// The loop object changes identity and kind; stale cached
		// analyses of the enclosing procedure must not survive.
		p.BumpGeneration()
		return p.Arena().DoParallel(il.DoParallel{IV: n.IV, Init: n.Init,
			Limit: n.Limit, Step: n.Step, Body: n.Body, Pos: n.Pos})
	}
	// Carried dependences are not necessarily fatal: when every
	// one has a computable constant distance the loop can
	// pipeline DOACROSS (§2's spreading plus post/wait).
	if rej.code == diag.ParCarriedDep {
		dp, blocker := w.doacross(p, n)
		if dp != nil {
			return dp
		}
		if blocker != nil {
			rej = blocker
		}
	}
	remark(w.r, p, n, rej.code, rej.args, "%s", rej.msg)
	return nil
}

// rejection is one deferred verdict remark: convert files it unless a
// DOACROSS conversion supersedes it.
type rejection struct {
	code diag.Code
	args map[string]string
	msg  string
}

// classify reports whether the loop's iterations can run concurrently:
// no carried dependence of any kind, no barriers (calls, volatile,
// irregular control), and no scalar live-out computed iteratively. A nil
// result means independent; otherwise the first blocker found comes back
// as the would-be verdict remark.
func classify(p *il.Proc, loop *il.DoLoop, opts depend.Options, ac *analysis.Cache) *rejection {
	// Nested loops inside the body are themselves statements the
	// dependence pass treats as barriers; a loop nest parallelizes at the
	// level whose body is loop-free.
	for i, s := range loop.Body {
		switch s.(type) {
		case *il.DoLoop, *il.While, *il.DoParallel, *il.Goto, *il.Label, *il.Return, *il.Call:
			return &rejection{code: diag.ParIrregular, args: map[string]string{"stmt": s.String()},
				msg: fmt.Sprintf("loop not parallelized: body statement S%d (%T) blocks spreading", i, s)}
		}
	}
	ld := ac.LoopDeps(p, loop, opts)
	if d := ld.Carried(); d != nil {
		// A barrier is named as one, ahead of the edges it induces.
		for i, b := range ld.Barrier {
			if b {
				return &rejection{code: diag.ParBarrier, args: map[string]string{"stmt": loop.Body[i].String()},
					msg: fmt.Sprintf("loop not parallelized: statement S%d is a dependence barrier", i)}
			}
		}
		args := map[string]string{"dep": d.String()}
		if d.Known {
			args["distance"] = fmt.Sprintf("%d", d.Distance)
		}
		return &rejection{code: diag.ParCarriedDep, args: args,
			msg: fmt.Sprintf("loop not parallelized: carried dependence %s", d.String())}
	}
	if v := depend.UnsafeScalar(p, loop.Body); v != "" {
		return &rejection{code: diag.ParLiveOut, args: map[string]string{"var": v},
			msg: fmt.Sprintf("loop not parallelized: scalar %s is observable after the loop", v)}
	}
	return nil
}

// doacrossHandoffCost approximates, in bodyCost units (one unit per
// executed node), the per-handoff price of the synchronization codegen
// emits: the post, the wait's latency, and the bookkeeping ALU ops
// around them.
const doacrossHandoffCost = 4

// doacross tries to convert a carried-dependence loop into a pipelined
// DOACROSS region. It returns nil, leaving the loop serial, when no
// constant-distance plan exists, when an observable scalar blocks
// spreading, or when the body is too small to pay for the
// synchronization. When the plan's one blocker is a scalar read after
// the loop, every memory dependence being one DOACROSS would
// synchronize, it also returns the rejection that names that scalar in
// place of the carried-dependence verdict.
func (w *walker) doacross(p *il.Proc, n *il.DoLoop) (*il.DoParallel, *rejection) {
	stepC, ok := il.IsIntConst(n.Step)
	if !ok || stepC <= 0 {
		return nil, nil // codegen's cell math needs a positive constant step
	}
	plan, readAfter := depend.Doacross(p, w.ac.LoopDeps(p, n, w.opts))
	if readAfter != il.NoVar {
		v := p.Vars[readAfter].Name
		return nil, &rejection{code: diag.ParLiveOut, args: map[string]string{"var": v},
			msg: fmt.Sprintf("loop not parallelized: scalar %s is read after the loop, where a DOACROSS spread leaves one processor's copy", v)}
	}
	if plan == nil {
		return nil, nil
	}
	if w.scheds.Lookup(p.Name, n.Pos, w.def).SerialStrips {
		return nil, nil // the schedule pinned it serial; keep the serial verdict
	}
	// Profitability: pipelined, the loop's critical path advances one
	// dependence distance per handoff — the sync plus the statements
	// inside the wait..post window; everything outside the window
	// overlaps freely across processors. Project that chain bound
	// against the serial body and demand a 1.5x win. A distance that
	// covers the machine width needs no waits at all (each processor
	// consumes its own earlier iteration), so it is always worth taking.
	if plan.Distance < int64(titan.MaxProcessors) {
		window := bodyCost(n.Body[plan.WaitIdx : plan.PostIdx+1])
		if 3*(doacrossHandoffCost+window) > 2*int(plan.Distance)*bodyCost(n.Body) {
			return nil, nil
		}
	}
	a := p.Arena()
	body := make([]il.Stmt, 0, len(n.Body)+2)
	body = append(body, n.Body[:plan.WaitIdx]...)
	body = append(body, a.SyncWait(il.SyncWait{Distance: plan.Distance, Pos: n.Pos}))
	body = append(body, n.Body[plan.WaitIdx:plan.PostIdx+1]...)
	body = append(body, a.SyncPost(il.SyncPost{Pos: n.Pos}))
	body = append(body, n.Body[plan.PostIdx+1:]...)
	w.st.LoopsDoacross++
	remark(w.r, p, n, diag.ParDoacross, map[string]string{
		"dep":      plan.Dep,
		"distance": fmt.Sprintf("%d", plan.Distance),
	}, "loop pipelined DOACROSS: carried dependence %s synchronized at distance %d", plan.Dep, plan.Distance)
	p.BumpGeneration()
	return a.DoParallel(il.DoParallel{IV: n.IV, Init: n.Init, Limit: n.Limit, Step: n.Step,
		Body: body, Sync: a.SyncInfo(il.SyncInfo{Distance: plan.Distance, Desc: plan.Dep}), Pos: n.Pos}), nil
}

// bodyCost is a crude per-iteration cycle estimate: one cycle per
// statement plus one per expression node.
func bodyCost(body []il.Stmt) int {
	cost := 0
	for _, s := range body {
		cost++
		il.StmtExprs(s, func(e il.Expr) {
			il.WalkExpr(e, func(il.Expr) bool { cost++; return true })
		})
	}
	return cost
}

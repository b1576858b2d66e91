// Package tune is the measurement-driven schedule autotuner. The paper
// picks one loop strategy at compile time from static rules; the Titan
// simulator is deterministic and fast, so this package instead *measures*:
// it enumerates a bounded grid of legal candidate schedules per loop,
// compiles each candidate, runs the result on the fast Titan engine, and
// keeps the cycle-minimal plan.
//
// A candidate costs what differs between candidates. The front end and
// the schedule-independent head of the pipeline (through scalarize) run
// once per search; each candidate clones that IL's statements (its
// expressions are immutable and shared), runs the pipeline's tail — the
// same passes in the same order driver.CompileWith runs, the IL verifier
// on — under its schedule set, and goes through the driver's code
// generation. The generated program is then looked up among those
// the search already ran: many candidates (an unroll the phases decline)
// generate code instruction for instruction equal to an earlier one's,
// and the simulator's determinism makes that code's result theirs. So a
// search is one head compile, 1 + candidates tail compiles, and one
// simulation per distinct program.
//
// A loop's candidates are trials against one incumbent set, so they are
// measured as a batch on as many workers as the host has processors: all
// compiled concurrently, matched against the programs already run
// serially in candidate order, the distinct ones simulated concurrently
// (each on a recycled machine it releases), and then judged in candidate
// order. Nothing a search reports depends on the width.
//
// The search is greedy coordinate descent over loops: loops are visited
// in deterministic key order, each loop's candidates are measured against
// the best schedule set found so far, and a candidate is adopted only
// when it strictly beats the incumbent's total cycles. A candidate that
// fails to compile or to run is discarded. Every candidate passed
// schedule.Check, so one that runs to another exit code or output than
// the baseline is a miscompile: it fails the search with an error that
// names the loop and the schedule, and nothing is adopted. Only loops the
// entry can reach are examined: the out-of-line copy of a fully inlined
// callee never runs, so nothing measured could depend on its schedule.
//
// Every examined loop yields one sched-selected remark naming the winning
// schedule and the measured cycle delta against the default plan, so
// -remarks surfaces the tuner's decisions exactly like the phase verdicts.
package tune

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/token"
	"repro/internal/workpool"
)

// Config bounds the search and fixes the measurement harness.
type Config struct {
	// Processors is the machine width candidates are measured on (1 when
	// zero) — measure on the width you will run on.
	Processors int
	// Entry is the simulated entry procedure (main when empty).
	Entry string
	// MaxLoops caps how many loops are tuned, hottest-independent order
	// not known statically so first-by-key order is used (8 when zero).
	MaxLoops int
	// Budget caps the number of measured candidate compiles beyond the
	// baseline (64 when zero).
	Budget int
}

func (c Config) processors() int {
	if c.Processors <= 0 {
		return 1
	}
	return c.Processors
}

func (c Config) entry() string {
	if c.Entry == "" {
		return "main"
	}
	return c.Entry
}

func (c Config) maxLoops() int {
	if c.MaxLoops <= 0 {
		return 8
	}
	return c.MaxLoops
}

func (c Config) budget() int {
	if c.Budget <= 0 {
		return 64
	}
	return c.Budget
}

// Decision records the tuner's verdict for one loop.
type Decision struct {
	Loop     schedule.LoopKey  `json:"loop"`
	Schedule schedule.Schedule `json:"schedule"`
	// DefaultCycles is the whole-program cycle count under the schedule
	// set before this loop was tuned; Cycles is the count with the
	// winning schedule adopted. Equal when the default won.
	DefaultCycles int64 `json:"default_cycles"`
	Cycles        int64 `json:"cycles"`
	// Candidates is how many alternatives were measured for this loop.
	Candidates int `json:"candidates"`
}

// Result is the tuner's output: the non-default schedules to compile
// with, plus the decision log the remarks and the decisions golden are
// built from.
type Result struct {
	Schedules *schedule.Set `json:"schedules"`
	Decisions []Decision    `json:"decisions"`
	// DefaultCycles/TunedCycles bracket the whole search: cycles under
	// the plan's default schedule everywhere vs. under the final set.
	DefaultCycles int64 `json:"default_cycles"`
	TunedCycles   int64 `json:"tuned_cycles"`
	// Measured counts candidate compiles beyond the baseline.
	Measured int `json:"measured"`
	// Simulated counts the programs actually run, the baseline among
	// them: at most Measured+1, fewer when candidates generated code
	// the search had already run.
	Simulated int `json:"simulated,omitempty"`
}

// Remarks renders one sched-selected diagnostic per decision. The slice
// is regenerated from the decision log, so a cached Result (titand's
// tuned-schedule cache) replays identical remarks without re-tuning.
func (r *Result) Remarks() []diag.Diagnostic {
	ds := make([]diag.Diagnostic, 0, len(r.Decisions))
	for _, d := range r.Decisions {
		delta := d.DefaultCycles - d.Cycles
		ds = append(ds, diag.Diagnostic{
			Severity: diag.SevRemark,
			Code:     diag.SchedSelected,
			Pos:      token.Pos{Line: d.Loop.Line, Col: d.Loop.Col},
			Proc:     d.Loop.Proc,
			Pass:     "tune",
			Message: fmt.Sprintf("schedule selected: %s (measured %d cycles, default %d, saved %d)",
				d.Schedule, d.Cycles, d.DefaultCycles, delta),
			Args: map[string]string{
				"schedule":       d.Schedule.String(),
				"cycles":         fmt.Sprint(d.Cycles),
				"default_cycles": fmt.Sprint(d.DefaultCycles),
				"delta":          fmt.Sprint(delta),
			},
		})
	}
	return ds
}

// loopInfo is one tunable loop read off the mid-pipeline IL.
type loopInfo struct {
	key        schedule.LoopKey
	candidates []schedule.Schedule
}

// search is the state of one Tune call. What candidates share is paid for
// once: the front end and the schedule-independent head of the pipeline
// produce base, and each candidate costs only what depends on its
// schedule set — a clone of base, the pipeline's tail, code generation,
// and a simulation unless the same code already ran.
type search struct {
	plan pass.Plan
	cfg  Config
	// base is the IL at the split: after scalarize when the scalar
	// optimizer runs, else as lowered — the loops as the loop phases will
	// see them. No pass before this point reads pass.Context.Schedules,
	// so it is the same for every set. Candidates clone its statements
	// and share its expressions, concurrently; it is never run through
	// the tail itself.
	base *il.Program
	tail *pass.Manager
	// generate compiles one candidate's schedule set down to a Titan
	// program: s.compile, but for the tests that make a chosen candidate's
	// compile fail or its code diverge, which no schedule the grid offers
	// does today.
	generate func(*schedule.Set) (*titan.Program, error)
	// ran holds every distinct program this search has simulated, with
	// its outcome. The simulator is deterministic, so a candidate whose
	// generated code equals one of these has that outcome too.
	ran []ranProgram
}

type ranProgram struct {
	prog *titan.Program
	outcome
}

// outcome is what measuring one schedule set came to: the run's result,
// or the error that stopped the compile or the run.
type outcome struct {
	res titan.Result
	err error
}

// quietContext is the pass context of the tuner's own compiles: defaults
// (verifier on), but nobody reads their remarks.
func quietContext() *pass.Context {
	ctx := pass.NewContext()
	ctx.Diags = nil
	return ctx
}

// newSearch runs the front end and the head of the pipeline over src.
// The caller releases s.base.
func newSearch(src string, opts driver.Options, cfg Config) (*search, error) {
	ctx := quietContext()
	lowered, err := driver.LowerWith(src, ctx)
	if err != nil {
		return nil, err
	}
	plan := opts.Plan()
	head, tail := pass.NewManager(plan).Split(pass.PassScalar)
	if _, err := head.Run(lowered.IL, ctx); err != nil {
		lowered.IL.Release()
		return nil, err
	}
	s := &search{plan: plan, cfg: cfg, base: lowered.IL, tail: tail}
	s.generate = s.compile
	return s, nil
}

// Tune searches for the cycle-minimal schedule set for src compiled under
// opts. The source must simulate successfully under the default schedule;
// the returned set holds only the loops where a non-default plan won.
func Tune(src string, opts driver.Options, cfg Config) (*Result, error) {
	s, err := newSearch(src, opts, cfg)
	if err != nil {
		return nil, err
	}
	defer s.base.Release()
	return s.run()
}

// run is the search proper, over the base IL newSearch prepared.
func (s *search) run() (*Result, error) {
	if s.base.Proc(s.cfg.entry()) == nil {
		return nil, fmt.Errorf("tune: entry function %q is not defined", s.cfg.entry())
	}
	loops := s.discover()
	first := s.measure([]*schedule.Set{nil})[0]
	if first.err != nil {
		return nil, fmt.Errorf("tune: baseline run failed: %w", first.err)
	}
	baseline := first.res
	res := &Result{Schedules: schedule.NewSet(), DefaultCycles: baseline.Cycles, TunedCycles: baseline.Cycles}
	best := baseline
	budget := s.cfg.budget()
	for _, li := range loops {
		dec := Decision{Loop: li.key, Schedule: s.plan.Loops, DefaultCycles: best.Cycles, Cycles: best.Cycles}
		// A loop's candidates are all trials against the same incumbent
		// set, so they are measured as one batch.
		cands := li.candidates
		if left := budget - res.Measured; len(cands) > left {
			cands = cands[:left]
		}
		trials := make([]*schedule.Set, len(cands))
		for i, cand := range cands {
			trials[i] = res.Schedules.With(li.key, cand)
		}
		for i, got := range s.measure(trials) {
			res.Measured++
			dec.Candidates++
			if got.err != nil {
				continue
			}
			if got.res.ExitCode != baseline.ExitCode || got.res.Output != baseline.Output || got.res.Globals != baseline.Globals {
				return nil, fmt.Errorf("tune: the loop at %s:%d:%d miscompiles under schedule %s: exit %d, output %q, globals %016x; the default plan exits %d, output %q, globals %016x",
					li.key.Proc, li.key.Line, li.key.Col, cands[i], got.res.ExitCode, got.res.Output, got.res.Globals, baseline.ExitCode, baseline.Output, baseline.Globals)
			}
			if got.res.Cycles < dec.Cycles {
				dec.Cycles = got.res.Cycles
				dec.Schedule = cands[i]
			}
		}
		if dec.Schedule != s.plan.Loops {
			res.Schedules.Put(li.key, dec.Schedule)
			best.Cycles = dec.Cycles
		}
		res.Decisions = append(res.Decisions, dec)
	}
	res.TunedCycles = best.Cycles
	res.Simulated = len(s.ran)
	return res, nil
}

// measure returns, for each schedule set, the deterministic outcome of
// compiling a clone of the base IL under it — the pipeline's tail with the
// verifier on, then the driver's code generation — and running the program
// on the fast Titan engine, simulating only programs this search has not
// already run.
//
// The batch is worked at the host's width and decided in its own order.
// Compiles and simulations share nothing (a clone, a context, a machine
// each), so both fan out over the work pool; between them the generated
// programs are matched against s.ran serially, in batch order, which is
// the order a one-at-a-time search would have met them in — so which
// program a repeat is charged to, s.ran and every outcome are the same at
// any width, and width 1 is this code run inline.
func (s *search) measure(sets []*schedule.Set) []outcome {
	width := runtime.GOMAXPROCS(0)
	out := make([]outcome, len(sets))
	progs := make([]*titan.Program, len(sets))
	workpool.ForEachN(len(sets), width, func(i int) {
		progs[i], out[i].err = s.generate(sets[i])
	})
	// slot[i] is where in s.ran set i's outcome will be.
	slot := make([]int, len(sets))
	fresh := len(s.ran)
	for i, tp := range progs {
		if tp == nil {
			continue
		}
		slot[i] = slices.IndexFunc(s.ran, func(r ranProgram) bool { return r.prog.Equal(tp) })
		if slot[i] < 0 {
			slot[i] = len(s.ran)
			s.ran = append(s.ran, ranProgram{prog: tp})
		}
	}
	todo := s.ran[fresh:]
	workpool.ForEachN(len(todo), width, func(i int) {
		m := titan.NewMachine(todo[i].prog, s.cfg.processors())
		todo[i].res, todo[i].err = m.Run(s.cfg.entry())
		m.Release()
	})
	for i, tp := range progs {
		if tp != nil {
			out[i] = s.ran[slot[i]].outcome
		}
	}
	return out
}

// compile takes a clone of the base IL through the tail and code
// generation under one schedule set.
func (s *search) compile(set *schedule.Set) (*titan.Program, error) {
	prog := s.base.Clone()
	// Candidate compiles are measure-and-discard; free their IL arenas so
	// a tuning search doesn't inflate the arena_bytes_live gauge.
	defer prog.Release()
	ctx := quietContext()
	ctx.Schedules = set
	if _, err := s.tail.Run(prog, ctx); err != nil {
		return nil, err
	}
	return driver.Generate(prog, s.plan)
}

// discover reads the tunable loops off the base IL — the loops as the
// loop phases will see them — each with its legal candidates, in
// deterministic key order, cut to MaxLoops. Procedures the entry cannot
// reach (typically the out-of-line copy of a callee whose every call was
// inlined) are skipped before the cut: their loops never run, so no
// candidate for them could change a measurement, and they must not take
// a live loop's slot.
func (s *search) discover() []loopInfo {
	live := reachable(s.base, s.cfg.entry())
	infos := map[schedule.LoopKey]loopInfo{}
	for _, p := range s.base.Procs {
		if !live[p.Name] {
			continue
		}
		il.WalkStmts(p.Body, func(st il.Stmt) bool {
			if loop, ok := st.(*il.DoLoop); ok {
				if cands := candidates(p, loop, s.plan); len(cands) > 0 {
					key := schedule.KeyFor(p.Name, loop.Pos)
					infos[key] = loopInfo{key, cands}
				}
			}
			return true
		})
	}
	out := make([]loopInfo, 0, len(infos))
	for _, li := range infos {
		out = append(out, li)
	}
	slices.SortFunc(out, func(a, b loopInfo) int { return a.key.Compare(b.key) })
	return out[:min(len(out), s.cfg.maxLoops())]
}

// reachable returns the names of the procedures the IL call graph can
// reach from entry. A call through a function pointer could land
// anywhere, so one in reached code makes every procedure reachable.
func reachable(prog *il.Program, entry string) map[string]bool {
	live := map[string]bool{}
	work := []string{entry}
	indirect := false
	for len(work) > 0 && !indirect {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		p := prog.Proc(name)
		if p == nil || live[name] {
			continue
		}
		live[name] = true
		il.WalkStmts(p.Body, func(st il.Stmt) bool {
			if c, ok := st.(*il.Call); ok {
				if c.FunPtr != nil {
					indirect = true
				} else {
					work = append(work, c.Callee)
				}
			}
			return true
		})
	}
	if indirect {
		for _, p := range prog.Procs {
			live[p.Name] = true
		}
	}
	return live
}

// candidates is the legal part of the grid around the plan's default
// schedule (schedule.Moves), whose strip shapes only matter when the
// strips may spread, that is when iterations are independent.
func candidates(p *il.Proc, loop *il.DoLoop, plan pass.Plan) []schedule.Schedule {
	var out []schedule.Schedule
	spread := depend.AnalyzeLoop(p, loop, plan.Depend).Carried() == nil
	for _, m := range schedule.Moves(plan.Loops, spread) {
		if schedule.Check(p, loop, m.To, plan.Depend) == nil {
			out = append(out, m.To)
		}
	}
	return out
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pass"
	"repro/internal/sema"
	"repro/internal/titan"
)

// compile is the benchmark's one way into the compiler. Untraced it is
// driver.CompileWith and nothing else. Traced it makes the same calls
// driver.CompileWith makes, in the same order with the same worker count
// and the same Schedule gating, with a span around each layer's exported
// function and the counts that layer reports.
func compile(tr *tracer, parent, op int, src string, opts driver.Options, ctx *pass.Context) (*driver.Result, error) {
	if tr == nil {
		return driver.CompileWith(src, opts, ctx)
	}
	if ctx == nil {
		ctx = pass.NewContext()
	}
	workers := ctx.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	id := tr.begin(parent, op, "parser.parse")
	file, err := parser.ParseWorkers(src, workers)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, op, "sema.check")
	info, err := sema.CheckWorkers(file, workers)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, op, "lower.file")
	prog, err := lower.FileWorkers(file, info, workers)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.observe(op, "lower.il_stmts", float64(countStmts(prog)))
	res := &driver.Result{AST: file, IL: prog}

	mid := tr.begin(parent, op, "pass.total")
	start := time.Now()
	err = driver.OptimizeILWith(res, opts, ctx)
	tr.observe(op, "pass.total_ns", float64(time.Since(start)))
	tr.end(mid)
	if err != nil {
		return nil, err
	}
	observeReport(tr, mid, op, res.Report)

	id = tr.begin(parent, op, "codegen.generate")
	tp, err := codegen.Generate(res.IL)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if (opts.StrengthReduce || opts.Vectorize) && !opts.NoSchedule {
		id = tr.begin(parent, op, "codegen.schedule")
		codegen.Schedule(tp)
		tr.end(id)
	}
	tr.observe(op, "codegen.instrs", float64(countInstrs(tp)))
	res.Machine = tp
	return res, nil
}

// observeReport copies the mid-end's own report into the trace: one child
// span per pass row (the report has durations, not start times, so rows
// are laid end to end from the mid-end span's start; what is left over as
// the parent's self time is the verifier and the manager) and one count
// per optimization.
func observeReport(tr *tracer, mid, op int, rep *pass.Report) {
	at := tr.startOf(mid)
	for _, p := range rep.Passes {
		tr.add(mid, op, "pass."+p.Name, at, int64(p.Duration))
		at += int64(p.Duration)
	}
	if n := len(rep.Passes); n > 0 {
		tr.observe(op, "pass.il_stmts_after", float64(rep.Passes[n-1].StmtsAfter))
	}
	tr.observe(op, "inline.calls_expanded", float64(rep.Inline.CallsExpanded))
	tr.observe(op, "vector.loops_examined", float64(rep.Vector.LoopsExamined))
	tr.observe(op, "vector.loops_vectorized", float64(rep.Vector.LoopsVectorized))
	tr.observe(op, "vector.masked_stmts", float64(rep.Vector.MaskedStmts))
	tr.observe(op, "parallel.loops_parallelized", float64(rep.Parallel.LoopsParallelized))
	tr.observe(op, "parallel.loops_doacross", float64(rep.Parallel.LoopsDoacross))
	tr.observe(op, "strength.loops_transformed", float64(rep.Strength.LoopsTransformed))
	a := rep.Analysis
	hits := a.DataflowHits + a.LivenessHits + a.DependHits
	tr.observe(op, "analysis.hits", float64(hits))
	tr.observe(op, "analysis.lookups", float64(hits+a.DataflowMisses+a.LivenessMisses+a.DependMisses))
}

func countStmts(prog *il.Program) int {
	n := 0
	for _, p := range prog.Procs {
		n += il.CountStmts(p.Body)
	}
	return n
}

// countInstrs is the static size of a compiled program.
func countInstrs(tp *titan.Program) int {
	n := 0
	for _, f := range tp.Funcs {
		n += len(f.Instrs)
	}
	return n
}

// simulate loads and runs main on the fast engine and checks what the
// program printed and returned against its independent expectation.
// config, when set, also files the run's host time and instruction count
// under that name (the simulate workload's four programs).
func simulate(tr *tracer, parent, op int, tp *titan.Program, processors int, want expectation, config string) (titan.Result, error) {
	id := tr.begin(parent, op, "titan.new_machine")
	m := titan.NewMachine(tp, processors)
	tr.end(id)
	id = tr.begin(parent, op, "titan.run")
	start := time.Now()
	r, err := m.Run("main")
	hostNS := float64(time.Since(start))
	tr.end(id)
	if err != nil {
		return r, err
	}
	if tr != nil {
		tr.observe(op, "titan.host_ns", hostNS)
		tr.observe(op, "titan.instrs", float64(r.Instrs))
		tr.observe(op, "titan.cycles", float64(r.Cycles))
		var busy, stall, idle int64
		for _, p := range r.Procs {
			busy, stall, idle = busy+p.Busy, stall+p.SyncStall, idle+p.JoinIdle
		}
		tr.observe(op, "titan.region_cycles", float64(busy+stall+idle))
		tr.observe(op, "titan.sync_stall_cycles", float64(stall))
		tr.observe(op, "titan.join_idle_cycles", float64(idle))
		tr.observe(op, "titan.mask_lanes_active", float64(r.MaskLanesActive))
		tr.observe(op, "titan.mask_lanes_total", float64(r.MaskLanesTotal))
		if config != "" {
			tr.observe(op, "titan.host_ns."+config, hostNS)
			tr.observe(op, "titan.instrs."+config, float64(r.Instrs))
		}
	}
	return r, checkRun(r.ExitCode, r.Output, want)
}

func checkRun(exit int64, output string, want expectation) error {
	if exit != want.exit || output != want.output {
		return fmt.Errorf("program returned %d and printed %q, want %d and %q", exit, output, want.exit, want.output)
	}
	return nil
}

// Package pass is the compiler mid-end's pass framework. The paper's
// pipeline order is load-bearing — §5.2 mandates while→DO conversion right
// after use-def chains, §6 mandates strength reduction after vectorization
// on the serial residue — and BuildPipeline is the single place that order
// is written down. A Manager runs the pipeline over an il.Program with
// unified per-pass instrumentation (wall time, statement counts, the loop
// phases' stats folded into one Report), an optional IL-snapshot hook
// (titancc -dump-after is a thin consumer), a between-pass IL verifier,
// and a bounded worker pool that runs the per-procedure phases
// concurrently.
package pass

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/schedule"
)

// Canonical pass names, in pipeline order. Tools address passes by these
// strings (-dump-after=vectorize, snapshot hooks, report rows).
const (
	// SnapshotInput names the pre-pipeline snapshot: the front end's raw
	// lowered IL, before any pass has run.
	SnapshotInput = "lower"

	PassInline       = "inline"
	PassScalar       = "scalarize"
	PassNest         = "nest-parallelize"
	PassIfConvert    = "ifconvert"
	PassVectorize    = "vectorize"
	PassParallelize  = "parallelize"
	PassListParallel = "list-parallelize"
	PassStrength     = "strength"
	PassCleanup      = "cleanup"
)

// Pass is one mid-end phase. Run mutates prog in place and records its
// stats on ctx.Report.
type Pass interface {
	Name() string
	Run(prog *il.Program, ctx *Context) error
}

// Context carries the cross-cutting machinery a pipeline run threads
// through every pass: the instrumentation report, optional hooks, and the
// worker-pool width. The zero value is usable; NewContext returns the
// defaults the driver uses.
type Context struct {
	// Report accumulates per-pass instrumentation. Manager.Run fills it.
	Report *Report
	// Snapshot, when non-nil, is called with the lowered IL before the
	// first pass (name SnapshotInput) and again after every pass, letting
	// tools observe between-phase IL without re-running the pipeline.
	// The program is live; callers must render or copy what they need
	// before returning.
	Snapshot func(name string, prog *il.Program)
	// Workers bounds the per-procedure worker pool for passes that
	// process procedures independently. 0 means GOMAXPROCS; 1 runs
	// serially.
	Workers int
	// Analysis memoizes per-procedure CFG/use-def/liveness solutions and
	// per-loop dependence graphs across passes, invalidated by each
	// procedure's generation counter. Nil disables caching: every
	// sub-pass re-solves from scratch (the pre-cache behavior, kept as
	// the differential-testing baseline).
	Analysis *analysis.Cache
	// Diags collects the structured diagnostics and optimization remarks
	// every pass emits (per-loop vectorize/parallelize verdicts, §5.3
	// iv-substitution outcomes, §7 inline decisions, §8 unreachable
	// deletions, ...). Manager.Run folds the sorted stream into
	// Report.Diags. Nil drops diagnostics (the Reporter is nil-safe).
	Diags *diag.Reporter
	// Schedules carries explicit per-loop plans (the autotuner's output)
	// into the loop phases. A loop without an entry, and every loop when
	// it is nil, follows the plan's default (Plan.Loops). No pass up to
	// and including scalarize may read it: the autotuner runs that prefix
	// once and shares its output among all candidate sets (tune.Tune).
	Schedules *schedule.Set
}

// NewContext returns the default context: worker pool as wide as
// GOMAXPROCS, analysis cache on.
func NewContext() *Context {
	return &Context{Report: &Report{}, Workers: runtime.GOMAXPROCS(0),
		Analysis: analysis.NewCache(), Diags: &diag.Reporter{}}
}

func (ctx *Context) workers() int {
	if ctx.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return ctx.Workers
}

// Manager owns an ordered pass pipeline built from a Plan.
type Manager struct {
	passes []Pass
	// resumes marks the tail half of a Split pipeline: its input is the
	// head's output, already verified and snapshotted there.
	resumes bool
	// vectorSeen records that the vectorizer slot ran before this
	// manager's first pass (only a tail can start with it set).
	vectorSeen bool
}

// NewManager builds the paper-mandated pipeline a plan runs.
func NewManager(p Plan) *Manager {
	return &Manager{passes: BuildPipeline(p)}
}

// Passes returns the pipeline's pass names in execution order.
func (m *Manager) Passes() []string {
	names := make([]string, len(m.passes))
	for i, p := range m.passes {
		names[i] = p.Name()
	}
	return names
}

// Split cuts the pipeline after the named pass. head runs everything up
// to and including it, tail the rest, and head.Run followed by tail.Run
// over one program and one context is exactly m.Run: the same passes in
// the same order, the same report rows, the verifier and the snapshot
// hook at the same boundaries. A name the pipeline does not contain
// (SnapshotInput included) cuts before the first pass, leaving head
// empty. The point of splitting is to run head once and tail many times,
// each on its own il.Program.Clone of head's output.
func (m *Manager) Split(after string) (head, tail *Manager) {
	cut := 0
	vectorSeen := m.vectorSeen
	for i, p := range m.passes {
		if p.Name() == after {
			cut = i + 1
			break
		}
	}
	for _, p := range m.passes[:cut] {
		vectorSeen = vectorSeen || p.Name() == PassVectorize
	}
	head = &Manager{passes: m.passes[:cut:cut], resumes: m.resumes, vectorSeen: m.vectorSeen}
	tail = &Manager{passes: m.passes[cut:], resumes: true, vectorSeen: vectorSeen}
	return head, tail
}

// Run executes the pipeline over prog, filling ctx.Report. A nil ctx gets
// NewContext defaults. The returned Report is ctx.Report. The IL verifier
// runs before the first pass and after every pass, failing the compile at
// the pass boundary that corrupted the IL instead of letting it surface
// as a codegen panic or wrong simulation output; the check is a linear
// walk.
func (m *Manager) Run(prog *il.Program, ctx *Context) (*Report, error) {
	if ctx == nil {
		ctx = NewContext()
	}
	if ctx.Report == nil {
		ctx.Report = &Report{}
	}
	rep := ctx.Report

	// VectorAssign is only legal once the vectorizer slot has run; the
	// front end never emits it and no earlier pass may.
	vectorSeen := m.vectorSeen
	if !m.resumes {
		if err := Verify(prog, vectorSeen); err != nil {
			return rep, fmt.Errorf("pass: IL invalid before pipeline: %w", err)
		}
		if ctx.Snapshot != nil {
			ctx.Snapshot(SnapshotInput, prog)
		}
	}
	for _, p := range m.passes {
		before := countStmts(prog)
		start := time.Now()
		if err := p.Run(prog, ctx); err != nil {
			return rep, fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		rep.Passes = append(rep.Passes, PassStat{
			Name:        p.Name(),
			Duration:    time.Since(start),
			StmtsBefore: before,
			StmtsAfter:  countStmts(prog),
		})
		if p.Name() == PassVectorize {
			vectorSeen = true
		}
		if ctx.Snapshot != nil {
			ctx.Snapshot(p.Name(), prog)
		}
		if err := Verify(prog, vectorSeen); err != nil {
			return rep, fmt.Errorf("pass %s: IL invalid after pass: %w", p.Name(), err)
		}
	}
	rep.Analysis = ctx.Analysis.Stats()
	rep.Diags = ctx.Diags.All()
	return rep, nil
}

// countStmts is the whole-program statement count the report's deltas use.
func countStmts(prog *il.Program) int {
	n := 0
	for _, p := range prog.Procs {
		n += il.CountStmts(p.Body)
	}
	return n
}

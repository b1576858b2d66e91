// Package analysis memoizes the mid-end's per-procedure analyses — the
// CFG + reaching-definition chains, live-variable sets, and per-loop
// dependence graphs — so sub-passes that made no changes reuse the
// previous solution instead of re-solving from scratch.
//
// Invalidation is counter-based: every mutating rewrite advances the
// owning il.Proc's generation (il.Proc.Changed / AddVar do it
// structurally), and each cached artifact is keyed by the counter that
// covers what it reads. The CFG and reaching definitions read only the
// statement tree, the definition sites and Var.Escapes, so they are keyed
// by il.Proc.Shape, which Rewrote — a rewrite of expressions inside
// existing statements — leaves alone. Liveness and dependence graphs read
// uses, so they are keyed by il.Proc.Generation. A query under a newer
// counter discards the stale state and recomputes; a query under the same
// one is a hit. Dependence graphs are additionally keyed by loop identity
// and depend.Options, so the vector, parallel, and strength passes share
// one analysis of an unchanged loop instead of triple-analyzing it.
//
// Each procedure owns one set of CFG, chain and liveness storage: a stale
// solution is kept as its spare, and the next miss re-solves into it. So
// a solution is valid until the next query for its procedure under a
// newer counter; no caller may keep a *dataflow.Def, a *cfg.Node or a
// solution across one. Storage is per procedure, never shared between
// goroutines.
//
// A nil *Cache is valid and computes every query directly (the uncached
// pre-cache behavior); the differential tests compare the two modes.
// One Cache may be used from concurrent goroutines as long as no two
// goroutines query the same procedure while it is being mutated — the
// pass manager's per-procedure worker pool satisfies this by
// construction.
package analysis

import (
	"sync"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/depend"
	"repro/internal/il"
)

// Stats counts cache hits and misses per artifact kind.
type Stats struct {
	DataflowHits   uint64 `json:"dataflow_hits"`
	DataflowMisses uint64 `json:"dataflow_misses"`
	LivenessHits   uint64 `json:"liveness_hits"`
	LivenessMisses uint64 `json:"liveness_misses"`
	DependHits     uint64 `json:"depend_hits"`
	DependMisses   uint64 `json:"depend_misses"`
}

// Add folds another run's stats into s.
func (s *Stats) Add(o Stats) {
	s.DataflowHits += o.DataflowHits
	s.DataflowMisses += o.DataflowMisses
	s.LivenessHits += o.LivenessHits
	s.LivenessMisses += o.LivenessMisses
	s.DependHits += o.DependHits
	s.DependMisses += o.DependMisses
}

// Cache memoizes analyses per (procedure, shape or generation). The zero
// value is not usable; call NewCache. A nil *Cache computes everything
// uncached.
type Cache struct {
	mu    sync.Mutex
	procs map[*il.Proc]*procState

	dfHits, dfMisses   atomic.Uint64
	lvHits, lvMisses   atomic.Uint64
	depHits, depMisses atomic.Uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{procs: map[*il.Proc]*procState{}} }

// depKey identifies one dependence-graph entry: the loop plus the
// aliasing assumptions it was analyzed under (depend.Options is
// comparable by design).
type depKey struct {
	loop *il.DoLoop
	opts depend.Options
}

// procState is one procedure's entry. df and lv are its analysis
// storage: dfOK and lvOK say whether they hold the solution under the
// current shape and generation, and a miss re-solves into them.
type procState struct {
	mu    sync.Mutex
	shape uint64 // keys df
	gen   uint64 // keys lv and deps
	df    dataflow.Analysis
	dfErr error
	dfOK  bool
	lv    dataflow.Liveness
	lvOK  bool
	deps  map[depKey]*depend.LoopDeps
}

func (c *Cache) state(p *il.Proc) *procState {
	c.mu.Lock()
	ps := c.procs[p]
	if ps == nil {
		ps = &procState{shape: p.Shape(), gen: p.Generation(), deps: map[depKey]*depend.LoopDeps{}}
		c.procs[p] = ps
	}
	c.mu.Unlock()
	return ps
}

// sync marks stale everything computed under an older counter: the
// dataflow under an older shape, liveness and dependence graphs under an
// older generation. The stale dataflow and liveness stay as storage for
// the next miss. Caller holds ps.mu.
func (ps *procState) sync(p *il.Proc) {
	if s := p.Shape(); s != ps.shape {
		ps.shape = s
		ps.dfErr, ps.dfOK = nil, false
	}
	if g := p.Generation(); g != ps.gen {
		ps.gen = g
		ps.lvOK = false
		clear(ps.deps)
	}
}

// Dataflow returns the CFG + reaching-definition analysis for p at its
// current shape.
func (c *Cache) Dataflow(p *il.Proc) (*dataflow.Analysis, error) {
	if c == nil {
		return dataflow.Analyze(p)
	}
	ps := c.state(p)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.dataflowLocked(ps, p); err != nil {
		return nil, err
	}
	return &ps.df, nil
}

func (c *Cache) dataflowLocked(ps *procState, p *il.Proc) error {
	ps.sync(p)
	if ps.dfOK {
		c.dfHits.Add(1)
		return ps.dfErr
	}
	ps.dfErr = ps.df.Reanalyze(p)
	ps.dfOK = true
	c.dfMisses.Add(1)
	return ps.dfErr
}

// DataflowLiveness returns the reaching-definition analysis and the
// live-variable solution over the same CFG, computing at most one
// analysis per shape and one liveness per generation.
func (c *Cache) DataflowLiveness(p *il.Proc) (*dataflow.Analysis, *dataflow.Liveness, error) {
	if c == nil {
		a, err := dataflow.Analyze(p)
		if err != nil {
			return nil, nil, err
		}
		return a, dataflow.ComputeLiveness(p, a.Graph), nil
	}
	ps := c.state(p)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.dataflowLocked(ps, p); err != nil {
		return nil, nil, err
	}
	if ps.lvOK {
		c.lvHits.Add(1)
	} else {
		ps.lv.Recompute(p, ps.df.Graph)
		ps.lvOK = true
		c.lvMisses.Add(1)
	}
	return &ps.df, &ps.lv, nil
}

// LoopDeps returns the dependence graph of loop under opts at p's current
// generation. The vector, parallel, and strength passes all come through
// here, so an unchanged loop is analyzed once, not three times.
func (c *Cache) LoopDeps(p *il.Proc, loop *il.DoLoop, opts depend.Options) *depend.LoopDeps {
	if c == nil {
		return depend.AnalyzeLoop(p, loop, opts)
	}
	ps := c.state(p)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.sync(p)
	k := depKey{loop, opts}
	if ld, ok := ps.deps[k]; ok {
		c.depHits.Add(1)
		return ld
	}
	ld := depend.AnalyzeLoop(p, loop, opts)
	ps.deps[k] = ld
	c.depMisses.Add(1)
	return ld
}

// Stats snapshots the hit/miss counters. Safe to call concurrently with
// queries.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		DataflowHits:   c.dfHits.Load(),
		DataflowMisses: c.dfMisses.Load(),
		LivenessHits:   c.lvHits.Load(),
		LivenessMisses: c.lvMisses.Load(),
		DependHits:     c.depHits.Load(),
		DependMisses:   c.depMisses.Load(),
	}
}

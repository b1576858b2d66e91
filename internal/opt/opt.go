package opt

import (
	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/il"
)

// Options selects which scalar optimizations run.
type Options struct {
	// IVSub enables induction-variable substitution. The paper notes it
	// deoptimizes code that does not vectorize (§6), so the driver turns
	// it on when vectorization is requested and relies on strength
	// reduction to undo the damage elsewhere.
	IVSub bool
	// Straightforward models the 1980s pipeline of §5.3 (ablation A2):
	// induction-variable substitution runs in its single-pass,
	// no-copy-resolution variant and copy propagation does not run, so
	// the front end's pointer-bump temporaries stay unresolved.
	Straightforward bool
}

// DefaultOptions enables the full paper pipeline.
func DefaultOptions() Options { return Options{IVSub: true} }

// subPass is one named step of the scalar optimizer. run returns the
// number of changes it made to the procedure.
type subPass struct {
	name string
	run  func(*il.Proc) int
}

// subPasses returns the scalar sub-passes opts enables, in the paper's
// §5.2 order: while loops convert to DO loops immediately after use-def
// chains are available (each sub-pass builds its own), then the DO-loop
// simplifications — constant propagation, induction-variable
// substitution, copy propagation — and finally dead-code elimination.
// This slice is the single place the scalar phase order is written down.
// The sub-passes are bound to the analysis cache (nil re-solves every
// analysis, the uncached baseline) and report their decisions through em
// (nil reports nothing). Copy propagation and dead-code elimination share
// one scratch, which lives as long as the returned sub-passes.
func subPasses(opts Options, ac *analysis.Cache, em *emitter) []subPass {
	sc := new(scratch)
	sp := []subPass{
		{"while-to-do", func(p *il.Proc) int { return convertWhileLoops(p, ac, em) }},
		{"constprop", func(p *il.Proc) int { return propagateConstants(p, ac, em) }},
	}
	if opts.IVSub {
		if opts.Straightforward {
			sp = append(sp, subPass{"ivsub-simple", func(p *il.Proc) int { return ivsubProc(p, false, em) }})
		} else {
			sp = append(sp, subPass{"ivsub", func(p *il.Proc) int { return ivsubProc(p, true, em) }})
		}
	}
	if !opts.Straightforward {
		sp = append(sp, subPass{"copyprop", func(p *il.Proc) int { return propagateCopies(p, ac, sc) }})
	}
	return append(sp,
		subPass{"dce", func(p *il.Proc) int { return eliminateDeadCode(p, ac, sc) }},
		subPass{"unused-labels", removeUnusedLabels},
	)
}

// FixpointCapped is the Counts key recording how many procedures hit
// maxRounds with changes still being made: the fixpoint was capped, not
// reached. Surfaced through pass.Report so non-convergence is visible
// instead of silently swallowed.
const FixpointCapped = "fixpoint-capped"

// maxRounds bounds the scalar fixpoint (each sub-pass exposes
// opportunities for the others, but convergence is usually immediate).
const maxRounds = 8

// Counts records, per sub-pass name, how many changes it made. Merging
// across procedures is a keywise sum, so the aggregate is deterministic
// regardless of the order procedures are optimized in.
type Counts map[string]int

// Add folds another procedure's counts into c.
func (c Counts) Add(o Counts) {
	for k, v := range o {
		c[k] += v
	}
}

// Optimize runs the scalar optimization pipeline on one procedure in the
// paper's order (§5.2); see subPasses. The pipeline iterates to a bounded
// fixpoint since each sub-pass exposes opportunities for the others. The
// returned Counts report changes per sub-pass across all rounds.
//
// With a caller-owned analysis cache the final no-change rounds of the
// fixpoint — and any sub-pass that makes no changes in between — become
// cache hits instead of full re-solves; a nil cache re-solves everything
// (the uncached baseline). The optimizer's decisions are reported to r as
// structured diagnostics: while→DO conversions (§5.2), induction-variable
// substitutions and §5.3 blocking outcomes, §8 unreachable-code deletions,
// and a warning when the fixpoint is capped before convergence. A nil
// reporter drops them.
func Optimize(p *il.Proc, opts Options, ac *analysis.Cache, r *diag.Reporter) Counts {
	em := newEmitter(r, p.Name)
	return fixpoint(p, subPasses(opts, ac, em), em)
}

// fixpoint runs the sub-passes in order, round after round, until a round
// changes nothing or maxRounds is reached.
func fixpoint(p *il.Proc, sub []subPass, em *emitter) Counts {
	counts := Counts{}
	for round := 0; round < maxRounds; round++ {
		changed := 0
		for _, s := range sub {
			n := s.run(p)
			counts[s.name] += n
			changed += n
		}
		if changed == 0 {
			break
		}
		if round == maxRounds-1 {
			counts[FixpointCapped]++
			em.warn(diag.FixpointCapped, "scalar-opt", procPos(p),
				"scalar optimizer hit the %d-round cap with changes still being made; results are valid but may not be fully propagated", maxRounds)
		}
	}
	return counts
}

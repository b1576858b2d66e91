package pass

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/inline"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/strength"
	"repro/internal/vector"
)

// PassStat is one pipeline row: what a pass cost and what it did to the
// program's size. The JSON form (consumed by the compile service's
// /metrics and /compile endpoints) encodes Duration as integer
// nanoseconds under duration_ns.
type PassStat struct {
	Name        string        `json:"name"`
	Duration    time.Duration `json:"duration_ns"`
	StmtsBefore int           `json:"stmts_before"`
	StmtsAfter  int           `json:"stmts_after"`
}

// delta is the signed IL statement change the pass made.
func (s PassStat) delta() int { return s.StmtsAfter - s.StmtsBefore }

// Report is the unified instrumentation record of one pipeline run: the
// per-pass timing table plus every phase's domain stats folded together.
// All counters merge by addition, so per-procedure results collected from
// the worker pool in Procs order produce the same Report regardless of
// which worker finished first.
type Report struct {
	Passes []PassStat `json:"passes,omitempty"`

	Inline   inline.Stats       `json:"inline"`
	Scalar   opt.Counts         `json:"scalar,omitempty"` // per scalar sub-pass change counts (scalarize + cleanup)
	Nest     parallel.NestStats `json:"nest"`
	IfConv   vector.IfConvStats `json:"ifconvert"`
	Vector   vector.Stats       `json:"vector"`
	Parallel parallel.Stats     `json:"parallel"`
	List     parallel.ListStats `json:"list"`
	Strength strength.Stats     `json:"strength"`
	// Analysis is the analysis cache's hit/miss tally for the run (all
	// zero when the cache was disabled).
	Analysis analysis.Stats `json:"analysis"`
	// Diags is the run's structured diagnostic stream (warnings and
	// optimization remarks), sorted by procedure then source position.
	// It rides the /compile artifact JSON, so cached responses replay the
	// same remarks the leader compile produced.
	Diags []diag.Diagnostic `json:"diags,omitempty"`
}

// Pass returns the stat row for the named pass, or nil. If a pass ran
// more than once the first occurrence wins.
func (r *Report) Pass(name string) *PassStat {
	for i := range r.Passes {
		if r.Passes[i].Name == name {
			return &r.Passes[i]
		}
	}
	return nil
}

// String renders the -time-passes view: one row per executed pass with
// wall time and the IL statement delta, then the non-zero domain stats.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("pass              time        stmts (delta)\n")
	var total time.Duration
	for _, p := range r.Passes {
		fmt.Fprintf(&sb, "%-16s  %10s  %5d -> %-5d (%+d)\n",
			p.Name, fmtDuration(p.Duration), p.StmtsBefore, p.StmtsAfter, p.delta())
		total += p.Duration
	}
	fmt.Fprintf(&sb, "%-16s  %10s\n", "total", fmtDuration(total))
	if n := r.Inline.CallsExpanded; n > 0 {
		fmt.Fprintf(&sb, "inline: %d calls expanded\n", n)
	}
	if len(r.Scalar) > 0 {
		keys := make([]string, 0, len(r.Scalar))
		for k := range r.Scalar {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			if r.Scalar[k] != 0 {
				parts = append(parts, fmt.Sprintf("%s %d", k, r.Scalar[k]))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&sb, "scalarize: %s\n", strings.Join(parts, ", "))
		}
	}
	if r.Nest != (parallel.NestStats{}) {
		fmt.Fprintf(&sb, "nest-parallelize: %d nests\n", r.Nest.NestsParallelized)
	}
	if r.IfConv != (vector.IfConvStats{}) {
		fmt.Fprintf(&sb, "ifconvert: %d conditionals flattened to %d predicated stores in %d loops\n",
			r.IfConv.IfsConverted, r.IfConv.StmtsPredicated, r.IfConv.LoopsExamined)
	}
	if r.Vector != (vector.Stats{}) {
		fmt.Fprintf(&sb, "vectorize: %d/%d loops, %d vector stmts (%d masked), %d parallel strips, %d serial residue\n",
			r.Vector.LoopsVectorized, r.Vector.LoopsExamined, r.Vector.VectorStmts,
			r.Vector.MaskedStmts, r.Vector.ParallelLoops, r.Vector.SerialResidue)
	}
	if r.Parallel != (parallel.Stats{}) {
		fmt.Fprintf(&sb, "parallelize: %d/%d loops\n",
			r.Parallel.LoopsParallelized, r.Parallel.LoopsExamined)
	}
	if r.List != (parallel.ListStats{}) {
		fmt.Fprintf(&sb, "list-parallelize: %d loops\n", r.List.LoopsConverted)
	}
	if r.Strength != (strength.Stats{}) {
		fmt.Fprintf(&sb, "strength: %d loops, %d promoted loads, %d reduced refs, %d pointers, %d hoisted\n",
			r.Strength.LoopsTransformed, r.Strength.PromotedLoads, r.Strength.ReducedRefs,
			r.Strength.Pointers, r.Strength.HoistedExprs)
	}
	if r.Analysis != (analysis.Stats{}) {
		fmt.Fprintf(&sb, "analysis cache: dataflow %d/%d, liveness %d/%d, depend %d/%d hits\n",
			r.Analysis.DataflowHits, r.Analysis.DataflowHits+r.Analysis.DataflowMisses,
			r.Analysis.LivenessHits, r.Analysis.LivenessHits+r.Analysis.LivenessMisses,
			r.Analysis.DependHits, r.Analysis.DependHits+r.Analysis.DependMisses)
	}
	if n := r.Scalar[opt.FixpointCapped]; n > 0 {
		fmt.Fprintf(&sb, "WARNING: scalar fixpoint capped without converging in %d procedure(s)\n", n)
	}
	return sb.String()
}

// fmtDuration keeps rows aligned: microsecond precision is plenty for a
// per-pass wall clock.
func fmtDuration(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

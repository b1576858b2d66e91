package pass

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/depend"
	"repro/internal/inline"
	"repro/internal/opt"
	"repro/internal/schedule"
)

// Options selects compiler behavior; the zero value is -O0: plain scalar
// compilation with no optimization at all. The type lives here — rather
// than in package driver, which re-exports it as driver.Options — because
// it resolves into the Plan the pass manager runs (Options.Plan).
type Options struct {
	// OptLevel 0 disables all optimization; 1 enables the scalar pipeline
	// (default for the driver's named constructors).
	OptLevel int
	// Inline enables inline expansion.
	Inline bool
	// Catalogs provides library procedure databases for inlining (§7).
	Catalogs []*inline.Catalog
	// Vectorize enables the vectorizer.
	Vectorize bool
	// Parallelize enables do-parallel generation (implies nothing about
	// processor count; that is a machine property).
	Parallelize bool
	// ListParallel enables the §10 extension: linked-list while loops are
	// spread across processors by serializing the pointer chase. Turning
	// it on asserts the paper's "each motion down a pointer goes to
	// independent storage" assumption for the whole unit.
	ListParallel bool
	// VL overrides the strip length (schedule.DefaultVL when 0).
	VL int
	// NoAlias asserts pointer parameters follow Fortran aliasing rules
	// (§9's compiler option).
	NoAlias bool
	// StrengthReduce runs §6's dependence-driven scalar loop optimization.
	StrengthReduce bool
	// Straightforward selects §5.3's "straightforward" scalar pipeline
	// (ablation A2): single-pass induction-variable substitution and no
	// copy propagation, so the front end's pointer-bump temporaries stay
	// unresolved.
	Straightforward bool
	// ForceIVSub runs induction-variable substitution even when no later
	// phase consumes it (the golden IL tests' view; §6).
	ForceIVSub bool
	// NoSchedule disables codegen's §6 dependence-informed instruction
	// scheduler (ablation A5), which otherwise runs as Plan.Schedule says.
	NoSchedule bool
}

// Plan is what one Options value compiles: the passes that run, each with
// its resolved settings, and whether codegen list-schedules. Options.Plan
// is the one reader of an Options value; the pass list (BuildPipeline),
// the driver's scheduler rule, the cache key and the autotuner read the
// plan. Options that differ only in a field the compile ignores resolve
// to equal plans.
type Plan struct {
	// Inline runs inline expansion (§7), with Catalogs (nil when off).
	Inline   bool
	Catalogs []*inline.Catalog
	// Scalar configures the scalar optimizer (§5.2); nil at -O0.
	Scalar *opt.Options
	// Parallel runs nest parallelization and do-parallel conversion (§2);
	// never at -O0.
	Parallel bool
	// Vector runs if-conversion and the vectorizer (§5); never at -O0.
	Vector bool
	// Loops is the default loop schedule, which every loop without a
	// Context.Schedules entry follows: schedule.Default(), at strip length
	// Options.VL when that is set and the vectorizer runs.
	Loops schedule.Schedule
	// List runs the §10 linked-list parallelizer, at -O0 too: it needs
	// no scalar optimization and parallelizes a list loop there.
	List bool
	// Strength runs §6's strength reduction and a cleanup round; never at
	// -O0.
	Strength bool
	// Depend is the dependence clients' aliasing assumption; zero when none
	// runs.
	Depend depend.Options
	// Schedule list-schedules the generated code: whenever strength
	// reduction or the vectorizer runs (§6), unless ablated (A5).
	Schedule bool
}

// Plan resolves o into the compile it describes.
func (o Options) Plan() Plan {
	p := Plan{Inline: o.Inline, List: o.ListParallel}
	if p.Inline {
		p.Catalogs = o.Catalogs
	}
	if o.OptLevel >= 1 {
		// Without the scalar optimizer's while-to-DO conversion and
		// induction-variable substitution the loop phases find no DO loop
		// they can use.
		p.Parallel, p.Vector, p.Strength = o.Parallelize, o.Vectorize, o.StrengthReduce
		// Induction-variable substitution only pays when a later phase
		// consumes it (§6), or when forced.
		p.Scalar = &opt.Options{IVSub: p.Vector || p.Strength || o.ForceIVSub, Straightforward: o.Straightforward}
	}
	p.Loops = schedule.Default()
	if p.Vector && o.VL > 0 {
		p.Loops.VL = o.VL
	}
	if p.dependClient() {
		p.Depend.NoAlias = o.NoAlias
	}
	p.Schedule = (p.Strength || p.Vector) && !o.NoSchedule
	return p
}

// dependClient reports whether a pass that reads dependence graphs runs.
func (p Plan) dependClient() bool { return p.Vector || p.Parallel || p.Strength }

// Canonical renders the plan as the compile cache keys it (the opts/v1
// text): every setting the compile reads, and nothing else. Attached
// catalogs render as their sorted, deduplicated content fingerprints, so
// attachment order and duplicate attachments do not matter; this is the
// one place they are fingerprinted.
func (p Plan) Canonical() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "opts/v1\noptimize=%t\ninline=%t\n", p.Scalar != nil, p.Inline)
	if p.Inline {
		fps := make([]string, 0, len(p.Catalogs))
		for _, c := range p.Catalogs {
			fp, err := c.Fingerprint()
			if err != nil {
				return "", fmt.Errorf("pass: fingerprinting attached catalog: %w", err)
			}
			fps = append(fps, fp)
		}
		slices.Sort(fps)
		fmt.Fprintf(&sb, "catalogs=%s\n", strings.Join(slices.Compact(fps), ","))
	}
	if p.Scalar != nil {
		fmt.Fprintf(&sb, "scalar.ivsub=%t\nscalar.straightforward=%t\n", p.Scalar.IVSub, p.Scalar.Straightforward)
	}
	fmt.Fprintf(&sb, "parallelize=%t\nvectorize=%t\n", p.Parallel, p.Vector)
	if p.Vector {
		fmt.Fprintf(&sb, "vl=%d\n", p.Loops.VL)
	}
	fmt.Fprintf(&sb, "listparallel=%t\n", p.List)
	if p.dependClient() {
		fmt.Fprintf(&sb, "noalias=%t\n", p.Depend.NoAlias)
	}
	fmt.Fprintf(&sb, "strength=%t\nschedule=%t\n", p.Strength, p.Schedule)
	return sb.String(), nil
}

package pass

import "repro/internal/inline"

// Options selects compiler behavior; the zero value is -O0: plain scalar
// compilation with no optimization at all (BuildPipeline adds the scalar
// pass only at OptLevel ≥ 1). The type lives here — rather than in
// package driver, which re-exports it as driver.Options — because the
// pass manager builds the paper-mandated pipeline from it (BuildPipeline)
// and driver imports pass, not the other way around.
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
	// ForceIVSub runs induction-variable substitution even when neither
	// vectorization nor strength reduction is enabled (the golden IL
	// tests' view; normally ivsub only pays off when a later phase
	// consumes it — §6).
	ForceIVSub bool
	// NoSchedule disables the §6 dependence-informed instruction
	// scheduler (ablation A5). Scheduling otherwise runs whenever the
	// dependence-driven phases do ("Information from the dependence graph
	// is passed back to the code generation to allow better overlap").
	// The scheduler runs in codegen, after the IL pipeline; the flag
	// rides along here so one Options value describes a whole compile.
	NoSchedule bool
}

// IVSub reports whether the scalar phase substitutes induction variables:
// only when vectorization or strength reduction consumes them (§6), or
// when forced.
func (o Options) IVSub() bool { return o.Vectorize || o.StrengthReduce || o.ForceIVSub }

// ListSchedule reports whether codegen's list scheduler runs: whenever a
// dependence-driven phase was requested, unless ablated (A5).
func (o Options) ListSchedule() bool { return (o.StrengthReduce || o.Vectorize) && !o.NoSchedule }

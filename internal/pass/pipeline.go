package pass

import (
	"repro/internal/depend"
	"repro/internal/il"
	"repro/internal/inline"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/schedule"
	"repro/internal/strength"
	"repro/internal/vector"
)

// BuildPipeline returns the mid-end pipeline a plan runs as an explicit
// ordered slice. This function is the single place the paper-mandated
// phase order is written down:
//
//	inline expansion (§7)
//	→ scalar optimization (§5.2: while→DO right after use-def chains,
//	  then constprop, ivsub, copyprop, DCE to a fixpoint)
//	→ loop-nest parallelization (outer level first, §2's
//	  outer-parallel/inner-vector pattern)
//	→ vectorization (§5)
//	→ do-parallel conversion (§2)
//	→ linked-list parallelization (§10 extension)
//	→ strength reduction on the serial residue (§6: after vectorization,
//	  off the dependence graph) → one scalar cleanup round for the
//	  preheader temporaries it introduces.
func BuildPipeline(p Plan) []Pass {
	var ps []Pass
	if p.Inline {
		ps = append(ps, &inlinePass{catalogs: p.Catalogs})
	}
	if p.Scalar != nil {
		ps = append(ps, &scalarPass{name: PassScalar, opts: *p.Scalar})
	}
	if p.Parallel {
		// Loop nests parallelize at the outer level before the vectorizer
		// rewrites the inner loops (§2's outer-parallel/inner-vector
		// pattern).
		ps = append(ps, &nestPass{dopts: p.Depend})
	}
	if p.Vector {
		// If-conversion flattens guarded stores to predicated statements so
		// the vectorizer can judge them off the dependence graph and emit
		// masked strips when legal.
		ps = append(ps, &ifconvertPass{},
			&vectorPass{cfg: vector.Config{Default: p.Loops, Parallel: p.Parallel, Depend: p.Depend}})
	}
	if p.Parallel {
		ps = append(ps, &parallelPass{dopts: p.Depend, def: p.Loops})
	}
	if p.List {
		ps = append(ps, &listPass{})
	}
	if p.Strength {
		ps = append(ps,
			&strengthPass{cfg: strength.Config{Depend: p.Depend, Default: p.Loops}},
			// Strength reduction introduces preheader temporaries; one
			// more scalar round tidies them.
			&scalarPass{name: PassCleanup, opts: opt.Options{IVSub: false}},
		)
	}
	return ps
}

// ------------------------------------------------------------- adapters

// inlinePass expands calls, whole-program (the inliner rewrites callers
// from shared callee bodies and merges catalog globals, so it stays
// serial).
type inlinePass struct{ catalogs []*inline.Catalog }

func (*inlinePass) Name() string { return PassInline }

func (ip *inlinePass) Run(prog *il.Program, ctx *Context) error {
	in := inline.New(prog)
	in.Diags = ctx.Diags
	for _, c := range ip.catalogs {
		in.AddCatalog(c)
	}
	ctx.Report.Inline.Add(inline.Stats{CallsExpanded: in.ExpandProgram()})
	return nil
}

// scalarPass runs the §5.2 scalar fixpoint per procedure; it appears
// twice in a full pipeline (scalarize, then cleanup after strength
// reduction).
type scalarPass struct {
	name string
	opts opt.Options
}

func (sp *scalarPass) Name() string { return sp.name }

func (sp *scalarPass) Run(prog *il.Program, ctx *Context) error {
	if ctx.Report.Scalar == nil {
		ctx.Report.Scalar = opt.Counts{}
	}
	for _, c := range forEachProc(prog, ctx.workers(), func(p *il.Proc) opt.Counts {
		return opt.Optimize(p, sp.opts, ctx.Analysis, ctx.Diags)
	}) {
		ctx.Report.Scalar.Add(c)
	}
	return nil
}

// nestPass parallelizes the outer loops of independent 2-level nests.
type nestPass struct{ dopts depend.Options }

func (*nestPass) Name() string { return PassNest }

func (np *nestPass) Run(prog *il.Program, ctx *Context) error {
	for _, st := range forEachProc(prog, ctx.workers(), func(p *il.Proc) parallel.NestStats {
		return parallel.ParallelizeNests(p, np.dopts, ctx.Diags)
	}) {
		ctx.Report.Nest.Add(st)
	}
	return nil
}

// ifconvertPass flattens single-level conditionals in countable DO bodies
// into predicated stores, ahead of the vectorizer.
type ifconvertPass struct{}

func (*ifconvertPass) Name() string { return PassIfConvert }

func (*ifconvertPass) Run(prog *il.Program, ctx *Context) error {
	for _, st := range forEachProc(prog, ctx.workers(), func(p *il.Proc) vector.IfConvStats {
		return vector.IfConvertProc(p, ctx.Diags)
	}) {
		ctx.Report.IfConv.Add(st)
	}
	return nil
}

// vectorPass strip-mines and vectorizes innermost DO loops.
type vectorPass struct{ cfg vector.Config }

func (*vectorPass) Name() string { return PassVectorize }

func (vp *vectorPass) Run(prog *il.Program, ctx *Context) error {
	cfg := vp.cfg
	cfg.Analysis = ctx.Analysis
	cfg.Diags = ctx.Diags
	cfg.Schedules = ctx.Schedules
	for _, st := range forEachProc(prog, ctx.workers(), func(p *il.Proc) vector.Stats {
		return vector.VectorizeProc(p, cfg)
	}) {
		ctx.Report.Vector.Add(st)
	}
	return nil
}

// parallelPass converts dependence-free serial DO loops to do-parallel.
type parallelPass struct {
	dopts depend.Options
	def   schedule.Schedule
}

func (*parallelPass) Name() string { return PassParallelize }

func (pp *parallelPass) Run(prog *il.Program, ctx *Context) error {
	for _, st := range forEachProc(prog, ctx.workers(), func(p *il.Proc) parallel.Stats {
		return parallel.ParallelizeProc(p, pp.dopts, ctx.Analysis, ctx.Diags, ctx.Schedules, pp.def)
	}) {
		ctx.Report.Parallel.Add(st)
	}
	return nil
}

// listPass spreads linked-list while loops across processors. It
// allocates shared pointer-buffer globals on the program, so it runs the
// procedures serially (workers=1) to keep prog.Globals race-free and its
// layout deterministic.
type listPass struct{}

func (*listPass) Name() string { return PassListParallel }

func (*listPass) Run(prog *il.Program, ctx *Context) error {
	for _, st := range forEachProc(prog, 1, func(p *il.Proc) parallel.ListStats {
		return parallel.ParallelizeListLoops(prog, p, ctx.Diags)
	}) {
		ctx.Report.List.Add(st)
	}
	return nil
}

// strengthPass runs §6's dependence-driven loop optimization on the
// serial residue.
type strengthPass struct{ cfg strength.Config }

func (*strengthPass) Name() string { return PassStrength }

func (sp *strengthPass) Run(prog *il.Program, ctx *Context) error {
	cfg := sp.cfg
	cfg.Analysis = ctx.Analysis
	cfg.Diags = ctx.Diags
	cfg.Schedules = ctx.Schedules
	for _, st := range forEachProc(prog, ctx.workers(), func(p *il.Proc) strength.Stats {
		return strength.OptimizeLoops(p, cfg)
	}) {
		ctx.Report.Strength.Add(st)
	}
	return nil
}

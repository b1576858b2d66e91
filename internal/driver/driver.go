// Package driver orchestrates the Titan C compilation pipeline in the
// paper's phase order (§2, §5.2):
//
//	parse → type check → lower to IL → inline expansion (optionally from
//	catalogs) → scalar optimization (use-def chains, while→DO conversion,
//	constant propagation with unreachable-code elimination, induction
//	variable substitution, copy propagation, dead code elimination) →
//	dependence analysis → vectorization → parallelization → dependence-
//	driven strength reduction on the serial residue → code generation →
//	Titan simulation.
//
// The mid-end phases live in package pass: driver resolves the Options
// into a pass.Plan once, builds a pass.Manager from it and delegates, so
// the pipeline order is written down exactly once (pass.BuildPipeline)
// and every compile gets the manager's per-pass instrumentation, IL
// verification, and per-procedure worker pool for free. Code generation
// reads the same plan.
package driver

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/il"
	"repro/internal/inline"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pass"
	"repro/internal/sema"
	"repro/internal/titan"
)

// Options selects compiler behavior; the zero value is -O0, plain scalar
// compilation with no optimization (ScalarOptions is -O1). It is the pass
// package's option type, which resolves into the pass.Plan a compile
// runs.
type Options = pass.Options

// ScalarOptions is the -O1 scalar configuration.
func ScalarOptions() Options {
	return Options{OptLevel: 1, StrengthReduce: true}
}

// FullOptions is the full §9 configuration: inlining, vectorization,
// parallelization, and strength reduction.
func FullOptions() Options {
	return Options{OptLevel: 1, Inline: true, Vectorize: true, Parallelize: true, StrengthReduce: true}
}

// Result carries the compiled artifacts of one translation unit.
type Result struct {
	AST     *ast.File
	IL      *il.Program
	Machine *titan.Program
	// Report is the pipeline's unified per-pass instrumentation: wall
	// time and statement deltas per pass plus every phase's stats.
	Report *pass.Report
}

// frontEnd runs parse → type check → lower and fills res.AST and res.IL.
func frontEnd(src string, res *Result) error {
	f, err := parser.Parse(src)
	if err != nil {
		return err
	}
	res.AST = f
	info, err := sema.Check(f)
	if err != nil {
		return err
	}
	prog, err := lower.File(f, info)
	if err != nil {
		return err
	}
	res.IL = prog
	return nil
}

// Compile runs the full pipeline over one source buffer.
func Compile(src string, opts Options) (*Result, error) {
	return CompileWith(src, opts, nil)
}

// CompileWith is Compile with an explicit pass context, letting tools
// install snapshot hooks, adjust the worker pool, or read the report from
// a context they own. A nil ctx gets pass.NewContext defaults.
func CompileWith(src string, opts Options, ctx *pass.Context) (*Result, error) {
	plan := opts.Plan()
	res, err := compileIL(src, plan, ctx)
	if err != nil {
		return nil, err
	}
	if res.Machine, err = Generate(res.IL, plan); err != nil {
		return nil, err
	}
	return res, nil
}

// Generate is the back half of a compile: it lowers optimized IL to Titan
// code and list-schedules it when the plan says so (§6). CompileWith and
// the autotuner's candidates both end here.
func Generate(prog *il.Program, plan pass.Plan) (*titan.Program, error) {
	tp, err := codegen.Generate(prog)
	if err != nil {
		return nil, err
	}
	if plan.Schedule {
		codegen.Schedule(tp)
	}
	return tp, nil
}

// CompileIL runs the front half only (through loop optimization), for
// tools that inspect IL.
func CompileIL(src string, opts Options) (*Result, error) {
	return CompileILWith(src, opts, nil)
}

// CompileILWith is CompileIL with an explicit pass context.
func CompileILWith(src string, opts Options, ctx *pass.Context) (*Result, error) {
	return compileIL(src, opts.Plan(), ctx)
}

func compileIL(src string, plan pass.Plan, ctx *pass.Context) (*Result, error) {
	res, err := LowerWith(src, ctx)
	if err == nil {
		res.Report, err = pass.NewManager(plan).Run(res.IL, ctx)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// LowerWith runs the front end only — parse, type check, lower — leaving
// res.IL as the pass pipeline's input. ctx receives the positioned
// diagnostic of a front-end failure; nil is fine.
func LowerWith(src string, ctx *pass.Context) (*Result, error) {
	res := &Result{}
	if err := frontEnd(src, res); err != nil {
		// Record the positioned form on the caller's context so tools
		// that own the context see front-end failures in the same
		// structured stream as the optimization remarks.
		if ctx != nil {
			if d, ok := ErrorDiagnostic(err); ok {
				ctx.Diags.Report(d)
			}
		}
		return nil, err
	}
	return res, nil
}

// OptimizeILWith runs the pass manager's pipeline over res.IL and records
// the report on res.
func OptimizeILWith(res *Result, opts Options, ctx *pass.Context) error {
	var err error
	res.Report, err = pass.NewManager(opts.Plan()).Run(res.IL, ctx)
	return err
}

// Run compiles and simulates in one step, starting at main.
func Run(src string, opts Options, processors int) (titan.Result, error) {
	return runEntry(src, "", opts, processors)
}

// runEntry compiles and simulates starting at the named entry procedure
// (main when entry is empty). A missing entry is reported as a compile
// error naming the functions the program does define.
func runEntry(src, entry string, opts Options, processors int) (titan.Result, error) {
	if entry == "" {
		entry = "main"
	}
	res, err := Compile(src, opts)
	if err != nil {
		return titan.Result{}, err
	}
	if _, ok := res.Machine.Funcs[entry]; !ok {
		return titan.Result{}, fmt.Errorf("driver: entry function %q is not defined (program defines: %s)",
			entry, strings.Join(sortedFuncNames(res.Machine), ", "))
	}
	m := titan.NewMachine(res.Machine, processors)
	defer m.Release()
	return m.Run(entry)
}

// WriteCatalogFromSource compiles a library source and writes its catalog.
func WriteCatalogFromSource(w io.Writer, src string) error {
	res := &Result{}
	if err := frontEnd(src, res); err != nil {
		return err
	}
	return inline.WriteCatalog(w, inline.BuildCatalog(res.IL))
}

// Disassemble renders the generated Titan code.
func Disassemble(res *Result) string {
	if res.Machine == nil {
		return ""
	}
	var sb strings.Builder
	for _, name := range sortedFuncNames(res.Machine) {
		sb.WriteString(res.Machine.Funcs[name].Disassemble())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func sortedFuncNames(tp *titan.Program) []string {
	names := make([]string, 0, len(tp.Funcs))
	for n := range tp.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

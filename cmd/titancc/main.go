// Command titancc compiles C for the simulated Titan.
//
// Usage:
//
//	titancc [flags] file.c
//
// Flags mirror the paper's compiler options:
//
//	-O0 / -O1        optimization level (default -O1)
//	-inline          enable inline expansion (§7)
//	-vector          enable vectorization (§5)
//	-parallel        enable do-parallel generation (§2)
//	-noalias         pointer parameters follow Fortran aliasing rules (§9)
//	-vl N            vector strip length (default 32, max titan.MaxVL)
//	-tune            autotune per-loop schedules: measure a bounded grid of
//	                 legal candidate schedules on the fast engine and compile
//	                 with the cycle-minimal set (each decision surfaces as a
//	                 sched-selected remark)
//	-catalog f.cat   attach a procedure catalog for inlining (repeatable)
//	-emit-catalog f  compile the unit into a catalog instead of code
//	-S               print Titan assembly
//	-il              print optimized IL
//	-run             simulate after compiling
//	-engine e        execution engine for -run: fast (default) or ref
//	-p N             processors for -run (1–4)
//	-entry name      entry function for -run (default main)
//	-stats           print a host throughput line after -run (wall time,
//	                 host instrs/sec, ns per simulated cycle, MFLOPS)
//	-cpuprofile f    write a CPU profile of the -run simulation to f
//	-memprofile f    write an allocation profile to f on exit
//
// Pipeline instrumentation (the pass manager's report and snapshot hook):
//
//	-time-passes     print per-pass wall time and IL statement deltas
//	-dump-after=p    print the IL snapshot after pass p (e.g. scalarize,
//	                 vectorize, strength; "lower" is the pre-pass IL)
//	-remarks         print the structured diagnostics the pipeline emitted:
//	                 per-loop vectorize/parallelize verdicts, inline
//	                 decisions, scalar-opt rewrites — one line each, sorted
//	                 by procedure and source position
//	-remarks=json    the same stream as a JSON array (the service's diag
//	                 wire form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"time"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/inline"
	"repro/internal/pass"
	"repro/internal/profiling"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/tune"
)

type catalogList []string

func (c *catalogList) String() string     { return fmt.Sprint(*c) }
func (c *catalogList) Set(s string) error { *c = append(*c, s); return nil }

// remarksFlag is the -remarks mode: "" (off), "text" (bare -remarks), or
// "json" (-remarks=json).
type remarksFlag struct{ mode string }

func (f *remarksFlag) String() string   { return f.mode }
func (f *remarksFlag) IsBoolFlag() bool { return true }

func (f *remarksFlag) Set(s string) error {
	switch s {
	case "true", "text":
		f.mode = "text"
	case "json":
		f.mode = "json"
	case "false":
		f.mode = ""
	default:
		return fmt.Errorf("unknown remarks format %q (want text or json)", s)
	}
	return nil
}

func main() {
	var (
		o0         = flag.Bool("O0", false, "disable optimization")
		doInline   = flag.Bool("inline", false, "enable inline expansion")
		doVector   = flag.Bool("vector", false, "enable vectorization")
		doPar      = flag.Bool("parallel", false, "enable parallelization")
		noAlias    = flag.Bool("noalias", false, "pointer params follow Fortran aliasing rules")
		listPar    = flag.Bool("list-parallel", false, "parallelize linked-list loops (asserts §10's independent-storage assumption)")
		vl         = flag.Int("vl", 0, "vector strip length")
		doTune     = flag.Bool("tune", false, "autotune per-loop schedules on the fast engine before compiling")
		emitCat    = flag.String("emit-catalog", "", "write a procedure catalog instead of compiling")
		asm        = flag.Bool("S", false, "print Titan assembly")
		dumpIL     = flag.Bool("il", false, "print optimized IL")
		runIt      = flag.Bool("run", false, "simulate after compiling")
		engine     = flag.String("engine", "fast", "execution engine for -run: fast or ref")
		procs      = flag.Int("p", 1, "processors for -run")
		entry      = flag.String("entry", "main", "entry function for -run")
		stats      = flag.Bool("stats", false, "print host simulation throughput after -run")
		cpuprofile = flag.String("cpuprofile", "", "write CPU profile of the -run simulation to file")
		memprofile = flag.String("memprofile", "", "write allocation profile to file")
		timePasses = flag.Bool("time-passes", false, "print per-pass wall time and IL statement deltas")
		dumpAfter  = flag.String("dump-after", "", "print the IL snapshot after the named pass")
		catalogs   catalogList
		remarks    remarksFlag
	)
	flag.Var(&catalogs, "catalog", "attach a procedure catalog (repeatable)")
	flag.Var(&remarks, "remarks", "print pipeline diagnostics (text, or -remarks=json)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: titancc [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	if *engine != "fast" && *engine != "ref" {
		fatal(fmt.Errorf("unknown engine %q (want fast or ref)", *engine))
	}
	if *runIt {
		if err := titan.ValidateProcessors(*procs); err != nil {
			fatal(err)
		}
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *emitCat != "" {
		f, err := os.Create(*emitCat)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := driver.WriteCatalogFromSource(f, string(src)); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote catalog %s\n", *emitCat)
		return
	}

	if *vl != 0 {
		if err := schedule.ValidateVL(*vl); err != nil {
			fatal(err)
		}
	}
	opts := driver.Options{
		OptLevel:       1,
		Inline:         *doInline,
		Vectorize:      *doVector,
		Parallelize:    *doPar,
		ListParallel:   *listPar,
		NoAlias:        *noAlias,
		VL:             *vl,
		StrengthReduce: true,
	}
	if *o0 {
		opts.OptLevel = 0
		opts.StrengthReduce = false
	}
	for _, path := range catalogs {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		cat, err := inline.ReadCatalog(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		opts.Catalogs = append(opts.Catalogs, cat)
	}

	ctx := pass.NewContext()
	if *doTune {
		tres, err := tune.Tune(string(src), opts, tune.Config{Processors: *procs, Entry: *entry})
		if err != nil {
			fatal(err)
		}
		for _, d := range tres.Remarks() {
			ctx.Diags.Report(d)
		}
		ctx.Schedules = tres.Schedules
	}
	var dumped string
	if *dumpAfter != "" {
		ctx.Snapshot = func(name string, prog *il.Program) {
			if name == *dumpAfter {
				dumped = prog.String()
			}
		}
	}

	res, err := driver.CompileWith(string(src), opts, ctx)
	if err != nil {
		// Front-end failures land on the context as positioned error
		// diagnostics; with -remarks the structured form is shown too.
		printRemarks(remarks.mode, ctx.Diags.All())
		fatal(err)
	}
	printRemarks(remarks.mode, ctx.Diags.All())
	if *dumpAfter != "" {
		if dumped == "" {
			fatal(fmt.Errorf("no pass named %q ran (pipeline: lower %v)",
				*dumpAfter, pass.NewManager(opts).Passes()))
		}
		fmt.Printf("==== after %s ====\n%s", *dumpAfter, dumped)
	}
	if *timePasses {
		fmt.Print(res.Report.String())
	}
	if *dumpIL {
		fmt.Print(driver.DumpIL(res))
	}
	if *asm {
		fmt.Print(driver.Disassemble(res))
	}
	if *runIt {
		if _, ok := res.Machine.Funcs[*entry]; !ok {
			fatal(fmt.Errorf("entry function %q is not defined", *entry))
		}
		stopCPU, err := profiling.StartCPU(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		m := titan.NewMachine(res.Machine, *procs)
		start := time.Now()
		var r titan.Result
		if *engine == "ref" {
			r, err = m.RunReference(*entry)
		} else {
			r, err = m.Run(*entry)
		}
		wall := time.Since(start)
		m.Release()
		stopCPU()
		if err != nil {
			fatal(err)
		}
		fmt.Print(r.Output)
		fmt.Println(driver.FormatResult(r, *procs))
		if *stats {
			fmt.Println(profiling.FormatStats(r, wall))
		}
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fatal(err)
		}
	}
	if !*dumpIL && !*asm && !*runIt && !*timePasses && *dumpAfter == "" && remarks.mode == "" {
		fmt.Printf("compiled %s: %d procedures, %d inlined calls, %d vector stmts, %d parallel loops\n",
			flag.Arg(0), len(res.IL.Procs), res.InlinedCalls,
			res.VectorStats.VectorStmts, res.VectorStats.ParallelLoops+res.ParallelStats.LoopsParallelized)
	}
}

// printRemarks writes the diagnostic stream in the chosen -remarks mode;
// mode "" is off.
func printRemarks(mode string, ds []diag.Diagnostic) {
	switch mode {
	case "text":
		for _, d := range ds {
			fmt.Println(d.String())
		}
	case "json":
		out, err := json.MarshalIndent(ds, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "titancc:", err)
	os.Exit(1)
}

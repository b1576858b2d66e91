// Command titancc compiles C for the simulated Titan with the paper's
// compiler options — -inline (§7), -vector (§5), -parallel (§2),
// -noalias (§9) — and shows what the compiler did: the optimized IL
// (-il), the assembly (-S), the IL at every pass boundary
// (-dump-after=all), per-pass costs (-time-passes) and the per-loop
// verdicts (-remarks). With -run it simulates the program; -run -table
// measures the paper's evaluation contrast instead (scalar -O1,
// +strength, +vector, +parallel at -p processors). titancc -h lists
// every flag.
//
// Usage:
//
//	titancc [flags] file.c
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/inline"
	"repro/internal/pass"
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

// errUsage reports a command line the flag set already complained about.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == errUsage:
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "titancc:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes everything but
// usage errors to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("titancc", flag.ContinueOnError)
	var (
		o0         = fs.Bool("O0", false, "disable optimization (the default is -O1)")
		doInline   = fs.Bool("inline", false, "enable inline expansion (§7)")
		doVector   = fs.Bool("vector", false, "enable vectorization (§5)")
		doPar      = fs.Bool("parallel", false, "enable do-parallel generation (§2)")
		noAlias    = fs.Bool("noalias", false, "pointer parameters follow Fortran aliasing rules (§9)")
		listPar    = fs.Bool("list-parallel", false, "parallelize linked-list loops (asserts §10's independent-storage assumption)")
		vl         = fs.Int("vl", 0, "vector strip length (default 32, at most titan.MaxVL)")
		doTune     = fs.Bool("tune", false, "autotune per-loop schedules: measure legal candidates on the fast engine, compile with the cycle-minimal set")
		emitCat    = fs.String("emit-catalog", "", "compile the unit into a procedure catalog `file` instead of code")
		asm        = fs.Bool("S", false, "print Titan assembly")
		dumpIL     = fs.Bool("il", false, "print optimized IL")
		runIt      = fs.Bool("run", false, "simulate after compiling")
		table      = fs.Bool("table", false, "with -run, tabulate scalar -O1, +strength, +vector and +parallel builds at -p instead (the optimization flags do not apply)")
		engine     = fs.String("engine", "fast", "execution engine for -run: fast or ref")
		procs      = fs.Int("p", 1, "processors for -run (1-4)")
		entry      = fs.String("entry", "main", "entry function for -run")
		stats      = fs.Bool("stats", false, "after each simulation print host wall time, host instrs/sec, ns per simulated cycle and the run's sync, mask and per-processor statistics")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the -run simulations to `file`")
		memprofile = fs.String("memprofile", "", "write an allocation profile to `file` after -run")
		timePasses = fs.Bool("time-passes", false, "print per-pass wall time and IL statement deltas")
		dumpAfter  = fs.String("dump-after", "", "print the IL snapshot after the named `pass` (lower is the pre-pass IL), or all of them")
		catalogs   catalogList
		remarks    remarksFlag
	)
	fs.Var(&catalogs, "catalog", "attach a procedure catalog (repeatable)")
	fs.Var(&remarks, "remarks", "print the pipeline's diagnostics, one line each (-remarks=json: the service's JSON form)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(fs.Output(), "usage: titancc [flags] file.c")
		fs.PrintDefaults()
		return errUsage
	}
	if *engine != "fast" && *engine != "ref" {
		return fmt.Errorf("unknown engine %q (want fast or ref)", *engine)
	}
	if *table && !*runIt {
		return errors.New("-table needs -run")
	}
	if *runIt {
		if err := titan.ValidateProcessors(*procs); err != nil {
			return err
		}
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	if *emitCat != "" {
		f, err := os.Create(*emitCat)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := driver.WriteCatalogFromSource(f, string(src)); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote catalog %s\n", *emitCat)
		return nil
	}

	if *vl != 0 {
		if err := schedule.ValidateVL(*vl); err != nil {
			return err
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
	}
	for _, path := range catalogs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		cat, err := inline.ReadCatalog(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		opts.Catalogs = append(opts.Catalogs, cat)
	}

	ctx := pass.NewContext()
	if *doTune {
		tres, err := tune.Tune(string(src), opts, tune.Config{Processors: *procs, Entry: *entry})
		if err != nil {
			return err
		}
		for _, d := range tres.Remarks() {
			ctx.Diags.Report(d)
		}
		ctx.Schedules = tres.Schedules
	}
	var snaps []snapshot
	if *dumpAfter != "" {
		ctx.Snapshot = func(name string, prog *il.Program) {
			snaps = append(snaps, snapshot{name, prog.String()})
		}
	}

	res, err := driver.CompileWith(string(src), opts, ctx)
	// Front-end failures land on the context as positioned error
	// diagnostics; with -remarks the structured form is shown too.
	if err := printRemarks(w, remarks.mode, ctx.Diags.All()); err != nil {
		return err
	}
	if err != nil {
		return err
	}
	if *dumpAfter != "" {
		if !printSnapshots(w, snaps, *dumpAfter) {
			return fmt.Errorf("no pass named %q ran (pipeline: lower %v)",
				*dumpAfter, pass.NewManager(opts.Plan()).Passes())
		}
	}
	if *timePasses {
		fmt.Fprint(w, res.Report.String())
	}
	if *dumpIL {
		fmt.Fprint(w, res.IL.String())
	}
	if *asm {
		fmt.Fprint(w, driver.Disassemble(res))
	}
	if *runIt {
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		sim := simulator{entry: *entry, engine: *engine, stats: *stats}
		if *table {
			err = sim.table(w, string(src), *procs)
		} else {
			var r titan.Result
			if r, err = sim.run(w, res, *procs); err == nil {
				fmt.Fprintf(w, "exit=%d cycles=%d instrs=%d flops=%d mflops=%.2f procs=%d\n",
					r.ExitCode, r.Cycles, r.Instrs, r.FlopCount, r.MFLOPS(), *procs)
			}
		}
		if err != nil {
			return err
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // profile live objects, not collection timing
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
	}
	if !*dumpIL && !*asm && !*runIt && !*timePasses && *dumpAfter == "" && remarks.mode == "" {
		fmt.Fprintf(w, "compiled %s: %d procedures, %d inlined calls, %d vector stmts, %d parallel loops\n",
			fs.Arg(0), len(res.IL.Procs), res.Report.Inline.CallsExpanded,
			res.Report.Vector.VectorStmts, res.Report.Vector.ParallelLoops+res.Report.Parallel.LoopsParallelized)
	}
	return nil
}

// snapshot is the IL the pass manager's hook saw at one pass boundary.
type snapshot struct{ name, text string }

// printSnapshots writes the snapshot after the named pass, or with "all"
// every snapshot, each under a header with its phase number (0 is the
// lowered IL). It reports whether any snapshot matched.
func printSnapshots(w io.Writer, snaps []snapshot, after string) bool {
	shown := false
	for i, s := range snaps {
		if after != "all" && s.name != after {
			continue
		}
		header := "after " + s.name
		if s.name == pass.SnapshotInput {
			header = "lowered IL"
		}
		fmt.Fprintf(w, "==== phase %d: %s ====\n%s\n", i, header, s.text)
		shown = true
	}
	return shown
}

// printRemarks writes the diagnostic stream in the chosen -remarks mode;
// mode "" is off.
func printRemarks(w io.Writer, mode string, ds []diag.Diagnostic) error {
	switch mode {
	case "text":
		for _, d := range ds {
			fmt.Fprintln(w, d.String())
		}
	case "json":
		out, err := json.MarshalIndent(ds, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(out))
	}
	return nil
}

// simulator is the -run configuration shared by a single run and by the
// rows of -table.
type simulator struct {
	entry, engine string
	stats         bool
}

// run simulates res on procs processors and writes the program's output,
// then with -stats the host throughput line.
func (s simulator) run(w io.Writer, res *driver.Result, procs int) (titan.Result, error) {
	if _, ok := res.Machine.Funcs[s.entry]; !ok {
		return titan.Result{}, fmt.Errorf("entry function %q is not defined", s.entry)
	}
	m := titan.NewMachine(res.Machine, procs)
	run := m.Run
	if s.engine == "ref" {
		run = m.RunReference
	}
	start := time.Now()
	r, err := run(s.entry)
	wall := time.Since(start)
	m.Release() // the next simulation's machine reuses it
	if err != nil {
		return r, err
	}
	fmt.Fprint(w, r.Output)
	if s.stats {
		fmt.Fprintln(w, formatStats(r, wall))
	}
	return r, nil
}

// table compiles src under the paper's evaluation contrast and simulates
// each build, then writes one row per build: cycles, instructions, flops,
// MFLOPS and the speedup over the scalar -O1 row.
func (s simulator) table(w io.Writer, src string, procs int) error {
	rows := []struct {
		name  string
		opts  driver.Options
		procs int
	}{
		{"scalar -O1", driver.Options{OptLevel: 1}, 1},
		{"+strength (§6)", driver.ScalarOptions(), 1},
		{"+vector (§5)", driver.Options{OptLevel: 1, Inline: true, Vectorize: true, StrengthReduce: true}, 1},
		{fmt.Sprintf("+parallel ×%d (§2)", procs), driver.FullOptions(), procs},
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tprocs\tcycles\tinstrs\tflops\tMFLOPS\tspeedup")
	var base int64
	for _, row := range rows {
		res, err := driver.Compile(src, row.opts)
		if err != nil {
			return err
		}
		r, err := s.run(w, res, row.procs)
		if err != nil {
			return err
		}
		if base == 0 {
			base = r.Cycles
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\t%.2fx\n",
			row.name, row.procs, r.Cycles, r.Instrs, r.FlopCount, r.MFLOPS(),
			float64(base)/float64(r.Cycles))
	}
	return tw.Flush()
}

// formatStats is the -stats line: host wall time of the simulation, the
// host's simulation throughput (simulated instructions and cycles per
// host second) and the modelled machine's own speed, then the run's
// statistics as titand's run object spells them.
func formatStats(r titan.Result, wall time.Duration) string {
	instrsPerSec, nsPerCycle := 0.0, 0.0
	if secs := wall.Seconds(); secs > 0 {
		instrsPerSec = float64(r.Instrs) / secs
	}
	if r.Cycles > 0 {
		nsPerCycle = float64(wall.Nanoseconds()) / float64(r.Cycles)
	}
	r.Output = ""             // already printed
	run, _ := json.Marshal(r) // a Result always marshals
	return fmt.Sprintf("stats: wall=%v host_instrs_per_sec=%.0f ns_per_sim_cycle=%.2f sim_mflops=%.2f run=%s",
		wall.Round(time.Microsecond), instrsPerSec, nsPerCycle, r.MFLOPS(), run)
}

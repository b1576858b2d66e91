// Command titanrun compiles a C file with the full optimization pipeline
// and runs it on the simulated Titan at several processor counts, printing
// a cycles/MFLOPS table — the quick way to reproduce the paper's speedup
// shapes.
//
// Usage:
//
//	titanrun [-configs] file.c
//
// With -configs, the program is compiled and measured under four
// configurations (scalar, +strength, +vector, +vector+parallel) the way
// the paper's evaluation contrasts them.
//
// Host-side measurement of the simulator itself:
//
//	-engine fast|ref  execution engine: the fast engine (default) or the
//	                  reference interpreter it is differenced against
//	-stats            print a host throughput line per run (wall time,
//	                  host instrs/sec, ns per simulated cycle, MFLOPS)
//	-cpuprofile f     write a CPU profile of the simulation(s) to f
//	-memprofile f     write an allocation profile to f on exit
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/driver"
	"repro/internal/profiling"
	"repro/internal/titan"
)

func main() {
	configs := flag.Bool("configs", false, "sweep optimization configurations")
	procs := flag.Int("p", 2, "max processors for parallel configs")
	entry := flag.String("entry", "main", "entry function to simulate")
	engine := flag.String("engine", "fast", "execution engine: fast or ref")
	stats := flag.Bool("stats", false, "print host simulation throughput per run")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write allocation profile to file")
	flag.Parse()
	if *engine != "fast" && *engine != "ref" {
		fatal(fmt.Errorf("unknown engine %q (want fast or ref)", *engine))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: titanrun [-configs] file.c")
		os.Exit(2)
	}
	if err := titan.ValidateProcessors(*procs); err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	type cfg struct {
		name  string
		opts  driver.Options
		procs int
	}
	var cfgs []cfg
	if *configs {
		cfgs = []cfg{
			{"scalar -O1", driver.Options{OptLevel: 1}, 1},
			{"+strength (§6)", driver.ScalarOptions(), 1},
			{"+vector (§5)", driver.Options{OptLevel: 1, Inline: true, Vectorize: true, StrengthReduce: true}, 1},
			{fmt.Sprintf("+parallel ×%d (§2)", *procs), driver.FullOptions(), *procs},
		}
	} else {
		cfgs = []cfg{{"full", driver.FullOptions(), *procs}}
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "config\tprocs\tcycles\tinstrs\tflops\tMFLOPS\tspeedup")
	var base int64
	for _, c := range cfgs {
		res, err := driver.Compile(string(src), c.opts)
		if err != nil {
			fatal(err)
		}
		if _, ok := res.Machine.Funcs[*entry]; !ok {
			fatal(fmt.Errorf("entry function %q is not defined", *entry))
		}
		m := titan.NewMachine(res.Machine, c.procs)
		start := time.Now()
		var r titan.Result
		if *engine == "ref" {
			r, err = m.RunReference(*entry)
		} else {
			r, err = m.Run(*entry)
		}
		wall := time.Since(start)
		m.Release() // the next configuration's machine reuses it
		if err != nil {
			fatal(err)
		}
		if r.Output != "" {
			fmt.Print(r.Output)
		}
		if *stats {
			fmt.Println(profiling.FormatStats(r, wall))
		}
		if base == 0 {
			base = r.Cycles
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t%.2fx\n",
			c.name, c.procs, r.Cycles, r.Instrs, r.FlopCount, r.MFLOPS(),
			float64(base)/float64(r.Cycles))
	}
	w.Flush()
	stopCPU()
	if err := profiling.WriteHeap(*memprofile); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "titanrun:", err)
	os.Exit(1)
}

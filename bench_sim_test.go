package repro

// Simulation-throughput benchmarks for the fast Titan execution engine:
// host ns per simulated cycle of titan.Machine.Run (the engine) vs
// RunReference (the reference interpreter) on the E-series evaluation
// workloads at one processor and on a large synthetic doall at four.
// Besides the standard benchmark output, every measured sub-benchmark is
// recorded and TestMain writes the set — plus the engine/reference
// speedups the change claims — to BENCH_sim.json so CI can archive the
// numbers per commit:
//
//	go test -run=NONE -bench=Simulate -benchtime=1x .
//
// Each row carries ns_per_op, the workload's simulated cycle count,
// host ns per simulated cycle, the modelled machine's simulated MFLOPS,
// and allocs/op.

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/titan"
)

// simBenchRow is one sub-benchmark's result as written to BENCH_sim.json.
type simBenchRow struct {
	Name          string  `json:"name"`
	Workload      string  `json:"workload"`
	Engine        string  `json:"engine"` // "fast" or "ref"
	Processors    int     `json:"processors"`
	N             int     `json:"n"`
	NsPerOp       float64 `json:"ns_per_op"`
	SimCycles     int64   `json:"sim_cycles"`
	NsPerSimCycle float64 `json:"ns_per_sim_cycle"`
	SimMFLOPS     float64 `json:"sim_mflops"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

var simBench struct {
	mu   sync.Mutex
	rows []simBenchRow
}

// recordSimBench keeps one row per sub-benchmark: the fastest
// measurement across b.N calibration stages and -count repetitions.
// Minimum-of-runs is the standard noise-robust estimator — on a shared
// host the fastest run is the one with the least interference — with a
// guard so a lucky one-iteration calibration run cannot displace a
// long measurement.
func recordSimBench(r simBenchRow) {
	simBench.mu.Lock()
	defer simBench.mu.Unlock()
	for i := range simBench.rows {
		old := &simBench.rows[i]
		if old.Name == r.Name {
			if r.NsPerSimCycle < old.NsPerSimCycle && 10*r.N >= old.N {
				*old = r
			}
			return
		}
	}
	simBench.rows = append(simBench.rows, r)
}

// simBenchSpeedups distills the recorded rows into the two headline
// ratios: reference ns-per-simulated-cycle over engine
// ns-per-simulated-cycle, as a geometric mean across the E-series at one
// processor and directly on the synthetic doall at four.
func simBenchSpeedups(rows []simBenchRow) (eseriesGeomean, doallP4 float64) {
	type pair struct{ fast, ref float64 }
	byKey := map[string]*pair{}
	for _, r := range rows {
		key := r.Workload + "/p" + strconv.Itoa(r.Processors)
		p := byKey[key]
		if p == nil {
			p = &pair{}
			byKey[key] = p
		}
		if r.Engine == "fast" {
			p.fast = r.NsPerSimCycle
		} else {
			p.ref = r.NsPerSimCycle
		}
	}
	prod, n := 1.0, 0
	for key, p := range byKey {
		if p.fast <= 0 || p.ref <= 0 {
			continue
		}
		switch {
		case key == "syntheticdoall/p4":
			doallP4 = p.ref / p.fast
		case strings.HasSuffix(key, "/p1") && !strings.HasPrefix(key, "syntheticdoall"):
			prod *= p.ref / p.fast
			n++
		}
	}
	if n > 0 {
		eseriesGeomean = math.Pow(prod, 1.0/float64(n))
	}
	return eseriesGeomean, doallP4
}

// benchSimulate measures one engine on one compiled workload at one
// processor count, recording the row for the JSON artifact. The machine
// is rebuilt every iteration (machines are single-use); the program is
// compiled and decoded once outside the timed region.
func benchSimulate(b *testing.B, prog *titan.Program, workload string, procs int, fast bool) {
	run := func() (titan.Result, error) {
		m := titan.NewMachine(prog, procs)
		if fast {
			return m.Run("main")
		}
		return m.RunReference("main")
	}
	first, err := run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Machines are single-use; build each outside the timed
		// region so ns/op measures engine execution, not the cost of
		// building the machine (identical for both engines).
		b.StopTimer()
		m := titan.NewMachine(prog, procs)
		b.StartTimer()
		var res titan.Result
		if fast {
			res, err = m.Run("main")
		} else {
			res, err = m.RunReference("main")
		}
		if err != nil {
			b.Fatal(err)
		}
		if res != first {
			b.Fatal("nondeterministic result")
		}
	}
	b.StopTimer()
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	engine := "ref"
	if fast {
		engine = "fast"
	}
	recordSimBench(simBenchRow{
		Name:          b.Name(),
		Workload:      workload,
		Engine:        engine,
		Processors:    procs,
		N:             b.N,
		NsPerOp:       nsPerOp,
		SimCycles:     first.Cycles,
		NsPerSimCycle: nsPerOp / float64(first.Cycles),
		SimMFLOPS:     first.MFLOPS(),
		AllocsPerOp:   float64(testing.AllocsPerRun(1, func() { _, _ = run() })),
	})
}

// BenchmarkSimulate is the engine-vs-reference suite: every E-series
// workload at one processor, and the large synthetic doall at four
// (where the reference serializes four full per-processor interpreter
// passes per region). The fast/ref pairs on identical programs are the
// measured claim of this change.
func BenchmarkSimulate(b *testing.B) {
	// The E-series at benchmark size (well above the differential
	// tests' 512) so simulated work dominates each run, plus the
	// parallel doall sized for many strips per processor per region.
	workloads := []bench.Workload{
		bench.Backsolve(4096),
		bench.Daxpy(16384),
		bench.CopyLoop(16384),
		bench.ReverseAxpy(16384),
		bench.VectorAdd(16384),
		bench.Transform4x4(4096),
		bench.SyntheticDoall(16384, 8),
	}
	for _, w := range workloads {
		w := w
		name, procs := w.Name, 1
		if w.Name == "syntheticdoall" {
			procs = 4
		}
		res, err := driver.Compile(w.Src, driver.FullOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []string{"fast", "ref"} {
			eng := eng
			b.Run(name+"/p"+strconv.Itoa(procs)+"/"+eng, func(b *testing.B) {
				benchSimulate(b, res.Machine, name, procs, eng == "fast")
			})
		}
	}
}

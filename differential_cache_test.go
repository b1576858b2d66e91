package repro_test

// Differential tests for the incremental analysis engine: compiling with
// the analysis cache (the pass manager's default) must be observably
// identical to compiling with caching disabled (pass.Context.Analysis =
// nil, the pre-cache behavior). "Identical" is checked at three levels —
// the optimized IL text, the per-phase stats, and the simulated cycle
// counts of the generated Titan code — over the paper's evaluation
// workloads, so a stale cache entry that survives a rewrite cannot hide.

import (
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/pass"
	"repro/internal/titan"
)

// evalWorkloads is the E-series corpus the differential check runs over,
// at the kernels' small sizes: recurrences, pointer loops, while→DO
// conversions, auxiliary induction variables, and struct-embedded arrays
// each stress different cache-invalidation paths.
func evalWorkloads() []bench.Workload {
	return bench.Small(repro.ESeries)
}

// compileAndSimulate compiles src under opts with the given analysis
// cache (nil = caching off) and runs the result, returning the compile
// artifacts and the simulation outcome.
func compileAndSimulate(t *testing.T, src string, opts driver.Options, ac *analysis.Cache) (*driver.Result, titan.Result) {
	t.Helper()
	ctx := pass.NewContext()
	ctx.Analysis = ac
	res, err := driver.CompileWith(src, opts, ctx)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := titan.NewMachine(res.Machine, 4)
	r, err := m.Run("main")
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return res, r
}

// TestCacheDifferentialIdentical: cache-on vs cache-off must produce
// bit-identical IL, identical phase stats, and identical simulated
// cycles on every evaluation workload under both the scalar and the
// full configuration. Beyond the E-series, the corpus has many procedures
// with while→DO splices (bench.RaceProgram), a masked loop (clip), a DOACROSS
// loop (lagrec3) and a unit in the benchmark's compile shapes
// (bench.ManyProcs), so shape-keyed chains that outlive copy and constant
// propagation meet every later phase. The cache re-solves a stale
// procedure into its old solution's storage and the uncached run solves
// into fresh storage every time, so this also compares recycled storage
// against fresh.
func TestCacheDifferentialIdentical(t *testing.T) {
	workloads := append(evalWorkloads(), bench.Kernel("clip", 256), bench.Kernel("lagrec3", 256),
		bench.RaceProgram(12), bench.ManyProcs())
	configs := []struct {
		name string
		opts driver.Options
	}{
		{"scalar", driver.ScalarOptions()},
		{"full", driver.FullOptions()},
	}
	for _, w := range workloads {
		for _, cfg := range configs {
			t.Run(w.Name+"/"+cfg.name, func(t *testing.T) {
				on, ron := compileAndSimulate(t, w.Src, cfg.opts, analysis.NewCache())
				off, roff := compileAndSimulate(t, w.Src, cfg.opts, nil)

				if got, want := on.IL.String(), off.IL.String(); got != want {
					t.Errorf("IL differs with cache on:\n--- cached ---\n%s\n--- uncached ---\n%s", got, want)
				}
				if on.Report.Vector != off.Report.Vector {
					t.Errorf("vector stats differ: cached %+v, uncached %+v", on.Report.Vector, off.Report.Vector)
				}
				if on.Report.Parallel != off.Report.Parallel {
					t.Errorf("parallel stats differ: cached %+v, uncached %+v", on.Report.Parallel, off.Report.Parallel)
				}
				if on.Report.Strength != off.Report.Strength {
					t.Errorf("strength stats differ: cached %+v, uncached %+v", on.Report.Strength, off.Report.Strength)
				}
				if ron.Cycles != roff.Cycles || ron.FlopCount != roff.FlopCount || ron.ExitCode != roff.ExitCode {
					t.Errorf("simulation differs: cached cycles=%d flops=%d exit=%d, uncached cycles=%d flops=%d exit=%d",
						ron.Cycles, ron.FlopCount, ron.ExitCode, roff.Cycles, roff.FlopCount, roff.ExitCode)
				}

				// The cached run must actually have exercised the cache,
				// and the uncached run must report nothing.
				st := on.Report.Analysis
				if st.DataflowMisses == 0 {
					t.Errorf("cached run recorded no dataflow activity: %+v", st)
				}
				if st.DataflowHits == 0 {
					t.Errorf("cached run never hit the dataflow cache: %+v", st)
				}
				if off.Report.Analysis != (analysis.Stats{}) {
					t.Errorf("uncached run reported cache stats: %+v", off.Report.Analysis)
				}
			})
		}
	}
}

// TestAnalysisCacheConcurrent hammers one shared analysis cache through
// the pass manager's worker pool: a program with many loop procedures,
// compiled repeatedly with a wide worker pool, plus several whole
// compiles in flight at once. Run under -race this is the data-race
// check for the cache's locking; under plain `go test` it still verifies
// the concurrent result matches the serial one.
func TestAnalysisCacheConcurrent(t *testing.T) {
	src := bench.RaceProgram(12).Src
	opts := driver.FullOptions()

	serial := func() string {
		ctx := pass.NewContext()
		ctx.Workers = 1
		res, err := driver.CompileILWith(src, opts, ctx)
		if err != nil {
			t.Fatalf("serial compile: %v", err)
		}
		return res.IL.String()
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				ctx := pass.NewContext()
				ctx.Workers = 2 * runtime.GOMAXPROCS(0)
				res, err := driver.CompileILWith(src, opts, ctx)
				if err != nil {
					t.Errorf("concurrent compile: %v", err)
					return
				}
				if got := res.IL.String(); got != serial {
					t.Errorf("concurrent compile produced different IL than serial compile")
					return
				}
			}
		}()
	}
	wg.Wait()
}

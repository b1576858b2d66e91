// Command benchmark is the repository's one layered benchmark: five
// workloads over the compiler, the Titan simulator and the titand service,
// every end-to-end metric from an untraced run and every per-layer metric
// from a traced run of the same inputs. README.md in this directory has
// the metric tables and the method; BENCHMARK.json at the repository root
// is the contract the numbers are judged by.
//
//	go run ./benchmark                      end-to-end metrics, every workload
//	go run ./benchmark -trace 1             per-layer metrics, every workload
//	go run ./benchmark -workload compile    one workload, in this process
//	go run ./benchmark -selfcheck           two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	rounds    = 5 // the timed section is this many equal rounds; metrics are medians over them
	setupRuns = 3 // set-up is repeated and setup_s is the median
)

// scratchDir holds everything a run writes: disk cache tiers and traces.
// It sits under the directory the build goes to, inside the checkout.
var scratchDir = filepath.Join(".bench_build", "tmp")

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, one process each)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed section")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end set twice and compare against each metric's bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *out)
	case *name == "":
		var reports map[string]report
		if reports, err = runAll(*seed, *seconds, *trace, *out); err == nil {
			printTable(reports, *trace != 0)
		}
	default:
		var rep report
		if *trace != 0 {
			rep, err = runTraced(*name, *seed, *seconds, *out)
		} else {
			rep, err = runTimed(*name, *seed, *seconds)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOps performs operations first .. first+n-1 from the workload's
// clients, each client taking the next index as soon as its previous
// operation returns (a closed loop).
func runOps(w workload, tr *tracer, first, n int) ([]opResult, float64) {
	results := make([]opResult, n)
	var next, reported atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := first + k
				opStart := time.Now()
				root := tr.begin(0, i, "op")
				err := w.do(tr, root, i, c)
				tr.end(root)
				results[k] = opResult{ns: float64(time.Since(opStart)), failed: err != nil}
				if err != nil && reported.Add(1) <= 5 {
					fmt.Fprintf(os.Stderr, "benchmark: operation %d failed: %v\n", i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	return results, float64(time.Since(start))
}

// prepare sets the workload up and runs the untimed pass over every
// distinct input. It returns how long that pass took, which sizes rounds.
func prepare(w workload, seed int64) (passNS float64, err error) {
	if err := w.setup(seed); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	results, passNS := runOps(w, nil, 0, w.passOps())
	for _, r := range results {
		if r.failed {
			return 0, errors.New("set-up: an operation of the untimed pass failed")
		}
	}
	return passNS, nil
}

// passesPerRound fits whole passes into a round of seconds/rounds.
func passesPerRound(seconds, passNS float64) int {
	return max(1, int(math.Round(seconds*1e9/rounds/passNS)))
}

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(name string, seed int64, seconds float64) (report, error) {
	w, err := newWorkload(name)
	if err != nil {
		return report{}, err
	}
	defer w.close()

	var setups []float64
	var passNS float64
	for s := 0; s < setupRuns; s++ {
		if s > 0 {
			w.close()
		}
		start := time.Now()
		if passNS, err = prepare(w, seed); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	perRound := passesPerRound(seconds, passNS) * w.passOps()
	stats := make([]roundStats, rounds)
	rep := report{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := range stats {
		results, wallNS := runOps(w, nil, w.passOps()+r*perRound, perRound)
		stats[r] = summarizeRound(results, wallNS)
		rep.Attempted += stats[r].ops
		rep.Failed += stats[r].failed
		fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %d ops in %.2f s, p50 %.3f ms, p99 %.3f ms\n",
			name, r+1, stats[r].ops, wallNS/1e9, stats[r].p50ms, stats[r].p99ms)
	}
	runtime.ReadMemStats(&after)
	finishErr := w.finish()
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: final check failed:", finishErr)
	}

	// Last, so that this pass is in no other number: the simulated-cycle
	// metrics of the build under test.
	var q quality
	if kw, ok := w.(*kernelsWorkload); ok {
		q, err = kw.quality()
	} else {
		q, err = measureQuality()
	}
	if err != nil {
		return report{}, fmt.Errorf("simulated-cycle metrics: %w", err)
	}

	rep.Correct = rep.Failed == 0 && finishErr == nil
	rep.Metrics = metricSet(endToEnd, map[string]float64{
		"setup_s":                     median(setups),
		"ops_per_s":                   medianOfRounds(stats, func(r roundStats) float64 { return float64(r.ops-r.failed) / (r.wallNS / 1e9) }),
		"op_ms_p50":                   medianOfRounds(stats, func(r roundStats) float64 { return r.p50ms }),
		"op_ms_p99":                   medianOfRounds(stats, func(r roundStats) float64 { return r.p99ms }),
		"allocs_per_op":               float64(after.Mallocs-before.Mallocs) / float64(rep.Attempted),
		"alloc_mb_per_op":             float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Attempted) / (1 << 20),
		"sim_cycles_scalar_geomean":   q.cycles[0],
		"sim_cycles_full_p1_geomean":  q.cycles[1],
		"sim_cycles_full_p4_geomean":  q.cycles[2],
		"sim_cycles_tuned_p4_geomean": q.cycles[3],
		"code_instrs_geomean":         q.instrs,
	})
	return rep, nil
}

// runTraced is the traced run: the per-layer metrics. It runs untraced
// rounds and then traced rounds of the same inputs in one process; the
// ratio of their per-operation wall times is the tracing overhead.
func runTraced(name string, seed int64, seconds float64, out string) (report, error) {
	w, err := newWorkload(name)
	if err != nil {
		return report{}, err
	}
	defer w.close()
	passNS, err := prepare(w, seed)
	if err != nil {
		return report{}, err
	}
	perRound := passesPerRound(seconds, passNS) * w.passOps()
	const each = 2 // rounds per side
	next := w.passOps()
	rep := report{}
	perOpNS := func(tr *tracer) float64 {
		var vals []float64
		for r := 0; r < each; r++ {
			results, wallNS := runOps(w, tr, next, perRound)
			next += perRound
			rs := summarizeRound(results, wallNS)
			rep.Attempted += rs.ops
			rep.Failed += rs.failed
			vals = append(vals, wallNS/float64(perRound))
		}
		return median(vals)
	}
	untraced := perOpNS(nil)
	if err := w.mark(); err != nil {
		return report{}, err
	}
	tr := newTracer()
	traced := perOpNS(tr)

	m := layerMetrics(tr.perOp())
	m["trace.overhead_ratio"] = ratio(traced, untraced)
	if m["process.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return report{}, err
	}
	if err := w.layers(m); err != nil {
		return report{}, fmt.Errorf("per-layer metrics: %w", err)
	}
	finishErr := w.finish()
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: final check failed:", finishErr)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return report{}, err
	}
	if err := tr.write(filepath.Join(out, "trace-"+name+".json")); err != nil {
		return report{}, err
	}
	rep.Correct = rep.Failed == 0 && finishErr == nil
	rep.Metrics = metricSet(perLayer, m)
	return rep, nil
}

// metricSet attaches units and makes sure exactly the defined metrics are
// printed; one that does not apply to the workload reads 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runAll runs every workload in a fresh process of this same binary, so
// heap state and the resident-set high-water mark do not carry over.
func runAll(seed int64, seconds float64, trace int, out string) (map[string]report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reports := map[string]report{}
	for _, name := range workloadNames {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return nil, fmt.Errorf("workload %s: reading its result: %w", name, err)
		}
		reports[name] = rep
	}
	return reports, nil
}

// printTable prints one row per metric and one column per workload.
func printTable(reports map[string]report, traced bool) {
	for _, name := range workloadNames {
		rep := reports[name]
		fmt.Printf("%s  attempted %d  failed %d  correct %v\n", name, rep.Attempted, rep.Failed, rep.Correct)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("\n%-32s %-7s", "metric", "unit")
	for _, name := range workloadNames {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-32s %-7s", d.Name, d.Unit)
		for _, name := range workloadNames {
			fmt.Printf(" %14.6g", reports[name].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
}

// selfCheck runs the end-to-end set twice and holds the second against the
// first with each metric's own bound: the tool for showing that two sets
// of runs of the same code agree.
func selfCheck(seed int64, seconds float64, out string) error {
	var sets [2]map[string]report
	for s := range sets {
		fmt.Fprintf(os.Stderr, "benchmark: set %d of 2\n", s+1)
		reps, err := runAll(seed, seconds, 0, out)
		if err != nil {
			return err
		}
		sets[s] = reps
	}
	failures := 0
	fmt.Printf("%-12s %-30s %14s %14s %9s %8s\n", "workload", "metric", "first", "second", "diff", "")
	for _, name := range workloadNames {
		for _, s := range sets {
			if !s[name].Correct {
				fmt.Printf("%-12s a run had failed operations\n", name)
				failures++
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][name].Metrics[d.Name].Value, sets[1][name].Metrics[d.Name].Value
			diff := ratio(b-a, a)
			verdict := "PASS"
			if math.Abs(diff) > d.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%-12s %-30s %14.6g %14.6g %+8.2f%% %8s\n", name, d.Name, a, b, 100*diff, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d comparisons outside their bounds", failures)
	}
	return nil
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
)

func TestPercentileMedianGeomean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a missing run = %g, want 0", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	// Four failed operations carry no latency; one spoiled round must not
	// move the reported median.
	round := func(ms float64, failed int) roundStats {
		results := make([]opResult, 10)
		for i := range results {
			results[i] = opResult{ns: ms * 1e6, failed: i < failed}
		}
		return summarizeRound(results, 1e9)
	}
	rs := []roundStats{round(2, 0), round(2, 0), round(50, 4), round(2, 0), round(3, 0)}
	if rs[2].failed != 4 || rs[2].ops != 10 {
		t.Fatalf("round 2: %+v", rs[2])
	}
	if got := medianOfRounds(rs, func(r roundStats) float64 { return r.p50ms }); got != 2 {
		t.Errorf("median of round medians = %g, want 2", got)
	}
	if got := medianOfRounds(rs, func(r roundStats) float64 { return float64(r.ops-r.failed) / (r.wallNS / 1e9) }); got != 10 {
		t.Errorf("median ops/s = %g, want 10", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 7, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 7, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 7, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Op: 7, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Op: 7, Name: "a.child", Start: 15, End: 20},
	}
	// op covers [10,60) and [90,100): 100 - 60 = 40 left over.
	want := []int64{40, 25, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := &tracer{spans: spans}
	tr.observe(7, "count", 2)
	tr.observe(7, "count", 3)
	tr.observe(8, "count", 1)
	po := tr.perOp()
	if po["op"][7] != 40 || po["count"][7] != 5 || po["count"][8] != 1 {
		t.Errorf("perOp = %v", po)
	}
	m := layerMetrics(map[string]map[int]float64{
		"parser.parse":     {1: 2e6, 2: 4e6, 3: 9e6},
		"analysis.hits":    {1: 3, 2: 1},
		"analysis.lookups": {1: 4, 2: 4},
	})
	if m["parser.parse_ms"] != 4 || m["analysis.hit_ratio"] != 0.5 {
		t.Errorf("layerMetrics: parse %g, hit ratio %g", m["parser.parse_ms"], m["analysis.hit_ratio"])
	}
}

// TestMirrorsExact shows that no kernel ever rounds: the same arithmetic
// at twice the precision gives the same checksum.
func TestMirrorsExact(t *testing.T) {
	for _, k := range kernels {
		if a, b := k.mirror32(), k.mirror64(); a != b {
			t.Errorf("%s: float32 mirror %d, float64 mirror %d", k.name, a, b)
		}
	}
}

// TestMirrorsHandComputed checks mirrors against closed forms worked out
// by hand.
func TestMirrorsHandComputed(t *testing.T) {
	// daxpy: a[i] = i + (512-i)/2, so 2a[i] = 512 + i.
	// copyloop: the first call copies all of src, dst[i] = i.
	// vectoradd: twelve additions of 2i+1.
	// sparsesaxpy: every fourth y gains 2*(i/8) twelve times, so 4y = 4 + 12i there.
	sum := func(f func(i int) int) int {
		s := 0
		for i := 0; i < 512; i++ {
			s += f(i)
		}
		return s % checksumMod
	}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"daxpy", mirrorDaxpy[float32](), sum(func(i int) int { return 512 + i })},
		{"copyloop", mirrorCopyloop[float32](), sum(func(i int) int { return i })},
		{"vectoradd", mirrorVectorAdd[float32](), sum(func(i int) int { return 12 * (2*i + 1) })},
		{"sparsesaxpy", mirrorSparseSaxpy[float32](), sum(func(i int) int {
			if i%4 == 0 {
				return 4 + 12*i
			}
			return 4
		})},
	} {
		if c.got != c.want {
			t.Errorf("%s mirror = %d, closed form %d", c.name, c.got, c.want)
		}
	}
	if got, want := sum(func(i int) int { return 512 + i }), 65355; got != want {
		t.Errorf("closed form of daxpy = %d, by hand %d", got, want)
	}
	if e := checksumExpectation(65355); e.exit != 65355%251 || e.output != "65355\n" {
		t.Errorf("checksumExpectation(65355) = %+v", e)
	}
}

// TestKernelShare holds every program to its contract: the kernel call is
// at least 80% of the scalar cycles, and O0, the compiler's plainest
// output, agrees with the mirror.
func TestKernelShare(t *testing.T) {
	for _, k := range kernels {
		src := k.source()
		if strings.Count(src, kernelMarker) != 1 {
			t.Fatalf("%s: want exactly one %s line", k.name, kernelMarker)
		}
		var without []string
		for _, line := range strings.Split(src, "\n") {
			if !strings.Contains(line, kernelMarker) {
				without = append(without, line)
			}
		}
		full, err := driver.Run(src, driver.ScalarOptions(), 1)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		rest, err := driver.Run(strings.Join(without, "\n"), driver.ScalarOptions(), 1)
		if err != nil {
			t.Fatalf("%s without its kernel: %v", k.name, err)
		}
		if share := 1 - float64(rest.Cycles)/float64(full.Cycles); share < 0.8 {
			t.Errorf("%s: kernel is %.0f%% of scalar cycles, want at least 80%%", k.name, 100*share)
		}
		plain, err := driver.Run(src, driver.Options{}, 1)
		if err != nil {
			t.Fatalf("%s at O0: %v", k.name, err)
		}
		if err := checkRun(plain.ExitCode, plain.Output, checksumExpectation(k.mirror32())); err != nil {
			t.Errorf("%s at O0: %v", k.name, err)
		}
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range []unitSpec{compileSpec, hotSpec} {
		a, b, c := genUnits(7, 3, spec, "t"), genUnits(7, 3, spec, "t"), genUnits(8, 3, spec, "t")
		if !reflect.DeepEqual(a, b) {
			t.Error("the same seed gave different units")
		}
		for k := range a {
			if a[k].src == c[k].src {
				t.Errorf("unit %d is the same under two seeds", k)
			}
		}
	}
	if churnUnit(7, 3) != churnUnit(7, 3) || churnUnit(7, 3).src == churnUnit(7, 4).src || churnUnit(7, 3).src == churnUnit(8, 3).src {
		t.Error("churn units are not a function of exactly (seed, index)")
	}

	stream := func(seed int64, backwards bool) []request {
		s := newChurnStream(seed)
		out := make([]request, 500)
		if backwards {
			s.at(len(out) - 1) // asked out of order, drawn in order all the same
		}
		for i := range out {
			out[i] = s.at(i)
		}
		return out
	}
	a := stream(7, false)
	if !reflect.DeepEqual(a, stream(7, true)) {
		t.Error("the same seed gave different request streams")
	}
	if reflect.DeepEqual(a, stream(8, false)) {
		t.Error("two seeds gave the same request stream")
	}
	fresh, newest := 0, churnWindow-1
	for i, r := range a {
		if r.node != i%2 {
			t.Fatalf("request %d goes to node %d", i, r.node)
		}
		if r.unit > newest {
			fresh, newest = fresh+1, r.unit
		} else if r.unit <= newest-churnWindow {
			t.Fatalf("request %d draws unit %d, outside the window below %d", i, r.unit, newest)
		}
	}
	if fresh != len(a)/churnBlock {
		t.Errorf("%d fresh units in %d requests, want one in %d", fresh, len(a), churnBlock)
	}
}

// TestGeneratedUnitsAgreeWithTheirMirror compiles a unit of every shape at
// the compiler's plainest and fullest settings and holds the simulated
// output to the generator's own arithmetic.
func TestGeneratedUnitsAgreeWithTheirMirror(t *testing.T) {
	spec := unitSpec{procs: len(allShapes), calls: 2, loops: 2, n: dim * dim, reps: 2, shapes: allShapes}
	for seed := int64(1); seed <= 8; seed++ { // each seed calls another pair of shapes
		u := genUnits(seed, 1, spec, "t")[0]
		for _, c := range []struct {
			opts       driver.Options
			processors int
		}{{driver.Options{}, 1}, {driver.FullOptions(), 4}} {
			r, err := driver.Run(u.src, c.opts, c.processors)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, u.src)
			}
			if err := checkRun(r.ExitCode, r.Output, u.want); err != nil {
				t.Errorf("seed %d, %d processors: %v", seed, c.processors, err)
			}
		}
	}
}

// TestWorkloadsTinyRound keeps the harness compiling and running against
// the layers' exported API: every workload sets up, performs a few traced
// operations without a failure, and yields only metrics that are defined.
func TestWorkloadsTinyRound(t *testing.T) {
	defined := map[string]bool{}
	for _, d := range perLayer {
		defined[d.Name] = true
	}
	dir := t.TempDir()
	old := scratchDir
	scratchDir = dir
	defer func() { scratchDir = old }()

	ops := map[string]int{"kernels": 2, "compile": 2, "simulate": 1, "serve-hot": 16, "serve-churn": 40}
	// kernels starts at clip and threshacc: under -race the tuner's search
	// on daxpy and vectoradd trips the detector inside the fast engine (a
	// candidate whose simulated processors store to one word), which is not
	// this package's to fix.
	first := map[string]int{"kernels": 9}
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(3); err != nil {
			w.close()
			t.Fatalf("%s: set-up: %v", name, err)
		}
		if err := w.mark(); err != nil {
			t.Errorf("%s: mark: %v", name, err)
		}
		tr := newTracer()
		results, _ := runOps(w, tr, first[name], ops[name])
		for i, r := range results {
			if r.failed {
				t.Errorf("%s: operation %d failed", name, i)
			}
		}
		m := layerMetrics(tr.perOp())
		if err := w.layers(m); err != nil {
			t.Errorf("%s: layers: %v", name, err)
		}
		if err := w.finish(); err != nil {
			t.Errorf("%s: finish: %v", name, err)
		}
		w.close()
		for k, v := range m {
			if !defined[k] {
				t.Errorf("%s: metric %q is not in the per-layer table", name, k)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %q = %v", name, k, v)
			}
		}
		for _, must := range map[string][]string{
			"kernels":     {"parser.parse_ms", "pass.total_ms", "codegen.instrs", "titan.run_ms", "tune.tune_ms", "driver.compile_ms"},
			"compile":     {"parser.parse_ms", "pass.scalarize_ms", "codegen.schedule_ms", "lexer.tokens", "vector.loops_vectorized"},
			"simulate":    {"titan.run_ms", "titan.ns_per_instr.scalar_p1", "titan.ns_per_instr.masked_p2", "titan.sync_stall_ratio", "titan.mask_lane_utilization"},
			"serve-hot":   {"service.handler_ms", "service.transport_ms", "service.hits.memory", "service.cache_get_disk_us", "service.handler_direct_ms"},
			"serve-churn": {"service.misses", "service.client_ms_p50.compiled", "cluster.pushes", "service.evictions"},
		}[name] {
			if m[must] <= 0 {
				t.Errorf("%s: metric %q = %v, want a positive number", name, must, m[must])
			}
		}
	}
}

// TestQualityIsDeterministic runs two kernels twice: the simulated cycles
// of every configuration must repeat exactly (do fails if they do not).
func TestQualityIsDeterministic(t *testing.T) {
	w := &kernelsWorkload{}
	if err := w.setup(0); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{9, 11, 12 + 9, 12 + 11} { // clip and sparsesaxpy, then again
		if err := w.do(nil, 0, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{9, 11} {
		r := w.first[k]
		if r.cycles[0] <= r.cycles[1] || r.cycles[1] <= r.cycles[2] || r.cycles[3] > r.cycles[2] {
			t.Errorf("%s: cycles %v do not fall from scalar to vector to parallel to tuned", kernels[k].name, r.cycles)
		}
	}
}

// TestBenchmarkJSON keeps the contract file and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
}

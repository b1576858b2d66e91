package tune_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/titan"
	"repro/internal/tune"
)

// TestTuneDaxpyImproves is the autotune smoke check: on the paper's E2
// daxpy workload the tuner must find a legal non-default schedule that
// strictly beats the default plan, and compiling with the returned set
// must reproduce the measured win (same cycles, same output).
func TestTuneDaxpyImproves(t *testing.T) {
	w := bench.Kernel("daxpy", 256)
	opts := driver.FullOptions()
	res, err := tune.Tune(w.Src, opts, tune.Config{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Schedules.Len() == 0 {
		t.Fatal("tuner found no non-default schedule on daxpy")
	}
	if res.TunedCycles >= res.DefaultCycles {
		t.Fatalf("tuned plan does not beat default: tuned %d, default %d",
			res.TunedCycles, res.DefaultCycles)
	}
	if res.Measured == 0 {
		t.Fatal("tuner measured no candidates")
	}

	// Every adopted schedule must be internally valid.
	for _, d := range res.Decisions {
		if err := d.Schedule.Validate(); err != nil {
			t.Errorf("decision for %v selected an invalid schedule: %v", d.Loop, err)
		}
		if d.Cycles > d.DefaultCycles {
			t.Errorf("decision for %v regressed: %d cycles vs %d incumbent", d.Loop, d.Cycles, d.DefaultCycles)
		}
	}

	// Recompile under the winning set: the measured result must reproduce.
	ctx := pass.NewContext()
	ctx.Schedules = res.Schedules
	cres, err := driver.CompileWith(w.Src, opts, ctx)
	if err != nil {
		t.Fatalf("recompile with tuned set: %v", err)
	}
	r, err := titan.NewMachine(cres.Machine, 1).Run("main")
	if err != nil {
		t.Fatalf("run tuned program: %v", err)
	}
	if r.Cycles != res.TunedCycles {
		t.Errorf("tuned cycles not reproducible: ran %d, tuner reported %d", r.Cycles, res.TunedCycles)
	}
	if r.ExitCode != 0 {
		t.Errorf("tuned program exits %d", r.ExitCode)
	}
}

// The tuner is deterministic: two searches over the same unit agree on
// every decision (the schedule cache and decisions.golden.json depend on it).
func TestTuneDeterministic(t *testing.T) {
	w := bench.Kernel("copyloop", 256)
	opts := driver.FullOptions()
	a, err := tune.Tune(w.Src, opts, tune.Config{})
	if err != nil {
		t.Fatalf("first Tune: %v", err)
	}
	b, err := tune.Tune(w.Src, opts, tune.Config{})
	if err != nil {
		t.Fatalf("second Tune: %v", err)
	}
	if !reflect.DeepEqual(a.Decisions, b.Decisions) {
		t.Errorf("decisions differ across identical searches:\n first %+v\nsecond %+v", a.Decisions, b.Decisions)
	}
	if a.TunedCycles != b.TunedCycles {
		t.Errorf("tuned cycles differ: %d vs %d", a.TunedCycles, b.TunedCycles)
	}
}

// Remarks renders exactly one sched-selected diagnostic per decision,
// positioned at the loop, with the measured delta in the args.
func TestTuneRemarks(t *testing.T) {
	w := bench.Kernel("daxpy", 256)
	res, err := tune.Tune(w.Src, driver.FullOptions(), tune.Config{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	ds := res.Remarks()
	if len(ds) != len(res.Decisions) {
		t.Fatalf("%d remarks for %d decisions", len(ds), len(res.Decisions))
	}
	for i, d := range ds {
		if d.Code != diag.SchedSelected {
			t.Errorf("remark %d has code %s", i, d.Code)
		}
		dec := res.Decisions[i]
		if d.Proc != dec.Loop.Proc || d.Pos.Line != dec.Loop.Line {
			t.Errorf("remark %d positioned at %s:%v, decision at %+v", i, d.Proc, d.Pos, dec.Loop)
		}
		for _, key := range []string{"schedule", "cycles", "default_cycles", "delta"} {
			if _, ok := d.Args[key]; !ok {
				t.Errorf("remark %d missing arg %q", i, key)
			}
		}
	}
}

// TestTuneMaskStrategy: clip's tuned plan stays masked and matches
// scalar — recompiling under the final set leaves the kernel's guarded
// stores masked and the program's behavior what scalar code gives.
func TestTuneMaskStrategy(t *testing.T) {
	w := bench.Kernel("clip", 256)
	opts := driver.FullOptions()
	res, err := tune.Tune(w.Src, opts, tune.Config{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Measured == 0 {
		t.Fatal("tuner measured no candidates")
	}
	for _, d := range res.Decisions {
		if err := d.Schedule.Validate(); err != nil {
			t.Errorf("decision for %v selected an invalid schedule: %v", d.Loop, err)
		}
	}
	ctx := pass.NewContext()
	ctx.Schedules = res.Schedules
	cres, err := driver.CompileWith(w.Src, opts, ctx)
	if err != nil {
		t.Fatalf("recompile with tuned set: %v", err)
	}
	if cres.Report.Vector.MaskedStmts < 1 {
		t.Errorf("tuned compile lost masked execution: %+v", cres.Report.Vector)
	}
	r, err := titan.NewMachine(cres.Machine, 1).Run("main")
	if err != nil {
		t.Fatalf("run tuned program: %v", err)
	}
	scalar, err := driver.Run(w.Src, driver.Options{OptLevel: 1}, 1)
	if err != nil {
		t.Fatalf("scalar baseline: %v", err)
	}
	if r.ExitCode != scalar.ExitCode || r.Output != scalar.Output {
		t.Errorf("tuned program diverges from scalar: exit %d vs %d", r.ExitCode, scalar.ExitCode)
	}
}

// The budget counts candidate compiles, whether or not the compiled
// program then had to be simulated: a search cut short stops at exactly
// the candidate an unbounded one reaches after that many compiles, so
// every loop before the cut gets the unbounded search's decision and the
// loop at the cut gets the remainder of the budget.
func TestTuneBudget(t *testing.T) {
	w := bench.Kernel("daxpy", 256)
	cfg := tune.Config{Processors: 4}
	full, err := tune.Tune(w.Src, driver.FullOptions(), cfg)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if full.Simulated >= full.Measured+1 {
		t.Fatalf("no candidate of the full search repeated a program (%d simulated, %d measured): the test needs one",
			full.Simulated, full.Measured)
	}
	for _, budget := range []int{3, full.Measured - 1} {
		cfg.Budget = budget
		res, err := tune.Tune(w.Src, driver.FullOptions(), cfg)
		if err != nil {
			t.Fatalf("Tune with budget %d: %v", budget, err)
		}
		if res.Measured != budget {
			t.Errorf("budget %d of a %d-candidate grid: measured %d", budget, full.Measured, res.Measured)
		}
		// The larger budget reaches past candidates that repeated a
		// program: they were counted, or Measured would be short of it.
		if res.Simulated > res.Measured+1 || (budget > 3 && res.Simulated > budget) {
			t.Errorf("budget %d: %d programs simulated for %d candidates and a baseline", budget, res.Simulated, res.Measured)
		}
		left := budget
		for i, d := range res.Decisions {
			want := full.Decisions[i]
			if left >= want.Candidates {
				if d != want {
					t.Errorf("budget %d: loop %v decided %+v, unbounded search %+v", budget, d.Loop, d, want)
				}
			} else if d.Loop != want.Loop || d.Candidates != left {
				t.Errorf("budget %d: loop %v measured %d candidates with %d of the budget left", budget, d.Loop, d.Candidates, left)
			}
			left -= d.Candidates
		}
	}
}

// A search examines only loops that can run, simulates each distinct
// program once, and gives back every arena it cloned.
func TestTuneCostsOnlyWhatDiffers(t *testing.T) {
	w := bench.Kernel("daxpy", 256)
	live := il.ArenaBytesLive()
	res, err := tune.Tune(w.Src, driver.FullOptions(), tune.Config{Processors: 4})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if got := il.ArenaBytesLive(); got != live {
		t.Errorf("arena bytes live %d after Tune, %d before", got, live)
	}
	candidates := 0
	for _, d := range res.Decisions {
		// daxpy's only call is inlined into main; the out-of-line copy
		// never runs.
		if d.Loop.Proc != "main" {
			t.Errorf("decision for %v, a loop main cannot reach", d.Loop)
		}
		candidates += d.Candidates
	}
	if res.Measured != candidates {
		t.Errorf("measured %d, decisions account for %d", res.Measured, candidates)
	}
	// Several of daxpy's candidates generate the code another already
	// did: its loops vectorize, so the phases decline every unroll.
	if res.Simulated < 1 || res.Simulated >= res.Measured+1 {
		t.Errorf("simulated %d programs for %d candidates and a baseline, want fewer", res.Simulated, res.Measured)
	}
}

// Candidates compile clones of the head IL that share its expressions,
// concurrently: a search must leave the head IL printing exactly as it
// did before it.
func TestExprsImmutableUnderSearch(t *testing.T) {
	for _, w := range []bench.Workload{
		bench.Kernel("daxpy", 64), bench.Kernel("backsolve", 64), bench.Kernel("clip", 64), bench.Kernel("lagrec3", 64),
		bench.Kernel("transform4x4", 16), bench.Kernel("wavefront", 16), bench.Kernel("sparsesaxpy", 64),
	} {
		before, after, err := tune.HeadAroundSearch(w.Src, driver.FullOptions(), tune.Config{Processors: 4})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if after != before {
			t.Errorf("%s: the search changed the head IL\n--- before ---\n%s\n--- after ---\n%s", w.Name, before, after)
		}
	}
}

// Every candidate is legal, so one that runs to another exit code or
// output than the default plan is a miscompile, and the search fails
// naming the loop and the schedule rather than discarding it quietly.
func TestDivergingCandidateFailsSearch(t *testing.T) {
	w := bench.Kernel("daxpy", 64)
	key, sch, err := tune.TuneDiverging(w.Src, "int main(void) { return 42; }", driver.FullOptions(), tune.Config{Processors: 4})
	if err == nil {
		t.Fatalf("the search adopted or discarded a candidate that exits 42 under %s for %v", sch, key)
	}
	for _, want := range []string{fmt.Sprintf("%s:%d:%d", key.Proc, key.Line, key.Col), sch.String(), "exit 42"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("the error does not name %q: %v", want, err)
		}
	}
}

// Away from the paper's strip length the grid is still one-knob moves off
// the plan's default: at -vl 128 no candidate is the default itself, each
// changes exactly one Schedule field of it, and a loop that keeps the
// default is reported at VL 128, the strip length it runs at.
func TestGridFollowsThePlanDefault(t *testing.T) {
	w := bench.Kernel("transform4x4", 64)
	opts := driver.FullOptions()
	opts.VL = 128
	def := opts.Plan().Loops
	grid, err := tune.Grid(w.Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	offered := 0
	for _, cands := range grid {
		for _, c := range cands {
			offered++
			moved := 0
			cv, dv := reflect.ValueOf(c), reflect.ValueOf(def)
			for i := range cv.NumField() {
				if cv.Field(i).Interface() != dv.Field(i).Interface() {
					moved++
				}
			}
			if moved != 1 {
				t.Errorf("candidate %s moves %d fields off the default %s", c, moved, def)
			}
		}
	}
	if offered == 0 {
		t.Fatal("the grid is empty: the test shows nothing")
	}
	res, err := tune.Tune(w.Src, opts, tune.Config{})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, d := range res.Remarks() {
		if d.Args["delta"] == "0" {
			kept++
			if got := d.Args["schedule"]; got != "vl=128 unroll=1" {
				t.Errorf("%d:%d keeps the default as %q, want vl=128 unroll=1", d.Pos.Line, d.Pos.Col, got)
			}
		}
	}
	if kept == 0 {
		t.Error("no loop kept the default: the test shows nothing")
	}
}

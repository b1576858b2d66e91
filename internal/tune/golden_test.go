package tune_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/tune"
)

// goldenSearch is one search's outcome as pinned in
// testdata/decisions.golden.json.
type goldenSearch struct {
	Name          string          `json:"name"`
	Processors    int             `json:"processors"`
	Schedules     *schedule.Set   `json:"schedules"`
	DefaultCycles int64           `json:"default_cycles"`
	TunedCycles   int64           `json:"tuned_cycles"`
	Measured      int             `json:"measured"`
	Decisions     []tune.Decision `json:"decisions"`
	// simulated is pinned in its own file (simulatedGolden).
	simulated int
}

const decisionsGolden = "testdata/decisions.golden.json"

// simulatedGolden pins Result.Simulated per search ("unit@processors"):
// which programs a search runs, not only what it decides, must survive a
// change to how the measuring is scheduled. Both goldens were last
// regenerated when the grid lost the families no search ever chose, with
// every decision that remained held (testdata/compare-decisions.sh checks
// that against an earlier revision).
const simulatedGolden = "testdata/simulated.golden.json"

// goldenUnits is what the golden covers: the corpus kernels by path
// (testdata/*.c, in name order), the benchmark's twelve kernels, and the
// corpus kernels at their small sizes but the execution engine's doall,
// one loop that vectoradd already covers.
func goldenUnits(t *testing.T) []bench.Workload {
	t.Helper()
	var units []bench.Workload
	for _, w := range bench.Corpus() {
		w.Name = "testdata/" + w.Name + ".c"
		units = append(units, w)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Name < units[j].Name })
	files, err := filepath.Glob("../../benchmark/programs/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources match benchmark/programs/*.c (err %v)", err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, bench.Workload{Name: strings.TrimPrefix(filepath.ToSlash(f), "../../"), Src: string(src)})
	}
	for _, w := range bench.Small("") {
		if w.Name != "syntheticdoall" {
			w.Name = "bench/" + w.Name
			units = append(units, w)
		}
	}
	return units
}

func searchFor(t *testing.T, u bench.Workload, procs int) goldenSearch {
	t.Helper()
	res, err := tune.Tune(u.Src, driver.FullOptions(), tune.Config{Processors: procs})
	if err != nil {
		t.Fatalf("%s at %d processors: %v", u.Name, procs, err)
	}
	return goldenSearch{Name: u.Name, Processors: procs, Schedules: res.Schedules,
		DefaultCycles: res.DefaultCycles, TunedCycles: res.TunedCycles,
		Measured: res.Measured, Decisions: res.Decisions, simulated: res.Simulated}
}

// TestDecisionsGolden pins every search outcome — the plan, the cycle
// counts bracketing it and each loop's decision — for the golden units at
// 1 and 4 processors: a change to how candidates are measured must not
// change what is decided. UPDATE_GOLDEN=1 rewrites it.
func TestDecisionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dozens of full searches")
	}
	units := goldenUnits(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var got []goldenSearch
		simulated := map[string]int{}
		for _, u := range units {
			for _, procs := range []int{1, 4} {
				g := searchFor(t, u, procs)
				got = append(got, g)
				simulated[fmt.Sprintf("%s@%d", u.Name, procs)] = g.simulated
			}
		}
		sims, err := json.MarshalIndent(simulated, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simulatedGolden, append(sims, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		// One search per line, so a changed decision is a one-line diff.
		var blob bytes.Buffer
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			blob.WriteString(sep)
			blob.Write(line)
		}
		blob.WriteString("\n]\n")
		if err := os.WriteFile(decisionsGolden, blob.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSearch
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", decisionsGolden, err)
	}
	if len(want) != 2*len(units) {
		t.Fatalf("golden has %d searches for %d units at 2 processor counts", len(want), len(units))
	}
	blob, err = os.ReadFile(simulatedGolden)
	if err != nil {
		t.Fatal(err)
	}
	var simulated map[string]int
	if err := json.Unmarshal(blob, &simulated); err != nil {
		t.Fatalf("%s: %v", simulatedGolden, err)
	}
	for i, w := range want {
		id := fmt.Sprintf("%s@%d", w.Name, w.Processors)
		if u := units[i/2]; u.Name != w.Name {
			t.Fatalf("search %d of the golden is %s, the unit there is %s", i, id, u.Name)
		}
		// The tuner never adopts a regression. Checked on the golden row,
		// so a regenerated golden cannot pin one either.
		if w.TunedCycles > w.DefaultCycles {
			t.Errorf("%s: tuner regressed: tuned %d > default %d cycles", id, w.TunedCycles, w.DefaultCycles)
		}
		g := searchFor(t, units[i/2], w.Processors)
		gs, _ := json.Marshal(g.Schedules)
		ws, _ := json.Marshal(w.Schedules)
		if string(gs) != string(ws) {
			t.Errorf("%s: schedules\n  got    %s\n  golden %s", id, gs, ws)
		}
		if g.DefaultCycles != w.DefaultCycles || g.TunedCycles != w.TunedCycles {
			t.Errorf("%s: cycles default %d tuned %d, golden %d and %d", id,
				g.DefaultCycles, g.TunedCycles, w.DefaultCycles, w.TunedCycles)
		}
		if !reflect.DeepEqual(g.Decisions, w.Decisions) {
			t.Errorf("%s: decisions\n  got    %+v\n  golden %+v", id, g.Decisions, w.Decisions)
		}
		if g.simulated != simulated[id] {
			t.Errorf("%s: simulated %d programs, golden %d", id, g.simulated, simulated[id])
		}
		if g.Measured != w.Measured {
			t.Errorf("%s: measured %d candidates, golden %d", id, g.Measured, w.Measured)
		}
		wantLikeO0(t, id, units[i/2].Src, w.Processors, g.Schedules)
	}
}

// wantLikeO0 holds a search's two ends, the default plan it measured
// first and the plan it adopted, to what the unit does at -O0: exit code,
// output and final globals. The search compares its candidates with the
// default only; this makes the default answer to the unoptimized program.
func wantLikeO0(t *testing.T, id, src string, procs int, tuned *schedule.Set) {
	t.Helper()
	want, err := driver.Run(src, driver.Options{}, 1)
	if err != nil {
		t.Fatalf("%s -O0: %v", id, err)
	}
	for _, end := range []struct {
		name string
		set  *schedule.Set
	}{{"default plan", nil}, {"tuned plan", tuned}} {
		ctx := pass.NewContext()
		ctx.Schedules = end.set
		res, err := driver.CompileWith(src, driver.FullOptions(), ctx)
		if err != nil {
			t.Fatalf("%s %s: %v", id, end.name, err)
		}
		got, err := titan.NewMachine(res.Machine, procs).Run("main")
		if err != nil {
			t.Fatalf("%s %s: %v", id, end.name, err)
		}
		if got.ExitCode != want.ExitCode || got.Output != want.Output || got.Globals != want.Globals {
			t.Errorf("%s %s: exit %d output %q globals %x, -O0 gives exit %d output %q globals %x", id, end.name,
				got.ExitCode, got.Output, got.Globals, want.ExitCode, want.Output, want.Globals)
		}
	}
}

// family names the grid family a candidate belongs to: the knob the grid
// moves off the default plan to reach it. A schedule no move reaches is
// "".
func family(s schedule.Schedule) string {
	for _, m := range schedule.Moves(schedule.Default(), true) {
		if m.To == s {
			return m.Knob
		}
	}
	return ""
}

// families is the grid's families in the order it offers them.
func families() []string {
	var fs []string
	for _, m := range schedule.Moves(schedule.Default(), true) {
		if !slices.Contains(fs, m.Knob) {
			fs = append(fs, m.Knob)
		}
	}
	return fs
}

// The grid holds only families that win: every candidate offered for the
// golden units is a strip-length variant, serial strips, an unroll or an
// interchange, and each of the four is the schedule some decision of the
// decisions golden adopts. A family added to the grid that no pinned
// search ever chooses fails here.
func TestGridFamiliesWin(t *testing.T) {
	offered := map[string]int{}
	for _, u := range goldenUnits(t) {
		grid, err := tune.Grid(u.Src, driver.FullOptions())
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		for _, cands := range grid {
			for _, c := range cands {
				f := family(c)
				if f == "" {
					t.Errorf("%s offers %s, which is no family's", u.Name, c)
				}
				offered[f]++
			}
		}
	}
	blob, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var searches []goldenSearch
	if err := json.Unmarshal(blob, &searches); err != nil {
		t.Fatalf("%s: %v", decisionsGolden, err)
	}
	chosen := map[string]int{}
	for _, g := range searches {
		for _, d := range g.Decisions {
			if d.Schedule != schedule.Default() {
				chosen[family(d.Schedule)]++
			}
		}
	}
	for _, f := range families() {
		t.Logf("%s: offered %d, chosen %d", f, offered[f], chosen[f])
		if chosen[f] == 0 {
			t.Errorf("family %s is offered %d times and never chosen", f, offered[f])
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/schedule"
	"repro/internal/token"
)

func tuneOpts() CompileOptions {
	o := fullOpts()
	o.Tune = true
	return o
}

func schedSelected(out CompileResponse) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, d := range out.Report.Diags {
		if d.Code == diag.SchedSelected {
			ds = append(ds, d)
		}
	}
	return ds
}

// TestCompileTuneScheduleCache is the tentpole's service-side acceptance
// check: the first tuned request pays for the schedule search; a second
// tuned request at a *different* processor count misses the artifact
// cache (distinct run spec) but reuses the tuned plan — the tune counter
// stays flat while the schedule-cache hit counter increments — and its
// artifact replays the same sched-selected remarks.
func TestCompileTuneScheduleCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	first, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: tuneOpts(), Processors: 1})
	if code != http.StatusOK {
		t.Fatalf("first tuned compile: status %d", code)
	}
	if first.Cached {
		t.Error("first tuned compile reported cached")
	}
	firstSched := schedSelected(first)
	if len(firstSched) == 0 {
		t.Fatal("tuned artifact carries no sched-selected remarks")
	}

	m := getMetrics(t, ts)
	if m.Tune.Tunes != 1 || m.Tune.ScheduleCacheMisses != 1 || m.Tune.ScheduleCacheHits != 0 {
		t.Fatalf("after first tuned compile: tune counters %+v", m.Tune)
	}
	if m.Tune.Entries != 1 {
		t.Fatalf("schedule cache entries = %d, want 1", m.Tune.Entries)
	}

	second, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: tuneOpts(), Processors: 2})
	if code != http.StatusOK {
		t.Fatalf("second tuned compile: status %d", code)
	}
	if second.Cached {
		t.Error("different processor count must miss the artifact cache")
	}
	if second.Key == first.Key {
		t.Error("different run specs produced the same artifact key")
	}

	m = getMetrics(t, ts)
	if m.Tune.Tunes != 1 {
		t.Errorf("second tuned request re-ran the tuner: tunes = %d, want 1", m.Tune.Tunes)
	}
	if m.Tune.ScheduleCacheHits != 1 {
		t.Errorf("schedule cache hits = %d, want 1", m.Tune.ScheduleCacheHits)
	}
	if m.Tune.Entries != 1 {
		t.Errorf("schedule cache entries = %d, want 1", m.Tune.Entries)
	}

	secondSched := schedSelected(second)
	if len(secondSched) != len(firstSched) {
		t.Fatalf("replayed remarks differ: %d vs %d sched-selected", len(secondSched), len(firstSched))
	}
	for i := range firstSched {
		if firstSched[i].Message != secondSched[i].Message {
			t.Errorf("remark %d drifted across the schedule cache:\n first %s\nsecond %s",
				i, firstSched[i].Message, secondSched[i].Message)
		}
	}
}

// A tuned and an untuned compile of the same unit are distinct artifacts.
func TestCompileTuneDistinctArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plain, _ := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: fullOpts(), Processors: 1})
	tuned, _ := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: tuneOpts(), Processors: 1})
	if plain.Key == tuned.Key {
		t.Fatal("tune=true and tune=false share an artifact key")
	}
	if tuned.Run == nil || plain.Run == nil {
		t.Fatal("missing run results")
	}
	if tuned.Run.Cycles > plain.Run.Cycles {
		t.Errorf("tuned compile is slower: %d cycles vs %d default", tuned.Run.Cycles, plain.Run.Cycles)
	}
}

// Strip lengths outside the Titan register file are rejected up front.
func TestCompileVLValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, vl := range []int{-1, 4096} {
		opts := fullOpts()
		opts.VL = vl
		_, code, err := tryCompile(ts, CompileRequest{Source: daxpySrc, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Errorf("vl=%d: status %d, want 400", vl, code)
		}
	}
	opts := fullOpts()
	opts.VL = 64
	if _, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: opts}); code != http.StatusOK {
		t.Errorf("vl=64: status %d, want 200", code)
	}
}

// A plan stored by a build whose schedules still had parallel_width and
// sync_stride decodes with both dropped, and a tuned compile that takes it
// from the store gives the program the same plan without them gives. The
// mask strategy "off", gone with them, and "masked", gone as a second
// spelling of the default, are refused like any unknown one.
func TestPlanWithRemovedKnobs(t *testing.T) {
	plan := func(extra string) []byte {
		return []byte(`{"schedules":[{"loop":{"proc":"main","line":5,"col":2},"schedule":{"vl":64,"unroll":1` + extra +
			`}}],"decisions":null,"default_cycles":951,"tuned_cycles":903,"measured":1}`)
	}
	old, bare := plan(`,"parallel_width":2,"sync_stride":4`), plan("")
	got, err := checkPlan(old)
	if err != nil {
		t.Fatalf("plan with the removed knobs refused: %v", err)
	}
	want, err := checkPlan(bare)
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := json.Marshal(got)
	if ww, _ := json.Marshal(want); !bytes.Equal(gw, ww) {
		t.Errorf("plan with the removed knobs decodes to %s, without them %s", gw, ww)
	}
	compileWith := func(body []byte) string {
		s, ts := newTestServer(t, Config{})
		req := CompileRequest{Source: daxpySrc, Options: tuneOpts(), Processors: 1}
		if err := validateUnit(&req); err != nil {
			t.Fatal(err)
		}
		key, err := planKey(req, req.Options.driverOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		if rec := serveDirect(s.Handler(), "PUT", "/schedules/"+key, body); rec.Code != http.StatusNoContent {
			t.Fatalf("PUT plan: %d %s", rec.Code, rec.Body)
		}
		out, code := postCompile(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("tuned compile: status %d", code)
		}
		if m := getMetrics(t, ts); m.Tune.Tunes != 0 {
			t.Fatalf("the stored plan was not used: %d searches", m.Tune.Tunes)
		}
		return out.Asm
	}
	asm := compileWith(old)
	if asm != compileWith(bare) {
		t.Error("the plan with the removed knobs compiles to another program than the plan without them")
	}
	_, ts := newTestServer(t, Config{})
	if plain, _ := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: fullOpts(), Processors: 1}); plain.Asm == asm {
		t.Error("the plan compiles to the default program: it did not take")
	}
	for _, strategy := range []string{"off", "masked"} {
		body := bytes.Replace(bare, []byte(`"unroll":1`), []byte(`"unroll":1,"mask_strategy":"`+strategy+`"`), 1)
		if _, err := checkPlan(body); err == nil || !strings.Contains(err.Error(), `unknown mask strategy "`+strategy+`"`) {
			t.Errorf("mask strategy %s: %v, want it refused as unknown", strategy, err)
		}
	}
}

// FuzzPlanIngest: the gate every peer-supplied tuned plan passes (a PUT
// /schedules/{key} body, an owner's answer to a fetch) never panics, and
// whatever it lets into the store is a plan this node can compile with
// and hand on: every schedule in it is inside the machine's ranges, and
// it re-encodes to a body the gate accepts again, unchanged from then on
// (the encoding publish writes through for a plan searched here).
func FuzzPlanIngest(f *testing.F) {
	// Searched plans are in the seed corpus (testdata/fuzz); these are
	// the shapes the gate exists for.
	f.Add([]byte(`{"schedules":[{"loop":{"proc":"f","line":1,"col":1},"schedule":{"vl":32,"unroll":8,"interchange":true,` +
		`"parallel_width":2,"serial_strips":true,"sync_stride":4,"mask_strategy":"branchy-serial"}}]}`))
	f.Add([]byte(`{"schedules":[{"loop":{"proc":"f","line":1,"col":1},"schedule":{"vl":100000,"unroll":1}}]}`))
	f.Add([]byte(`{"schedules":[{"loop":{"proc":"f","line":1,"col":1},"schedule":{"vl":32,"unroll":1,"mask_strategy":"diagonal"}}]}`))
	f.Add([]byte(`{"schedules":[{"loop":{"proc":"f","line":1,"col":1},"schedule":{"vl":32,"unroll":1}},` +
		`{"loop":{"proc":"f","line":1,"col":1},"schedule":{"vl":0,"unroll":0}}]}`))
	f.Add([]byte(`{"schedules":[{"loop":{"proc":"f","line":1,"col":1},"schedule":{"vl":32,"unr`))
	f.Add([]byte(`{"schedules":{"f":1}}`))
	f.Add([]byte(`{"schedules":null,"decisions":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		plan, err := checkPlan(body)
		if err != nil {
			return
		}
		for _, k := range plan.Schedules.Keys() {
			// A listed loop without an entry reads as the zero schedule,
			// which Validate refuses.
			sched := plan.Schedules.Lookup(k.Proc, token.Pos{Line: k.Line, Col: k.Col}, schedule.Schedule{})
			if err := sched.Validate(); err != nil {
				t.Fatalf("accepted plan %q schedules %+v with %+v: %v", body, k, sched, err)
			}
		}
		wire, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("accepted plan %q does not re-encode: %v", body, err)
		}
		again, err := checkPlan(wire)
		if err != nil {
			t.Fatalf("accepted plan %q re-encodes to %q, which is refused: %v", body, wire, err)
		}
		if rewire, _ := json.Marshal(again); !bytes.Equal(rewire, wire) {
			t.Fatalf("plan %q is not stable on the wire: %q then %q", body, wire, rewire)
		}
	})
}

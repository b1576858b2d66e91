package schedule_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/token"
)

func sampleSet() *schedule.Set {
	s := schedule.NewSet()
	s.Put(schedule.LoopKey{Proc: "main", Line: 10, Col: 2},
		schedule.Schedule{VL: 64, Unroll: 2})
	s.Put(schedule.LoopKey{Proc: "daxpy", Line: 4, Col: 2},
		schedule.Schedule{VL: 32, Unroll: 1, SerialStrips: true})
	s.Put(schedule.LoopKey{Proc: "main", Line: 3, Col: 2},
		schedule.Schedule{VL: 32, Unroll: 1, Interchange: true})
	s.Put(schedule.LoopKey{Proc: "clip", Line: 7, Col: 2},
		schedule.Schedule{VL: 32, Unroll: 1, MaskStrategy: schedule.MaskBranchy})
	return s
}

// TestSetJSONRoundTrip: titand's schedule cache and any tooling that
// persists tuned plans ship Sets as JSON; marshal → unmarshal must
// reproduce every entry.
func TestSetJSONRoundTrip(t *testing.T) {
	want := sampleSet()
	blob, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got := schedule.NewSet()
	if err := json.Unmarshal(blob, got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("round trip lost entries: %d vs %d", got.Len(), want.Len())
	}
	for _, k := range want.Keys() {
		pos := token.Pos{Line: k.Line, Col: k.Col}
		w, _ := want.Lookup(k.Proc, pos)
		g, ok := got.Lookup(k.Proc, pos)
		if !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("entry %v: got %+v (present=%v), want %+v", k, g, ok, w)
		}
	}
}

// TestSetJSONStable pins the wire form: a sorted array of loop/schedule
// pairs with these exact field names. Machine consumers (the service's
// schedule cache, saved tuning runs) key on this shape.
func TestSetJSONStable(t *testing.T) {
	blob, err := json.Marshal(sampleSet())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	const want = `[` +
		`{"loop":{"proc":"clip","line":7,"col":2},"schedule":{"vl":32,"unroll":1,"mask_strategy":"branchy-serial"}},` +
		`{"loop":{"proc":"daxpy","line":4,"col":2},"schedule":{"vl":32,"unroll":1,"serial_strips":true}},` +
		`{"loop":{"proc":"main","line":3,"col":2},"schedule":{"vl":32,"unroll":1,"interchange":true}},` +
		`{"loop":{"proc":"main","line":10,"col":2},"schedule":{"vl":64,"unroll":2}}]`
	if string(blob) != want {
		t.Fatalf("wire shape drifted:\n got %s\nwant %s", blob, want)
	}
}

// An empty set is a valid, small document, and a nil set is readable.
func TestSetJSONEmpty(t *testing.T) {
	blob, err := json.Marshal(schedule.NewSet())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(blob) != "[]" {
		t.Fatalf("empty set marshals as %s, want []", blob)
	}
	got := schedule.NewSet()
	if err := json.Unmarshal([]byte("[]"), got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip has %d entries", got.Len())
	}
}

// TestSetValidateRejectsUnknownMaskStrategy: the wire form decodes any
// string into MaskStrategy (a newer peer may know strategies we don't),
// so Set.Validate is the gate — it must reject unknown values and name
// the offending loop. titand's PUT /schedules handler answers 400 on
// this error.
func TestSetValidateRejectsUnknownMaskStrategy(t *testing.T) {
	if err := sampleSet().Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	var nilSet *schedule.Set
	if err := nilSet.Validate(); err != nil {
		t.Fatalf("nil set rejected: %v", err)
	}
	blob := []byte(`[{"loop":{"proc":"clip","line":7,"col":2},` +
		`"schedule":{"vl":32,"unroll":1,"mask_strategy":"diagonal"}}]`)
	got := schedule.NewSet()
	if err := json.Unmarshal(blob, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	err := got.Validate()
	if err == nil {
		t.Fatal("unknown mask strategy validated")
	}
	for _, want := range []string{"clip:7:2", "diagonal"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestLookupDefaults(t *testing.T) {
	var nilSet *schedule.Set
	s, ok := nilSet.Lookup("main", token.Pos{Line: 1, Col: 1})
	if ok || !s.IsDefault() {
		t.Errorf("nil set lookup = (%+v, %v), want (default, false)", s, ok)
	}
	s, ok = schedule.NewSet().Lookup("main", token.Pos{Line: 1, Col: 1})
	if ok || !s.IsDefault() {
		t.Errorf("empty set lookup = (%+v, %v), want (default, false)", s, ok)
	}
}

func TestValidateBounds(t *testing.T) {
	cases := []struct {
		name string
		s    schedule.Schedule
		ok   bool
	}{
		{"default", schedule.Default(), true},
		{"max vl", schedule.Schedule{VL: titan.MaxVL, Unroll: 1}, true},
		{"vl zero", schedule.Schedule{VL: 0, Unroll: 1}, false},
		{"vl negative", schedule.Schedule{VL: -4, Unroll: 1}, false},
		{"vl too big", schedule.Schedule{VL: titan.MaxVL + 1, Unroll: 1}, false},
		{"unroll zero", schedule.Schedule{VL: 32, Unroll: 0}, false},
		{"unroll max", schedule.Schedule{VL: 32, Unroll: schedule.MaxUnroll}, true},
		{"unroll too big", schedule.Schedule{VL: 32, Unroll: schedule.MaxUnroll + 1}, false},
		{"mask auto", schedule.Schedule{VL: 32, Unroll: 1, MaskStrategy: schedule.MaskAuto}, true},
		{"mask off", schedule.Schedule{VL: 32, Unroll: 1, MaskStrategy: "off"}, false},
		{"mask branchy", schedule.Schedule{VL: 32, Unroll: 1, MaskStrategy: schedule.MaskBranchy}, true},
		{"mask unknown", schedule.Schedule{VL: 32, Unroll: 1, MaskStrategy: "sideways"}, false},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := schedule.ValidateVL(1); err != nil {
		t.Errorf("ValidateVL(1) = %v", err)
	}
	if err := schedule.ValidateVL(titan.MaxVL + 1); err == nil {
		t.Error("ValidateVL past the register file accepted")
	}
}

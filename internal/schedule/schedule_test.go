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
		w := want.Lookup(k.Proc, pos, schedule.Schedule{})
		if g := got.Lookup(k.Proc, pos, schedule.Schedule{}); !reflect.DeepEqual(g, w) {
			t.Errorf("entry %v: got %+v, want %+v", k, g, w)
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

// A loop without an entry follows the plan's default, whatever its strip
// length, in a nil set and an empty one alike; an entry wins over it.
func TestLookupDefaults(t *testing.T) {
	def := schedule.Schedule{VL: 64, Unroll: 1}
	at := token.Pos{Line: 1, Col: 1}
	var nilSet *schedule.Set
	if got := nilSet.Lookup("main", at, def); got != def {
		t.Errorf("nil set lookup = %s, want the plan default %s", got, def)
	}
	if got := schedule.NewSet().Lookup("main", at, def); got != def {
		t.Errorf("empty set lookup = %s, want the plan default %s", got, def)
	}
	set := schedule.NewSet().With(schedule.KeyFor("main", at), schedule.Default())
	if got := set.Lookup("main", at, def); got != schedule.Default() {
		t.Errorf("lookup of an entry = %s, want the entry %s", got, schedule.Default())
	}
	if got := set.Lookup("main", token.Pos{Line: 2, Col: 1}, def); got != def {
		t.Errorf("lookup past the entries = %s, want the plan default %s", got, def)
	}
}

// With copies: the trial set the tuner builds never writes its incumbent.
func TestWithCopies(t *testing.T) {
	base := sampleSet()
	key := schedule.LoopKey{Proc: "main", Line: 10, Col: 2}
	trial := base.With(key, schedule.Default())
	if base.Len() != 4 || trial.Len() != 4 {
		t.Fatalf("lengths %d and %d, want 4 and 4", base.Len(), trial.Len())
	}
	at := token.Pos{Line: 10, Col: 2}
	if got := base.Lookup("main", at, schedule.Schedule{}); got.VL != 64 {
		t.Errorf("With wrote the set it copied: %s", got)
	}
	if got := trial.Lookup("main", at, schedule.Schedule{}); got != schedule.Default() {
		t.Errorf("With did not schedule the key: %s", got)
	}
}

func renderMoves(ms []schedule.Move) string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Knob+":"+m.To.String())
	}
	return strings.Join(out, ", ")
}

// The grid around the paper's default is the tuner's list, in its order:
// strip lengths and serial strips for a loop whose strips may spread,
// then unroll factors and interchange.
func TestMovesAroundDefault(t *testing.T) {
	rest := "unroll:vl=32 unroll=2, unroll:vl=32 unroll=4, unroll:vl=32 unroll=8, interchange:vl=32 unroll=1 interchange"
	if got, want := renderMoves(schedule.Moves(schedule.Default(), true)),
		"vl:vl=16 unroll=1, vl:vl=64 unroll=1, vl:vl=128 unroll=1, serial-strips:vl=32 unroll=1 serial-strips, "+rest; got != want {
		t.Errorf("Moves(Default(), spread) =\n %s\nwant\n %s", got, want)
	}
	if got := renderMoves(schedule.Moves(schedule.Default(), false)); got != rest {
		t.Errorf("Moves(Default(), no spread) =\n %s\nwant\n %s", got, rest)
	}
}

// Off any default each move changes exactly the one field its knob names
// and never offers the default itself: at VL 128 the strip lengths are
// 16, 32 and 64.
func TestMovesAreOneKnob(t *testing.T) {
	base := schedule.Schedule{VL: 128, Unroll: 4, SerialStrips: true, MaskStrategy: schedule.MaskBranchy}
	field := map[string]string{"vl": "VL", "unroll": "Unroll", "interchange": "Interchange", "serial-strips": "SerialStrips"}
	bv := reflect.ValueOf(base)
	for _, m := range schedule.Moves(base, true) {
		mv := reflect.ValueOf(m.To)
		var moved []string
		for i := range mv.NumField() {
			if mv.Field(i).Interface() != bv.Field(i).Interface() {
				moved = append(moved, mv.Type().Field(i).Name)
			}
		}
		if len(moved) != 1 || moved[0] != field[m.Knob] {
			t.Errorf("%s move to %s changes %v off %s", m.Knob, m.To, moved, base)
		}
	}
	if got, want := renderMoves(schedule.Moves(base, true)[:5]),
		"vl:vl=16 unroll=4 serial-strips mask=branchy-serial, vl:vl=32 unroll=4 serial-strips mask=branchy-serial, "+
			"vl:vl=64 unroll=4 serial-strips mask=branchy-serial, serial-strips:vl=128 unroll=4 mask=branchy-serial, "+
			"unroll:vl=128 unroll=1 serial-strips mask=branchy-serial"; got != want {
		t.Errorf("Moves off %s begin\n %s\nwant\n %s", base, got, want)
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
		{"mask masked", schedule.Schedule{VL: 32, Unroll: 1, MaskStrategy: "masked"}, false},
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

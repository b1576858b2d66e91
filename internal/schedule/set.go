package schedule

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/token"
)

// LoopKey identifies one source loop: the owning procedure plus the
// loop's source position. Positions survive the pipeline (every rewrite
// stamps manufactured statements with the originating construct's
// position), so the key is stable from the tuner's snapshot of the
// program to the final schedule-driven compile — and across compiles of
// the same translation unit, which is what makes the titand tuned-
// schedule cache sound.
type LoopKey struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// KeyFor builds the key for a loop at pos inside proc.
func KeyFor(proc string, pos token.Pos) LoopKey {
	return LoopKey{Proc: proc, Line: pos.Line, Col: pos.Col}
}

// Compare orders keys by procedure, then line, then column.
func (k LoopKey) Compare(o LoopKey) int {
	return cmp.Or(strings.Compare(k.Proc, o.Proc), cmp.Compare(k.Line, o.Line), cmp.Compare(k.Col, o.Col))
}

// Set maps source loops to their schedules. A nil *Set is valid and
// holds nothing: every loop follows the plan's default schedule.
type Set struct {
	m map[LoopKey]Schedule
}

// NewSet returns an empty schedule set.
func NewSet() *Set { return &Set{m: map[LoopKey]Schedule{}} }

// Put assigns s to the loop identified by key.
func (t *Set) Put(key LoopKey, s Schedule) {
	if t.m == nil {
		t.m = map[LoopKey]Schedule{}
	}
	t.m[key] = s
}

// Lookup returns the schedule of the loop at pos in proc: its entry in
// the set, else def, the plan's default. This is the one place a loop's
// schedule is resolved.
func (t *Set) Lookup(proc string, pos token.Pos, def Schedule) Schedule {
	if t != nil {
		if s, ok := t.m[KeyFor(proc, pos)]; ok {
			return s
		}
	}
	return def
}

// With returns a copy of the set that also schedules key as s; t itself
// is unchanged.
func (t *Set) With(key LoopKey, s Schedule) *Set {
	out := NewSet()
	if t != nil {
		maps.Copy(out.m, t.m)
	}
	out.m[key] = s
	return out
}

// Len reports the number of explicit entries.
func (t *Set) Len() int {
	if t == nil {
		return 0
	}
	return len(t.m)
}

// Keys returns the explicit loop keys in deterministic order.
func (t *Set) Keys() []LoopKey {
	if t == nil {
		return nil
	}
	keys := make([]LoopKey, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, LoopKey.Compare)
	return keys
}

// Validate checks every schedule in the set against the machine-range
// invariants (Schedule.Validate), naming the offending loop. Wire
// consumers (titand's plan write-through) reject sets that fail this
// before caching them.
func (t *Set) Validate() error {
	if t == nil {
		return nil
	}
	for _, k := range t.Keys() {
		if err := t.m[k].Validate(); err != nil {
			return fmt.Errorf("loop %s:%d:%d: %w", k.Proc, k.Line, k.Col, err)
		}
	}
	return nil
}

// entry is the wire form of one (loop, schedule) pair. A sorted array of
// pairs rather than a map keyed by a composite string: the encoding is
// byte-deterministic, so schedule sets can ride cache keys and artifacts.
type entry struct {
	Loop     LoopKey  `json:"loop"`
	Schedule Schedule `json:"schedule"`
}

// MarshalJSON encodes the set as a sorted array of entries.
func (t *Set) MarshalJSON() ([]byte, error) {
	entries := make([]entry, 0, t.Len())
	for _, k := range t.Keys() {
		entries = append(entries, entry{Loop: k, Schedule: t.m[k]})
	}
	return json.Marshal(entries)
}

// UnmarshalJSON decodes the sorted-array wire form.
func (t *Set) UnmarshalJSON(data []byte) error {
	var entries []entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	t.m = make(map[LoopKey]Schedule, len(entries))
	for _, e := range entries {
		t.m[e.Loop] = e.Schedule
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary, around a call from
// the benchmark's own files into a layer's exported function. Spans of
// one operation share Op; Parent is the ID of the span that caused this
// one (0 for the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// observation is a count taken at the same boundary as a span.
type observation struct {
	Op    int     `json:"op"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// tracer records nothing, so a workload's traced and untraced operations
// can share code wherever tracing does not change which calls are made.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	obs   []observation
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span whose duration was measured elsewhere (a pass.Report
// row, the server's elapsed_ns), placed at start inside its parent.
func (t *tracer) add(parent, op int, name string, start, dur int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: start + dur})
	t.mu.Unlock()
}

// startOf reports when a span began, for placing add's spans.
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Start
}

func (t *tracer) observe(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs = append(t.obs, observation{Op: op, Name: name, Value: v})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, indexed like spans. Children may overlap
// each other (two goroutines under one parent), so the covered part is the
// union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// perOp folds a trace into one number per (name, operation): the summed
// self time in nanoseconds for span names, the summed value for counts.
// A name that occurs three times in an operation (the three compiles of a
// kernels operation) contributes its sum, so every figure is per
// operation.
func (t *tracer) perOp() map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	put := func(name string, op int, v float64) {
		if out[name] == nil {
			out[name] = map[int]float64{}
		}
		out[name][op] += v
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		put(s.Name, s.Op, float64(self[i]))
	}
	for _, o := range t.obs {
		put(o.Name, o.Op, o.Value)
	}
	return out
}

// write stores the trace as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans        []span        `json:"spans"`
		Observations []observation `json:"observations"`
	}{t.spans, t.obs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package tune

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/schedule"
	"repro/internal/titan"
)

// atWidths runs search at pool widths 1, 2 and 8 — inline, the benchmark
// box, and more workers than most batches have candidates — and requires
// the whole Result, Simulated included, to be the one width 1 produced.
func atWidths(t *testing.T, name string, search func() (*Result, error)) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *Result
	for _, width := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(width)
		res, err := search()
		if err != nil {
			t.Fatalf("%s at width %d: %v", name, width, err)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Errorf("%s: width %d\n  got     %+v\n  width 1 %+v", name, width, res, first)
		}
	}
	return first
}

// Candidates are compiled and simulated on as many workers as the host
// has processors, and nothing a search reports may show it.
func TestDecisionsDoNotDependOnWidth(t *testing.T) {
	for _, w := range []bench.Workload{
		bench.Kernel("daxpy", 256), bench.Kernel("backsolve", 256), bench.Kernel("clip", 256), bench.Kernel("transform4x4", 16), bench.Kernel("wavefront", 64),
	} {
		for _, cfg := range []Config{{Processors: 4}, {Processors: 4, Budget: 5}} {
			atWidths(t, w.Name, func() (*Result, error) { return Tune(w.Src, driver.FullOptions(), cfg) })
		}
	}
}

// A candidate whose compile fails is counted and discarded, wherever in
// its batch it sits and whichever worker met the error: here the very
// schedule the search would otherwise adopt for daxpy's first loop.
func TestFailedCompileIsDiscarded(t *testing.T) {
	w := bench.Kernel("daxpy", 256)
	cfg := Config{Processors: 4}
	clean, err := Tune(w.Src, driver.FullOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var won Decision
	for _, d := range clean.Decisions {
		if d.Schedule != schedule.Default() {
			won = d
			break
		}
	}
	probe, err := newSearch(w.Src, driver.FullOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	at, of := -1, 0
	for _, li := range probe.discover() {
		if li.key == won.Loop {
			at, of = slices.Index(li.candidates, won.Schedule), len(li.candidates)
		}
	}
	probe.base.Release()
	if at <= 0 || at >= of-1 {
		t.Fatalf("the schedule %s adopts for %v is candidate %d of %d, not mid-batch", w.Name, won.Loop, at, of)
	}
	rejected := errors.New("tail rejects this schedule")
	got := atWidths(t, w.Name, func() (*Result, error) {
		s, err := newSearch(w.Src, driver.FullOptions(), cfg)
		if err != nil {
			return nil, err
		}
		defer s.base.Release()
		s.generate = func(set *schedule.Set) (*titan.Program, error) {
			if set != nil {
				if entry(set, won.Loop) == won.Schedule {
					return nil, rejected
				}
			}
			return s.compile(set)
		}
		return s.run()
	})
	if got.Measured != clean.Measured {
		t.Errorf("measured %d candidates, %d when every compile succeeds", got.Measured, clean.Measured)
	}
	for _, d := range got.Decisions {
		if d.Loop != won.Loop {
			continue
		}
		if d.Candidates != won.Candidates {
			t.Errorf("loop %v counted %d candidates, want %d", d.Loop, d.Candidates, won.Candidates)
		}
		if d.Schedule == won.Schedule {
			t.Errorf("loop %v adopted %s, whose compile failed", d.Loop, d.Schedule)
		}
		if d.Cycles < won.Cycles {
			t.Errorf("loop %v reached %d cycles without its best schedule, %d with it", d.Loop, d.Cycles, won.Cycles)
		}
	}
}

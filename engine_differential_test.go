package repro_test

// Differential validation of the fast Titan execution engine: on every
// E-series evaluation workload, compiled at full optimization, the
// engine (titan.Machine.Run) must produce a bit-identical Result —
// cycles, flops, instruction count, exit code, and output — to the
// reference interpreter (RunReference) at every supported processor
// count, the reference in both of its region orders. Run with -race these
// tests also prove the goroutine-backed parallel regions clean.

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/titan"
)

// eseriesWorkloads is the §9 evaluation set at its table sizes, which
// exercise multiple vector strips and parallel chunks per processor.
func eseriesWorkloads() []bench.Workload {
	return bench.Suite(repro.ESeries)
}

// testProcs is every processor count the machine supports. 3 is among
// them because it splits a loop unevenly, which 2 and 4 do not.
var testProcs = []int{1, 2, 3, 4}

// engineRun is one execution of a program, named for error messages.
type engineRun struct {
	name string
	titan.Result
}

// engineRuns runs prog's main at procs processors on the fast engine
// (first) and on the reference engine, at procs > 1 in both region
// orders. A program whose reversed run differs from the others has a race
// between processors that its final memory shows.
func engineRuns(prog *titan.Program, procs int) ([]engineRun, error) {
	runs := []engineRun{{name: "engine"}, {name: "reference"}, {name: "reversed reference"}}
	if procs == 1 {
		runs = runs[:2]
	}
	for i := range runs {
		m := titan.NewMachine(prog, procs)
		run := m.Run
		if i > 0 {
			run = m.RunReference
		}
		m.ReverseRegions = i == 2
		r, err := run("main")
		m.Release()
		if err != nil {
			return nil, fmt.Errorf("p=%d %s: %v", procs, runs[i].name, err)
		}
		runs[i].Result = r
	}
	return runs, nil
}

func TestEngineMatchesReferenceOnESeries(t *testing.T) {
	for _, w := range eseriesWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := driver.Compile(w.Src, driver.FullOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range testProcs {
				runs, err := engineRuns(res.Machine, procs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range runs[1:] {
					if r.Result != runs[0].Result {
						t.Errorf("p=%d: engine %+v != %s %+v", procs, runs[0].Result, r.name, r.Result)
					}
				}
			}
		})
	}
}

// TestEngineDeterministicOnSyntheticDoall runs the large parallel
// workload repeatedly at 4 processors: goroutine scheduling must never
// reach the simulated Result.
func TestEngineDeterministicOnSyntheticDoall(t *testing.T) {
	w := bench.Kernel("syntheticdoall", 2048)
	res, err := driver.Compile(w.Src, driver.FullOptions())
	if err != nil {
		t.Fatal(err)
	}
	var first titan.Result
	for i := 0; i < 10; i++ {
		got, err := titan.NewMachine(res.Machine, 4).Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
			ref, err := titan.NewMachine(res.Machine, 4).RunReference("main")
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("engine %+v != reference %+v", got, ref)
			}
		} else if got != first {
			t.Fatalf("run %d: %+v != first %+v", i, got, first)
		}
	}
}

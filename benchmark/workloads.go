package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/driver"
	"repro/internal/lexer"
	"repro/internal/pass"
	"repro/internal/titan"
	"repro/internal/tune"
)

// workload is one set of inputs the benchmark runs. The runner owns the
// clock: it calls setup, performs one untimed pass (operations 0 to
// passOps-1), then calls do for consecutive operation indices from one
// goroutine per client, and finally finish.
type workload interface {
	// setup makes the inputs and their expectations from the seed and
	// builds whatever serves them. Nothing but the seed varies it.
	setup(seed int64) error
	// passOps is the number of operations that touch every distinct
	// input once. Rounds are whole passes, so every round does the same
	// mix of work.
	passOps() int
	// clients is the number of concurrent callers, each in a closed loop.
	clients() int
	// do performs operation i as the given client and checks its result
	// against the input's independent expectation. root is the
	// operation's span when tr is not nil.
	do(tr *tracer, root, i, client int) error
	// finish makes the checks that wait until the timed section is over.
	finish() error
	// mark and layers bracket the traced rounds: layers adds to m the
	// numbers the workload reads from outside the operations (server
	// counters since mark, stand-alone timings of single exported
	// functions).
	mark() error
	layers(m map[string]float64) error
	close()
}

var workloadNames = []string{"kernels", "compile", "simulate", "serve-hot", "serve-churn"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "kernels":
		return &kernelsWorkload{}, nil
	case "compile":
		return &compileWorkload{}, nil
	case "simulate":
		return &simulateWorkload{}, nil
	case "serve-hot":
		return &serveWorkload{}, nil
	case "serve-churn":
		return &serveWorkload{churn: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// defaults is embedded by the single-caller workloads that need no server.
type defaults struct{}

func (defaults) clients() int                    { return 1 }
func (defaults) mark() error                     { return nil }
func (defaults) layers(map[string]float64) error { return nil }
func (defaults) finish() error                   { return nil }
func (defaults) close()                          {}

// standalone times the two whole-unit calls that the staged spans cannot
// give: lexer.Tokenize on its own (the parser lexes as it goes) and the
// unstaged driver.CompileWith the staged compile has to reproduce.
func standalone(m map[string]float64, srcs []string, opts driver.Options) error {
	var tokMS, tokens, compMS []float64
	for _, src := range srcs {
		start := time.Now()
		toks, err := lexer.Tokenize(src)
		tokMS = append(tokMS, float64(time.Since(start))/1e6)
		if err != nil {
			return err
		}
		tokens = append(tokens, float64(len(toks)))

		start = time.Now()
		res, err := driver.CompileWith(src, opts, nil)
		compMS = append(compMS, float64(time.Since(start))/1e6)
		if err != nil {
			return err
		}
		res.IL.Release()
	}
	m["lexer.tokenize_ms"] = median(tokMS)
	m["lexer.tokens"] = median(tokens)
	m["driver.compile_ms"] = median(compMS)
	return nil
}

// ---------------------------------------------------------------- kernels

// kernelConfigs are the four configurations every kernel goes through.
var kernelConfigs = [4]string{"scalar_p1", "full_p1", "full_p4", "tuned_p4"}

// kernelResult is what one kernels operation measured on the simulated
// clock. It is deterministic: the first result of a kernel is the
// reference every later repetition must equal.
type kernelResult struct {
	cycles [4]int64
	instrs int // static size of the FullOptions program
}

// kernelsWorkload is the paper's programs: one operation takes one kernel
// through all four configurations (3 compiles, 1 tune, 4 simulations).
type kernelsWorkload struct {
	defaults
	srcs  []string
	wants []expectation
	first []*kernelResult
}

func (w *kernelsWorkload) setup(int64) error {
	w.srcs, w.wants, w.first = nil, nil, make([]*kernelResult, len(kernels))
	for _, k := range kernels {
		w.srcs = append(w.srcs, k.source())
		w.wants = append(w.wants, checksumExpectation(k.mirror32()))
	}
	return nil
}

func (w *kernelsWorkload) passOps() int { return len(kernels) }

func (w *kernelsWorkload) do(tr *tracer, root, i, _ int) error {
	k := i % len(kernels)
	src, want := w.srcs[k], w.wants[k]
	var got kernelResult

	run := func(cfg int, tp *titan.Program, processors int) error {
		r, err := simulate(tr, root, i, tp, processors, want, "")
		got.cycles[cfg] = r.Cycles
		return err
	}
	scalar, err := compile(tr, root, i, src, driver.ScalarOptions(), nil)
	if err != nil {
		return err
	}
	err = run(0, scalar.Machine, 1)
	scalar.IL.Release()
	if err != nil {
		return err
	}

	full, err := compile(tr, root, i, src, driver.FullOptions(), nil)
	if err != nil {
		return err
	}
	got.instrs = countInstrs(full.Machine)
	err = run(1, full.Machine, 1)
	if err == nil {
		err = run(2, full.Machine, 4)
	}
	full.IL.Release()
	if err != nil {
		return err
	}

	id := tr.begin(root, i, "tune.tune")
	plan, err := tune.Tune(src, driver.FullOptions(), tune.Config{Processors: 4})
	tr.end(id)
	if err != nil {
		return err
	}
	tr.observe(i, "tune.candidates_measured", float64(plan.Measured))
	tr.observe(i, "tune.decisions_non_default", float64(plan.Schedules.Len()))
	tr.observe(i, "tune.default_cycles", float64(plan.DefaultCycles))
	tr.observe(i, "tune.tuned_cycles", float64(plan.TunedCycles))
	ctx := pass.NewContext()
	ctx.Schedules = plan.Schedules
	tuned, err := compile(tr, root, i, src, driver.FullOptions(), ctx)
	if err != nil {
		return err
	}
	err = run(3, tuned.Machine, 4)
	tuned.IL.Release()
	if err != nil {
		return err
	}
	if got.cycles[3] != plan.TunedCycles {
		return fmt.Errorf("%s: the tuned program took %d cycles, the tuner measured %d", kernels[k].name, got.cycles[3], plan.TunedCycles)
	}

	if w.first[k] == nil {
		w.first[k] = &got
	} else if *w.first[k] != got {
		return fmt.Errorf("%s: simulated results changed between repetitions: %+v then %+v", kernels[k].name, *w.first[k], got)
	}
	return nil
}

func (w *kernelsWorkload) layers(m map[string]float64) error {
	return standalone(m, w.srcs, driver.FullOptions())
}

// quality is the generated code's cost on the simulated clock: geometric
// means over the twelve kernels. These numbers depend on the compiler and
// the machine model only, never on the host or the seed.
type quality struct {
	cycles [4]float64
	instrs float64
}

func (w *kernelsWorkload) quality() (quality, error) {
	var q quality
	var instrs []float64
	cycles := make([][]float64, len(kernelConfigs))
	for k, r := range w.first {
		if r == nil {
			return q, fmt.Errorf("kernel %s has no result", kernels[k].name)
		}
		instrs = append(instrs, float64(r.instrs))
		for c := range cycles {
			cycles[c] = append(cycles[c], float64(r.cycles[c]))
		}
	}
	q.instrs = geomean(instrs)
	for c := range cycles {
		q.cycles[c] = geomean(cycles[c])
	}
	return q, nil
}

// measureQuality runs every kernel once through the four configurations.
// Every workload's process does this, outside its set-up and its timed
// section, because the simulated-cycle metrics belong to the build under
// test and not to a traffic mix; in the kernels workload the same pass is
// the operation being timed.
func measureQuality() (quality, error) {
	w := &kernelsWorkload{}
	if err := w.setup(0); err != nil {
		return quality{}, err
	}
	for i := 0; i < w.passOps(); i++ {
		if err := w.do(nil, 0, i, 0); err != nil {
			return quality{}, fmt.Errorf("kernel %s: %w", kernels[i].name, err)
		}
	}
	return w.quality()
}

// ---------------------------------------------------------------- compile

// compileUnits is how many distinct units the compile workload cycles
// through; compileSpec is their size: 24 procedures, three of each shape,
// about 12 KB of C.
const compileUnits = 16

var compileSpec = unitSpec{procs: 24, calls: 2, loops: 4, n: dim * dim, reps: 1, shapes: allShapes}

// compileWorkload is the compiler alone: one operation is one
// driver.Compile of a large unit at FullOptions, released afterwards. No
// simulation happens inside the timed section; finish runs every unit's
// last artifact once to check it.
type compileWorkload struct {
	defaults
	units []unit
	last  []*titan.Program
}

func (w *compileWorkload) setup(seed int64) error {
	w.units = genUnits(seed, compileUnits, compileSpec, "compile")
	w.last = make([]*titan.Program, len(w.units))
	return nil
}

func (w *compileWorkload) passOps() int { return len(w.units) }

func (w *compileWorkload) do(tr *tracer, root, i, _ int) error {
	k := i % len(w.units)
	res, err := compile(tr, root, i, w.units[k].src, driver.FullOptions(), nil)
	if err != nil {
		return err
	}
	w.last[k] = res.Machine
	res.IL.Release()
	return nil
}

func (w *compileWorkload) finish() error {
	for k, tp := range w.last {
		if tp == nil {
			continue
		}
		if _, err := simulate(nil, 0, 0, tp, 1, w.units[k].want, ""); err != nil {
			return fmt.Errorf("unit %d: %w", k, err)
		}
	}
	return nil
}

func (w *compileWorkload) layers(m map[string]float64) error {
	srcs := make([]string, len(w.units))
	for k, u := range w.units {
		srcs[k] = u.src
	}
	return standalone(m, srcs, driver.FullOptions())
}

// --------------------------------------------------------------- simulate

// simPrograms are the simulate workload's four long programs: the same
// layer used four different ways, about 1 to 2.5 million simulated
// instructions each.
var simPrograms = []struct {
	name       string
	spec       unitSpec
	opts       driver.Options
	processors int
}{
	// Per-instruction dispatch: a scalar recurrence and an integer loop.
	{"scalar_p1", unitSpec{procs: 2, calls: 2, loops: 1, n: 4096, reps: 10, shapes: []shape{shapeRecur, shapeInt}, dist: 2}, driver.ScalarOptions(), 1},
	// Vector slab kernels and fork/join fan-out.
	{"doall_p4", unitSpec{procs: 2, calls: 2, loops: 1, n: 4096, reps: 64, shapes: []shape{shapeChain, shapeNest}}, driver.FullOptions(), 4},
	// Post/wait synchronisation cells between processors.
	{"doacross_p4", unitSpec{procs: 2, calls: 2, loops: 1, n: 4096, reps: 3, shapes: []shape{shapeRecur, shapeRecur}, dist: 3}, driver.FullOptions(), 4},
	// Mask register file and masked vector operations.
	{"masked_p2", unitSpec{procs: 2, calls: 2, loops: 1, n: 4096, reps: 64, shapes: []shape{shapeGuard, shapeGuard}}, driver.FullOptions(), 2},
}

// simulateWorkload is the simulator alone: the programs are compiled in
// set-up and one operation is titan.NewMachine plus Run of each of the
// four in turn, so that every operation is the same work and the median
// latency does not hinge on which program happens to rank in the middle.
type simulateWorkload struct {
	defaults
	progs []*titan.Program
	wants []expectation
}

func (w *simulateWorkload) setup(seed int64) error {
	w.progs, w.wants = nil, nil
	rng := rand.New(rand.NewSource(seed))
	for _, p := range simPrograms {
		u := genUnit(rng, p.spec, fmt.Sprintf("%s seed %d", p.name, seed))
		res, err := driver.Compile(u.src, p.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		w.progs, w.wants = append(w.progs, res.Machine), append(w.wants, u.want)
		res.IL.Release()
	}
	return nil
}

func (w *simulateWorkload) passOps() int { return 1 }

func (w *simulateWorkload) do(tr *tracer, root, i, _ int) error {
	for k, p := range simPrograms {
		if _, err := simulate(tr, root, i, w.progs[k], p.processors, w.wants[k], p.name); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

package codegen_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/titan"
)

// tightRegs is the fewest variable registers per file under which every
// program of budgetCorpus compiles at scalar and full options: at 4, a
// region scalar of the manyprocs unit and a DO loop's IV in
// transform4x4.c's main find no register.
const tightRegs = 5

// budgetCorpus is the benchmark's programs, testdata/*.c, the manyprocs
// unit and race12, whose main inlines 24 loops.
func budgetCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{}
	for _, w := range []bench.Workload{bench.ManyProcs(), bench.RaceProgram(12)} {
		corpus[w.Name] = w.Src
	}
	for _, pat := range []string{"../../benchmark/programs/*.c", "../../testdata/*.c"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs match %s (%v)", pat, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			corpus[filepath.Base(p)] = string(src)
		}
	}
	return corpus
}

// TestSharedRegistersKeepValues is the oracle for register sharing: with
// tightRegs variable registers per file most scalars share one, and the
// rest outside every region live in the frame. Each program must exit
// and print what its normal build does, at 1, 3 and 4 processors on both
// engines, the reference in both region orders.
func TestSharedRegistersKeepValues(t *testing.T) {
	for name, src := range budgetCorpus(t) {
		for oname, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
			normal, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, oname, err)
			}
			restore := codegen.SetVarRegs(tightRegs)
			tight, err := driver.Compile(src, opts)
			restore()
			if err != nil {
				t.Fatalf("%s/%s with %d registers: %v", name, oname, tightRegs, err)
			}
			for _, procs := range []int{1, 3, 4} {
				want := run(t, normal.Machine, procs, false, false)
				for _, e := range []struct{ ref, reverse bool }{{false, false}, {true, false}, {true, true}} {
					if got := run(t, tight.Machine, procs, e.ref, e.reverse); got.ExitCode != want.ExitCode || got.Output != want.Output {
						t.Errorf("%s/%s p=%d reference=%v reversed=%v: exit %d output %q, normal build gives exit %d output %q",
							name, oname, procs, e.ref, e.reverse, got.ExitCode, got.Output, want.ExitCode, want.Output)
					}
				}
			}
		}
	}
}

// TestTightRegsIsTheLeast pins tightRegs as a minimum: with one register
// fewer, a do parallel region of the manyprocs unit has a scalar for
// which no register is free, and codegen refuses it, naming the region,
// rather than give it a frame slot that every processor would share.
func TestTightRegsIsTheLeast(t *testing.T) {
	defer codegen.SetVarRegs(tightRegs - 1)()
	const want = "p3: codegen: 51:2: n is a scalar of a do parallel region"
	if _, err := driver.Compile(bench.ManyProcs().Src, driver.FullOptions()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("manyprocs with %d registers: %v, want an error containing %q", tightRegs-1, err, want)
	}
}

func run(t *testing.T, prog *titan.Program, procs int, ref, reverse bool) titan.Result {
	t.Helper()
	m := titan.NewMachine(prog, procs)
	defer m.Release()
	m.ReverseRegions = reverse
	do := m.Run
	if ref {
		do = m.RunReference
	}
	r, err := do("main")
	if err != nil {
		t.Fatalf("p=%d reference=%v reversed=%v: %v", procs, ref, reverse, err)
	}
	return r
}

package codegen_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/titan"
)

// tightRegs is the fewest registers per file under which every program of
// budgetCorpus compiles at scalar and full options: at 8, a temporary that
// a do parallel region of the manyprocs unit defines finds no register.
const tightRegs = 9

// budgetCorpus is the corpus kernels, the benchmark's programs, the
// manyprocs unit and race12, whose main inlines 24 loops.
func budgetCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := corpus(t)
	for _, w := range []bench.Workload{bench.ManyProcs(), bench.RaceProgram(12)} {
		corpus[w.Name] = w.Src
	}
	return corpus
}

// TestSharedRegistersKeepValues is the oracle for register sharing: with
// tightRegs registers per file most values share one, and the rest
// outside every region are rematerialized or live in the frame. Each program must exit
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
// fewer, a do parallel region of the manyprocs unit defines a value for
// which no register is free, and codegen refuses it, naming the region,
// rather than give it a frame slot that every processor would share.
func TestTightRegsIsTheLeast(t *testing.T) {
	defer codegen.SetVarRegs(tightRegs - 1)()
	const want = "main: codegen: 10:2: a temporary is a scalar of a do parallel region"
	if _, err := driver.Compile(bench.ManyProcs().Src, driver.FullOptions()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("manyprocs with %d registers: %v, want an error containing %q", tightRegs-1, err, want)
	}
}

// TestFullRegisterFileSpillsNothing: at the full register file no value of
// any budgetCorpus program goes without a register, so no instruction names
// a spill temporary (r3, r4, f3 or f4). Spread placement alone, each value
// on a register no other has held while one is left, leaves a value of 7
// manyprocs procedures and 12 race12 loops without a register here, and
// the tightRegs tests fail with it too; the packed retry places them all.
func TestFullRegisterFileSpillsNothing(t *testing.T) {
	for name, src := range budgetCorpus(t) {
		for oname, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
			res, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, oname, err)
			}
			for fname, f := range res.Machine.Funcs {
				n := 0
				for _, in := range f.Instrs {
					refs := in.Refs()
					for _, r := range append(refs.Defs(), refs.Uses()...) {
						if (r.File == titan.IntReg || r.File == titan.FltReg) && (r.Num == 3 || r.Num == 4) {
							n++
						}
					}
				}
				if n > 0 {
					t.Errorf("%s/%s: %s names a spill temporary %d times", name, oname, fname, n)
				}
			}
		}
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

// deepNest is depth DO loops, each with a limit a + b*k computed from
// nest's parameters and so held in a register of its own over its loop,
// around a loop over out that every IV feeds.
func deepNest(depth int) string {
	var sb strings.Builder
	sb.WriteString("int printf(char *fmt, ...);\nint ga = 1, gb = 0, out[8];\n\nvoid nest(int a, int b)\n{\n\tint j")
	for k := range depth {
		fmt.Fprintf(&sb, ", i%d", k)
	}
	sb.WriteString(";\n")
	for k := range depth {
		fmt.Fprintf(&sb, "%sfor (i%d = 0; i%d < a + b * %d; i%d++)\n", strings.Repeat("\t", k+1), k, k, k, k)
	}
	fmt.Fprintf(&sb, "%sfor (j = 0; j < 8; j++)\n%s\tout[j] = out[j] * 3 + j", strings.Repeat("\t", depth+1), strings.Repeat("\t", depth+1))
	for k := range depth {
		fmt.Fprintf(&sb, " + i%d", k)
	}
	sb.WriteString(";\n}\n\nint main(void)\n{\n\tnest(ga, gb);\n\tnest(ga, gb);\n")
	sb.WriteString("\tprintf(\"%d %d\\n\", out[0], out[7]);\n\treturn out[7] % 251;\n}\n")
	return sb.String()
}

// TestDeepNestNeedsNoScratchPool: a nest deeper than any fixed pool of
// temporaries, each level holding a computed limit over its loop, compiles
// at scalar and full options and answers what -O0 does at 1, 3 and 4
// processors on both engines, the reference in both region orders.
func TestDeepNestNeedsNoScratchPool(t *testing.T) {
	for _, depth := range []int{15, 18} {
		src := deepNest(depth)
		want, err := driver.Run(src, driver.Options{OptLevel: 0}, 1)
		if err != nil {
			t.Fatalf("depth %d at -O0: %v", depth, err)
		}
		for oname, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
			res, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("depth %d %s: %v", depth, oname, err)
			}
			for _, procs := range []int{1, 3, 4} {
				for _, e := range []struct{ ref, reverse bool }{{false, false}, {true, false}, {true, true}} {
					got := run(t, res.Machine, procs, e.ref, e.reverse)
					if got.ExitCode != want.ExitCode || got.Output != want.Output || got.Globals != want.Globals {
						t.Errorf("depth %d %s p=%d reference=%v reversed=%v: exit %d output %q globals %x, -O0 gives exit %d output %q globals %x",
							depth, oname, procs, e.ref, e.reverse, got.ExitCode, got.Output, got.Globals, want.ExitCode, want.Output, want.Globals)
					}
				}
			}
		}
	}
}

package codegen_test

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/driver"
)

// The scheduler reorders instructions inside blocks and never moves a
// block: over the programs of the Titan golden corpus compiled at
// FullOptions, it leaves every label's index and every function's length
// as code generation left them.
func TestScheduleLeavesLabels(t *testing.T) {
	srcs := map[string]string{}
	for _, pat := range []string{"../../testdata/*.c", "../../benchmark/programs/*.c"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs match %s (%v)", pat, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			srcs[p] = string(src)
		}
	}
	for _, w := range []bench.Workload{bench.Backsolve(512), bench.Daxpy(512), bench.CopyLoop(512),
		bench.ReverseAxpy(512), bench.VectorAdd(512), bench.Transform4x4(64), bench.SyntheticDoall(2048, 4)} {
		srcs[w.Name] = w.Src
	}
	opts := driver.FullOptions()
	opts.NoSchedule = true
	for name, src := range srcs {
		res, err := driver.Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tp := res.Machine
		labels, lens := map[string]map[string]int{}, map[string]int{}
		for fn, f := range tp.Funcs {
			labels[fn], lens[fn] = maps.Clone(f.Labels), len(f.Instrs)
		}
		codegen.Schedule(tp)
		for fn, f := range tp.Funcs {
			if len(f.Instrs) != lens[fn] {
				t.Errorf("%s/%s: %d instructions became %d", name, fn, lens[fn], len(f.Instrs))
			}
			if !maps.Equal(f.Labels, labels[fn]) {
				t.Errorf("%s/%s: labels moved:\n got  %v\n want %v", name, fn, f.Labels, labels[fn])
			}
		}
	}
}

package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
)

// TestArenaSavesAllocations is what the arena is for: with every pass
// building its IL through the procedure's arena, the optimizer of a
// multi-loop unit allocates at most 0.85× the objects the same compile
// allocates with the arenas stripped after lowering (the oracle of
// differential_arena_test.go). While the mid-end still built on the heap
// the ratio was 0.96.
func TestArenaSavesAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := manyProcProgram(8)
	allocs := func(strip bool) float64 {
		return testing.AllocsPerRun(5, func() {
			ctx := pass.NewContext()
			ctx.Workers = 1
			if strip {
				ctx.Snapshot = func(name string, prog *il.Program) {
					if name != pass.SnapshotInput {
						return
					}
					for _, p := range prog.Procs {
						p.Arena().Release()
						p.SetArena(nil)
					}
				}
			}
			res, err := driver.CompileILWith(src, driver.FullOptions(), ctx)
			if err != nil {
				t.Fatalf("compile (strip=%v): %v", strip, err)
			}
			res.IL.Release()
		})
	}
	arena, heap := allocs(false), allocs(true)
	if arena > 0.85*heap {
		t.Errorf("arena compile allocates %.0f objects, stripped %.0f: ratio %.3f, want <= 0.85", arena, heap, arena/heap)
	}
}

// TestArenaTailWaste pins the arena's chunk geometry (il/arena.go): over
// each compile of the testdata corpus and of bench.ManyProcs, at scalar and
// full options, the chunk capacity the procedures' arenas hold but no node
// fills stays within 1.25× the bytes of the nodes themselves. Doubling
// chunks alone strand up to about the nodes' own size; the rest is the
// first chunk of a slab that holds fewer nodes than it. At 64 nodes
// doubling to 1024 every corpus compile strands more than 2.5× its nodes.
func TestArenaTailWaste(t *testing.T) {
	const maxWaste = 1.25
	srcs := map[string]string{"manyprocs": bench.ManyProcs().Src}
	for _, w := range bench.Corpus() {
		srcs[w.Name] = w.Src
	}
	for name, src := range srcs {
		for optName, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
			res, err := driver.CompileIL(src, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, optName, err)
			}
			var chunks, nodes int64
			for _, p := range res.IL.Procs {
				c, n := p.Arena().Bytes()
				chunks += c
				nodes += n
			}
			res.IL.Release()
			if nodes == 0 {
				t.Fatalf("%s/%s: no arena nodes", name, optName)
			}
			if waste := float64(chunks-nodes) / float64(nodes); waste > maxWaste {
				t.Errorf("%s/%s: %d chunk bytes hold %d node bytes: unused %.2f× the nodes, want <= %.2f×",
					name, optName, chunks, nodes, waste, maxWaste)
			}
		}
	}
}

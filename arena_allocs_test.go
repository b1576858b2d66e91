package repro

import (
	"testing"

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

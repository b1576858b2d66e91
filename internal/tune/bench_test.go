package tune_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/titan"
	"repro/internal/tune"
)

// BenchmarkTune is the tuner's own number to move: one whole search at 4
// processors over a vectorizable unit (daxpy), a recurrence (backsolve)
// and a masked one (clip), with what the search spent beside the time —
// candidate compiles and programs actually simulated.
//
//	go test -run '^$' -bench Tune -benchmem ./internal/tune
func BenchmarkTune(b *testing.B) {
	for _, w := range []bench.Workload{bench.Kernel("daxpy", 256), bench.Kernel("backsolve", 256), bench.Kernel("clip", 256)} {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			var res *tune.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = tune.Tune(w.Src, driver.FullOptions(), tune.Config{Processors: 4})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Measured), "candidates/search")
			b.ReportMetric(float64(res.Simulated), "simulated/search")
		})
	}
}

// BenchmarkNewMachine is what one of a search's simulations pays before it
// runs: a machine for daxpy at one and four processors, built on state
// nobody released (fresh: there is nothing to reuse) and on the state
// the previous iteration released (recycled). B/op is the figure to read.
//
//	go test -run '^$' -bench NewMachine -benchmem ./internal/tune
func BenchmarkNewMachine(b *testing.B) {
	res, err := driver.Compile(bench.Kernel("daxpy", 256).Src, driver.FullOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		for _, state := range []string{"fresh", "recycled"} {
			b.Run(fmt.Sprintf("p%d/%s", procs, state), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m := titan.NewMachine(res.Machine, procs)
					if state == "recycled" {
						m.Release()
					}
				}
			})
		}
	}
}

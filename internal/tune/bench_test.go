package tune_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/tune"
)

// BenchmarkTune is the tuner's own number to move: one whole search at 4
// processors over a vectorizable unit (daxpy), a recurrence (backsolve)
// and a masked one (clip), with what the search spent beside the time —
// candidate compiles and programs actually simulated.
//
//	go test -run '^$' -bench Tune -benchmem ./internal/tune
func BenchmarkTune(b *testing.B) {
	for _, w := range []bench.Workload{bench.Daxpy(256), bench.Backsolve(256), bench.Clip(256)} {
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

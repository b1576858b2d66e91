package repro

// Compile-throughput benchmarks for the incremental analysis engine:
// ns/op and allocs/op of driver.Compile over large synthetic programs
// (internal/bench.SyntheticProgram), with the analysis cache on (the
// default) and off (the pre-cache baseline). Besides the standard
// benchmark output, every measured sub-benchmark is recorded and
// TestMain writes the set to BENCH_compile.json so CI can archive the
// numbers per commit:
//
//	go test -run=NONE -bench=Compile -benchtime=1x .
//
// produces one row per sub-benchmark with ns_per_op, allocs_per_op, and
// bytes_per_op.

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/pass"
)

// compileBenchRow is one sub-benchmark's result as written to
// BENCH_compile.json.
type compileBenchRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

var compileBench struct {
	mu   sync.Mutex
	rows []compileBenchRow
}

func recordCompileBench(r compileBenchRow) {
	compileBench.mu.Lock()
	compileBench.rows = append(compileBench.rows, r)
	compileBench.mu.Unlock()
}

// TestMain exists only to flush BENCH_compile.json and its siblings
// after a -bench run; plain `go test` records nothing and writes nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	compileBench.mu.Lock()
	rows := compileBench.rows
	compileBench.mu.Unlock()
	if len(rows) > 0 {
		if blob, err := json.MarshalIndent(rows, "", "  "); err == nil {
			_ = os.WriteFile("BENCH_compile.json", append(blob, '\n'), 0o644)
		}
	}
	tuneBench.mu.Lock()
	tuneRows := tuneBench.rows
	tuneBench.mu.Unlock()
	if len(tuneRows) > 0 {
		if blob, err := json.MarshalIndent(tuneRows, "", "  "); err == nil {
			_ = os.WriteFile("BENCH_tune.json", append(blob, '\n'), 0o644)
		}
	}
	doacrossBench.mu.Lock()
	doacrossRows := doacrossBench.rows
	doacrossBench.mu.Unlock()
	if len(doacrossRows) > 0 {
		if blob, err := json.MarshalIndent(doacrossRows, "", "  "); err == nil {
			_ = os.WriteFile("BENCH_doacross.json", append(blob, '\n'), 0o644)
		}
	}
	maskedBench.mu.Lock()
	maskedRows := maskedBench.rows
	maskedBench.mu.Unlock()
	if len(maskedRows) > 0 {
		if blob, err := json.MarshalIndent(maskedRows, "", "  "); err == nil {
			_ = os.WriteFile("BENCH_masked.json", append(blob, '\n'), 0o644)
		}
	}
	os.Exit(code)
}

// benchCompile measures driver.Compile end to end at FullOptions with
// the given cache mode, reporting allocs the standard way and recording
// the row for the JSON artifact. Workers is pinned to 1 so ns/op
// measures work done, not scheduling luck, and so allocs/op is exact.
func benchCompile(b *testing.B, src string, cached bool) {
	opts := driver.FullOptions()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := pass.NewContext()
		ctx.Workers = 1
		if !cached {
			ctx.Analysis = nil
		}
		if _, err := driver.CompileWith(src, opts, ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	recordCompileBench(compileBenchRow{
		Name:        b.Name(),
		N:           b.N,
		NsPerOp:     float64(b.Elapsed().Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	})
}

// BenchmarkCompile is the throughput suite: two program sizes, cache on
// vs off. The cached/uncached pair on the same source is the measured
// claim of this change — cached must win on both ns/op and allocs/op.
func BenchmarkCompile(b *testing.B) {
	sizes := []struct {
		name string
		cfg  bench.GenConfig
	}{
		{"small", bench.GenConfig{Procs: 4, LoopsPerProc: 2, ChainWidth: 4}},
		{"large", bench.GenConfig{Procs: 24, LoopsPerProc: 4, ChainWidth: 8}},
	}
	for _, sz := range sizes {
		src := bench.SyntheticProgram(sz.cfg)
		b.Run(sz.name+"/cached", func(b *testing.B) { benchCompile(b, src, true) })
		b.Run(sz.name+"/uncached", func(b *testing.B) { benchCompile(b, src, false) })
	}
}

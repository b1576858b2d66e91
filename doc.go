// Package repro is a reproduction of Allen & Johnson, "Compiling C for
// Vectorization, Parallelization, and Inline Expansion" (PLDI 1988): the
// Ardent Titan C compiler, rebuilt in Go, together with a simulated Titan
// to run its output on.
//
// See README.md for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured results. The benchmarks in
// bench_test.go regenerate every number in EXPERIMENTS.md (simulated
// cycles are deterministic, so one iteration measures everything):
//
//	go test -run=NONE -bench=. -benchtime=1x .
//
// Host-time and serving numbers come from the one benchmark that
// BENCHMARK.json declares:
//
//	bash benchmark/run.sh
package repro

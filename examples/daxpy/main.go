// The paper's §9 walkthrough: a C daxpy cannot be vectorized directly
// because C imposes no restrictions on argument aliasing — but inlining it
// into the caller exposes the distinct arrays, and the loop then compiles
// to `do parallel vi = 0, 99, 32 { vector ... }`, running many times
// faster on a two-processor Titan. This example reproduces the whole
// chain and prints the intermediate form at each step.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/driver"
)

func measure(w bench.Workload, name string, opts driver.Options, procs int) bench.Measurement {
	m, err := bench.Run(w, bench.Config{Name: name, Opts: opts, Processors: procs})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return m
}

func main() {
	// The §9 program, with the daxpy call marked so the harness measures
	// the kernel differentially (total minus a run without the call).
	w := bench.Kernel("daxpy", 100)

	// Show the final IL of main under the full pipeline: the paper's
	// "do parallel vi = 0, 99, 32" shape.
	res, err := driver.CompileIL(w.Src, driver.FullOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("==== main after inlining + scalar opt + vectorization ====")
	fmt.Println(res.IL.Proc("main").String())

	scalar := measure(w, "scalar", driver.Options{OptLevel: 1}, 1)
	inlined := measure(w, "inline-only", driver.Options{OptLevel: 1, Inline: true, StrengthReduce: true}, 1)
	vector1 := measure(w, "vector", driver.Options{OptLevel: 1, Inline: true, Vectorize: true, StrengthReduce: true}, 1)
	full2 := measure(w, "vector+parallel", driver.FullOptions(), 2)

	fmt.Println("configuration        procs  kernel-cycles  speedup")
	row := func(name string, procs int, m bench.Measurement) {
		fmt.Printf("%-20s %5d %13d %8.1fx\n", name, procs, m.KernelCycles,
			bench.Speedup(scalar, m))
	}
	row("scalar (call)", 1, scalar)
	row("inlined", 1, inlined)
	row("inlined+vector", 1, vector1)
	row("inlined+vector, P=2", 2, full2)

	fmt.Printf("\npaper's claim: ~12x on a two-processor Titan; measured %.1fx at n=100\n",
		bench.Speedup(scalar, full2))

	big := bench.Kernel("daxpy", 4096)
	bs := measure(big, "scalar", driver.Options{OptLevel: 1}, 1)
	bf := measure(big, "full", driver.FullOptions(), 2)
	fmt.Printf("at n=4096 (strip startup amortized): %.1fx\n", bench.Speedup(bs, bf))
}

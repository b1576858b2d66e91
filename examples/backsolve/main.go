// The paper's §6 example: a backsolve recurrence that cannot run in
// vector — x[i+1] depends on x[i] — but where the dependence graph drives
// register promotion, pointer strength reduction and int/FP overlap,
// taking the loop from 0.5 to 1.9 simulated MFLOPS shape (≈3.8x).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/driver"
)

// program is the corpus's backsolve at 2048 elements.
var program = repro.Source("backsolve", 2048)

func main() {
	// Show what §6 does to the loop.
	res, err := driver.CompileIL(program, driver.Options{
		OptLevel: 1, NoAlias: true, StrengthReduce: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("==== backsolve after dependence-driven optimization ====")
	fmt.Println(res.IL.Proc("backsolve").String())

	scalar, err := driver.Run(program, driver.Options{OptLevel: 1, NoAlias: true}, 1)
	if err != nil {
		log.Fatal(err)
	}
	optimized, err := driver.Run(program, driver.Options{
		OptLevel: 1, NoAlias: true, StrengthReduce: true,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scalar only:        %8d cycles  %5.2f MFLOPS\n", scalar.Cycles, scalar.MFLOPS())
	fmt.Printf("dependence-driven:  %8d cycles  %5.2f MFLOPS\n", optimized.Cycles, optimized.MFLOPS())
	fmt.Printf("speedup %.2fx (paper: 0.5 -> 1.9 MFLOPS, 3.8x)\n",
		float64(scalar.Cycles)/float64(optimized.Cycles))
}

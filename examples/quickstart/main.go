// Quickstart: compile a C program for the simulated Titan, run it, and
// look at what the compiler did.
package main

import (
	"fmt"
	"log"

	"repro/internal/driver"
	"repro/internal/titan"
)

const program = `
int printf(char *fmt, ...);

float a[256], b[256], c[256];

int main(void)
{
	int i;
	float checksum;

	for (i = 0; i < 256; i++) {
		b[i] = i;
		c[i] = 256 - i;
	}

	/* This loop vectorizes: independent arrays, affine subscripts. */
	for (i = 0; i < 256; i++)
		a[i] = b[i] + 2.0f * c[i];

	checksum = 0;
	for (i = 0; i < 256; i++)
		checksum = checksum + a[i];

	printf("checksum = %g\n", checksum);
	return 0;
}
`

func main() {
	// Compile with the full paper pipeline: inlining, while->DO
	// conversion, induction-variable substitution, dependence analysis,
	// vectorization, parallelization, strength reduction.
	res, err := driver.Compile(program, driver.FullOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("vectorized loops:  %d\n", res.Report.Vector.LoopsVectorized)
	fmt.Printf("vector statements: %d\n", res.Report.Vector.VectorStmts)
	fmt.Printf("parallel loops:    %d\n", res.Report.Vector.ParallelLoops)

	// Run on a 2-processor Titan.
	m := titan.NewMachine(res.Machine, 2)
	r, err := m.Run("main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.Output)
	fmt.Printf("cycles=%d  flops=%d  %.2f simulated MFLOPS\n",
		r.Cycles, r.FlopCount, r.MFLOPS())

	// Compare against the plain scalar compilation.
	scalar, err := driver.Run(program, driver.ScalarOptions(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scalar cycles=%d  speedup %.1fx\n",
		scalar.Cycles, float64(scalar.Cycles)/float64(r.Cycles))
}

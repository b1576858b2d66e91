package driver

import (
	"fmt"
	"math/rand"
	"testing"
)

// Floating-point end-to-end coverage: doubles through the vector pipeline,
// f32 rounding semantics, mixed int/float arithmetic, and a float
// differential test against a Go reference.

func TestDoubleVectorizes(t *testing.T) {
	src := `
double a[512], b[512];
int main(void) {
	int i;
	for (i = 0; i < 512; i++) b[i] = i;
	for (i = 0; i < 512; i++) a[i] = b[i] * 0.5;
	return 0;
}
`
	res, err := Compile(src, FullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Vector.VectorStmts < 1 {
		t.Fatalf("double loop did not vectorize: %+v", res.Report.Vector)
	}
	// Correctness across processor counts.
	check := `
double a[512], b[512];
int main(void) {
	int i, bad;
	for (i = 0; i < 512; i++) b[i] = i;
	for (i = 0; i < 512; i++) a[i] = b[i] * 0.5;
	bad = 0;
	for (i = 0; i < 512; i++)
		if (a[i] != i * 0.5) bad = bad + 1;
	return bad;
}
`
	for procs := 1; procs <= 4; procs++ {
		r, err := Run(check, FullOptions(), procs)
		if err != nil {
			t.Fatal(err)
		}
		if r.ExitCode != 0 {
			t.Errorf("procs=%d: %d mismatches", procs, r.ExitCode)
		}
	}
}

func TestIntArrayVectorizes(t *testing.T) {
	src := `
int a[256], b[256];
int main(void) {
	int i, bad;
	for (i = 0; i < 256; i++) b[i] = i * 3;
	for (i = 0; i < 256; i++) a[i] = b[i] * 2;
	bad = 0;
	for (i = 0; i < 256; i++)
		if (a[i] != i * 6) bad = bad + 1;
	return bad;
}
`
	for procs := 1; procs <= 2; procs++ {
		r, err := Run(src, FullOptions(), procs)
		if err != nil {
			t.Fatal(err)
		}
		if r.ExitCode != 0 {
			t.Errorf("procs=%d: %d mismatches", procs, r.ExitCode)
		}
	}
}

func TestFloat32RoundingThroughMemory(t *testing.T) {
	// Values stored to float arrays round to f32; register-resident
	// doubles do not. The simulator must model both.
	src := `
float f[1];
double d[1];
int main(void) {
	f[0] = 16777217.0;  /* 2^24+1: not representable in f32 */
	d[0] = 16777217.0;
	if (f[0] == 16777216.0f && d[0] == 16777217.0)
		return 1;
	return 0;
}
`
	r, err := Run(src, ScalarOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 1 {
		t.Errorf("rounding semantics wrong: exit %d", r.ExitCode)
	}
}

func TestFloatDivision(t *testing.T) {
	src := `
int main(void) {
	float a, b;
	a = 1.0f;
	b = 3.0f;
	if (a / b > 0.333f && a / b < 0.334f) return 1;
	return 0;
}
`
	if r, _ := Run(src, ScalarOptions(), 1); r.ExitCode != 1 {
		t.Error("float division broken")
	}
}

// TestDifferentialFloat compares float expression evaluation against Go
// (the simulator computes scalar FP in float64, like the Titan's
// registers).
func TestDifferentialFloat(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 20
	}
	ops := []string{"+", "-", "*"}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(9000 + seed)))
		// Build a random arithmetic expression string and a parallel Go
		// evaluation.
		var build func(depth int) (string, float64)
		vals := []float64{1.5, -2.25, 0.5, 3.0}
		names := []string{"w", "x", "y", "z"}
		build = func(depth int) (string, float64) {
			if depth <= 0 || r.Intn(3) == 0 {
				if r.Intn(2) == 0 {
					i := r.Intn(4)
					return names[i], vals[i]
				}
				c := float64(r.Intn(17)-8) / 2
				return fmt.Sprintf("(%g)", c), c
			}
			op := ops[r.Intn(len(ops))]
			ls, lv := build(depth - 1)
			rs, rv := build(depth - 1)
			var v float64
			switch op {
			case "+":
				v = lv + rv
			case "-":
				v = lv - rv
			case "*":
				v = lv * rv
			}
			return "(" + ls + " " + op + " " + rs + ")", v
		}
		es, want := build(4)
		// Compare against a small integer hash of the result scaled: exact
		// equality on doubles is fine since both sides do identical f64
		// arithmetic.
		src := fmt.Sprintf(`
double w, x, y, z;
int main(void) {
	double r;
	w = 1.5; x = -2.25; y = 0.5; z = 3.0;
	r = %s;
	if (r == %v) return 1;
	return 0;
}
`, es, fmtGo(want))
		res, err := Run(src, ScalarOptions(), 1)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if res.ExitCode != 1 {
			t.Fatalf("seed %d: mismatch\n%s", seed, src)
		}
	}
}

// fmtGo renders a float64 as a C literal with full precision.
func fmtGo(v float64) string {
	return fmt.Sprintf("%.17g", v)
}

func TestPrintfFloats(t *testing.T) {
	src := `
int printf(char *fmt, ...);
int main(void) {
	printf("%g %g %d\n", 1.5f, 2.5, 3);
	return 0;
}
`
	r, err := Run(src, ScalarOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Output != "1.5 2.5 3\n" {
		t.Errorf("output %q", r.Output)
	}
}

func TestPutcharPuts(t *testing.T) {
	src := `
int putchar(int c);
int puts(char *s);
int main(void) {
	putchar('h');
	putchar('i');
	putchar(10);
	puts("there");
	return 0;
}
`
	r, err := Run(src, ScalarOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Output != "hi\nthere\n" {
		t.Errorf("output %q", r.Output)
	}
}

func TestNegativeStrideVector(t *testing.T) {
	// A reversed copy c[i] = b[n-1-i] reads with negative stride.
	src := `
float b[128], c[128];
int main(void) {
	int i, bad;
	for (i = 0; i < 128; i++) b[i] = i;
	for (i = 0; i < 128; i++) c[i] = b[127 - i] * 1.0f;
	bad = 0;
	for (i = 0; i < 128; i++)
		if (c[i] != 127 - i) bad = bad + 1;
	return bad;
}
`
	for _, opts := range []Options{ScalarOptions(), FullOptions()} {
		r, err := Run(src, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.ExitCode != 0 {
			t.Errorf("opts %+v: %d mismatches", opts, r.ExitCode)
		}
	}
}

func TestMatrixNestOuterParallelInnerVector(t *testing.T) {
	// The Titan's natural pattern: outer loop across processors, inner
	// loop in vector (§2). Verify the transformation fires and the result
	// stays exact at every processor count.
	src := `
float a[64][64], b[64][64];
int main(void) {
	int i, j, bad;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			b[i][j] = i * 64 + j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			a[i][j] = b[i][j] * 2.0f + 1.0f;
	bad = 0;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			if (a[i][j] != (i * 64 + j) * 2.0f + 1.0f) bad = bad + 1;
	return bad;
}
`
	res, err := Compile(src, FullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Nest.NestsParallelized < 1 {
		t.Fatalf("no nest parallelized: %+v", res.Report.Nest)
	}
	if res.Report.Vector.VectorStmts < 1 {
		t.Fatalf("inner loops not vectorized: %+v", res.Report.Vector)
	}
	for procs := 1; procs <= 4; procs++ {
		r, err := Run(src, FullOptions(), procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if r.ExitCode != 0 {
			t.Errorf("procs=%d: %d mismatches", procs, r.ExitCode)
		}
	}
	// And it should scale.
	r1, _ := Run(src, FullOptions(), 1)
	r4, _ := Run(src, FullOptions(), 4)
	if r4.Cycles >= r1.Cycles {
		t.Errorf("no scaling: p1=%d p4=%d", r1.Cycles, r4.Cycles)
	}
	t.Logf("matrix nest: p1=%d p4=%d cycles (%.2fx)", r1.Cycles, r4.Cycles,
		float64(r1.Cycles)/float64(r4.Cycles))
}

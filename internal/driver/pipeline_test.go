package driver

// Tests for the pass-manager integration: per-procedure stats must sum
// correctly through the pipeline Report (the merge the old OptimizeIL did
// with += had no direct test), and the merge must be deterministic under
// the concurrent per-procedure worker pool (run these with -race).

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pass"
)

// kernelProc returns a vectorizable + strength-reducible procedure named
// name: one counted copy loop (vectorizes) plus one loop with a carried
// dependence of unknown distance (stays serial — even DOACROSS needs a
// computable constant distance — and gets strength-reduced addressing).
func kernelProc(name string) string {
	return fmt.Sprintf(`
void %[1]s(float *a, float *b, int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] + 1.0f;
	for (i = 1; i < n; i++)
		a[2*i] = a[i] * b[i];
}
`, name)
}

// aggOpts avoids inlining so each procedure's loop stats are independent
// of how many other procedures the unit has.
func aggOpts() Options {
	return Options{OptLevel: 1, Vectorize: true, Parallelize: true, StrengthReduce: true, NoAlias: true}
}

// TestReportSumsPerProcStats compiles K copies of the same kernel in one
// unit and checks every stats field is exactly K times the single-proc
// value.
func TestReportSumsPerProcStats(t *testing.T) {
	single, err := CompileIL(kernelProc("k0"), aggOpts())
	if err != nil {
		t.Fatal(err)
	}
	one := single.Report
	if one.Vector.LoopsVectorized == 0 {
		t.Fatalf("kernel does not vectorize; stats: %+v", one.Vector)
	}
	if one.Strength.LoopsTransformed == 0 {
		t.Fatalf("kernel has no strength-reduced loop; stats: %+v", one.Strength)
	}

	const k = 7
	src := ""
	for i := 0; i < k; i++ {
		src += kernelProc(fmt.Sprintf("k%d", i))
	}
	many, err := CompileIL(src, aggOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := many.Report

	scale := func(n int) int { return n * k }
	if got, want := rep.Vector.LoopsExamined, scale(one.Vector.LoopsExamined); got != want {
		t.Errorf("Vector.LoopsExamined = %d, want %d", got, want)
	}
	if got, want := rep.Vector.LoopsVectorized, scale(one.Vector.LoopsVectorized); got != want {
		t.Errorf("Vector.LoopsVectorized = %d, want %d", got, want)
	}
	if got, want := rep.Vector.VectorStmts, scale(one.Vector.VectorStmts); got != want {
		t.Errorf("Vector.VectorStmts = %d, want %d", got, want)
	}
	if got, want := rep.Vector.ParallelLoops, scale(one.Vector.ParallelLoops); got != want {
		t.Errorf("Vector.ParallelLoops = %d, want %d", got, want)
	}
	if got, want := rep.Parallel.LoopsExamined, scale(one.Parallel.LoopsExamined); got != want {
		t.Errorf("Parallel.LoopsExamined = %d, want %d", got, want)
	}
	if got, want := rep.Strength.LoopsTransformed, scale(one.Strength.LoopsTransformed); got != want {
		t.Errorf("Strength.LoopsTransformed = %d, want %d", got, want)
	}
	if got, want := rep.Strength.ReducedRefs, scale(one.Strength.ReducedRefs); got != want {
		t.Errorf("Strength.ReducedRefs = %d, want %d", got, want)
	}
	if got, want := rep.Strength.Pointers, scale(one.Strength.Pointers); got != want {
		t.Errorf("Strength.Pointers = %d, want %d", got, want)
	}
	for name, n := range one.Scalar {
		if got := rep.Scalar[name]; got != scale(n) {
			t.Errorf("Scalar[%s] = %d, want %d", name, got, scale(n))
		}
	}
}

// stripTimes clears the wall-clock fields so reports compare by content.
func stripTimes(r *pass.Report) *pass.Report {
	c := *r
	c.Passes = append([]pass.PassStat(nil), r.Passes...)
	for i := range c.Passes {
		c.Passes[i].Duration = 0
	}
	return &c
}

// TestReportDeterministicUnderWorkerPool runs the same multi-procedure
// compile repeatedly at several pool widths and demands the identical
// Report (and identical final IL) every time — the deterministic-merge
// guarantee of the per-procedure worker pool.
func TestReportDeterministicUnderWorkerPool(t *testing.T) {
	src := ""
	for i := 0; i < 9; i++ {
		src += kernelProc(fmt.Sprintf("k%d", i))
	}
	var baseRep *pass.Report
	var baseIL string
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 3; run++ {
			ctx := pass.NewContext()
			ctx.Workers = workers
			res, err := CompileILWith(src, aggOpts(), ctx)
			if err != nil {
				t.Fatal(err)
			}
			rep := stripTimes(res.Report)
			ilText := res.IL.String()
			if baseRep == nil {
				baseRep, baseIL = rep, ilText
				continue
			}
			if !reflect.DeepEqual(rep, baseRep) {
				t.Fatalf("workers=%d run=%d: report differs\n got %+v\nwant %+v", workers, run, rep, baseRep)
			}
			if ilText != baseIL {
				t.Fatalf("workers=%d run=%d: final IL differs", workers, run)
			}
		}
	}
}

// TestRunEntryMissing pins the clear error for an absent entry symbol.
func TestRunEntryMissing(t *testing.T) {
	src := "int helper(int x) { return x + 1; }"
	if _, err := runEntry(src, "main", ScalarOptions(), 1); err == nil {
		t.Fatal("missing entry function should error")
	} else if want := `entry function "main" is not defined`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// TestRunEntryNamed runs a program from a non-main entry point.
func TestRunEntryNamed(t *testing.T) {
	src := `
int main(void) { return 1; }
int start(void) { return 42; }
`
	r, err := runEntry(src, "start", ScalarOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", r.ExitCode)
	}
	// Default entry is still main.
	r, err = runEntry(src, "", ScalarOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 1 {
		t.Errorf("default-entry exit = %d, want 1", r.ExitCode)
	}
}

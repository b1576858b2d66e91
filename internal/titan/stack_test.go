package titan_test

import (
	"errors"
	"testing"

	"repro/internal/driver"
	"repro/internal/titan"
)

// bothEngines runs src's main on the fast engine and on the reference
// interpreter at the given options and processor count.
func bothEngines(t *testing.T, src string, opts driver.Options, procs int) (fast, ref titan.Result, errFast, errRef error) {
	t.Helper()
	res, err := driver.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := titan.NewMachine(res.Machine, procs)
	fast, errFast = m.Run("main")
	m.Release()
	m = titan.NewMachine(res.Machine, procs)
	ref, errRef = m.RunReference("main")
	m.Release()
	return
}

// Unbounded recursion ends in a stack overflow fault naming the call that
// could not open its frame — the same fault from both engines, at every
// optimization level and width — never in a hang, a host stack overflow
// or a run that overwrote its globals and returned. A function with a
// frame runs into the stack limit; one without moves no stack pointer
// and runs into the call-depth bound.
func TestStackOverflowIsAFault(t *testing.T) {
	sources := map[string]string{
		"framed": `
int deepest;
int down(int n) { int pad[8]; pad[n & 7] = n; deepest = n; return down(n + 1) + pad[n & 7]; }
int main(void) { return down(0); }
`,
		"frameless": `
int down(int n) { return down(n + 1) + 1; }
int main(void) { return down(0); }
`,
	}
	for name, src := range sources {
		for optName, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
			for _, procs := range []int{1, 4} {
				_, _, errFast, errRef := bothEngines(t, src, opts, procs)
				var fast, ref *titan.Fault
				if !errors.As(errFast, &fast) || !errors.As(errRef, &ref) {
					t.Errorf("%s %s p=%d: engine %v, reference %v; want faults", name, optName, procs, errFast, errRef)
					continue
				}
				if *fast != *ref {
					t.Errorf("%s %s p=%d: engine %v, reference %v", name, optName, procs, fast, ref)
				}
				if fast.Kind != "stack overflow" || fast.Func != "down" {
					t.Errorf("%s %s p=%d: %v; want a stack overflow at the call in down", name, optName, procs, fast)
				}
			}
		}
	}
}

// The stack reserve grows with the frames the program declares: locals
// larger than the 256 KB minimum, in main and in a callee, still fit.
func TestStackOverflowSparesLargeFrames(t *testing.T) {
	const src = `
int fill(int n)
{
	double big[40000];
	int i;
	for (i = 0; i < 40000; i++) big[i] = i + n;
	return (int)big[39999];
}
int main(void)
{
	double mine[40000];
	int i;
	for (i = 0; i < 40000; i++) mine[i] = 2 * i;
	return (fill(1) + (int)mine[3]) & 127;
}
`
	const want = (39999 + 1 + 6) & 127
	for optName, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
		for _, procs := range []int{1, 4} {
			fast, ref, errFast, errRef := bothEngines(t, src, opts, procs)
			if errFast != nil || errRef != nil {
				t.Fatalf("%s p=%d: engine %v, reference %v", optName, procs, errFast, errRef)
			}
			if fast != ref || fast.ExitCode != want {
				t.Errorf("%s p=%d: engine exits %d, reference %d, want %d", optName, procs, fast.ExitCode, ref.ExitCode, want)
			}
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The §9 daxpy program — the same source the driver's golden IL test pins
// (testdata/daxpy_main_full.il over there is its final IL).
const daxpySrc = `
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
	if (n <= 0)
		return;
	if (alpha == 0)
		return;
	for (; n; n--)
		*x++ = *y++ + alpha * *z++;
}

int main(void)
{
	float a[100], b[100], c[100];
	daxpy(a, b, c, 1.0, 100);
	return 0;
}
`

var fullFlags = []string{"-inline", "-vector", "-parallel"}

// titancc runs the command on file with args and returns what it wrote.
func titancc(t *testing.T, file string, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(append(args, file), &sb)
	return sb.String(), err
}

// daxpyFile writes daxpySrc to a temporary file and returns its path.
func daxpyFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "daxpy.c")
	if err := os.WriteFile(path, []byte(daxpySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustTitancc(t *testing.T, file string, args ...string) string {
	t.Helper()
	out, err := titancc(t, file, args...)
	if err != nil {
		t.Fatalf("titancc %v %s: %v", args, file, err)
	}
	return out
}

// TestPhaseOrder pins the snapshot-hook phase names and their ordering for
// the full pipeline. If the §5.2/§6 pass order regresses (while→DO before
// use-def, strength reduction before vectorization, ...) this fails
// loudly.
func TestPhaseOrder(t *testing.T) {
	out := mustTitancc(t, daxpyFile(t), append(fullFlags, "-dump-after=all")...)
	headers := regexp.MustCompile(`==== phase \d+: [^=]+ ====`).FindAllString(out, -1)
	want := []string{
		"==== phase 0: lowered IL ====",
		"==== phase 1: after inline ====",
		"==== phase 2: after scalarize ====",
		"==== phase 3: after nest-parallelize ====",
		"==== phase 4: after ifconvert ====",
		"==== phase 5: after vectorize ====",
		"==== phase 6: after parallelize ====",
		"==== phase 7: after strength ====",
		"==== phase 8: after cleanup ====",
	}
	if len(headers) != len(want) {
		t.Fatalf("got %d phases %v, want %d", len(headers), headers, len(want))
	}
	for i, h := range headers {
		if strings.TrimSpace(h) != want[i] {
			t.Errorf("phase %d: got %q, want %q", i, h, want[i])
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file when
// UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("golden mismatch for %s.\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}

// TestGoldenDump pins the full between-phase IL dump. Regenerate after an
// intentional pipeline change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/titancc
func TestGoldenDump(t *testing.T) {
	checkGolden(t, "daxpy_phases.golden", mustTitancc(t, daxpyFile(t), append(fullFlags, "-dump-after=all")...))
}

// TestDumpFilters checks that -dump-after selects one snapshot by name,
// under the header and phase number it has in the full dump.
func TestDumpFilters(t *testing.T) {
	file := daxpyFile(t)
	out := mustTitancc(t, file, append(fullFlags, "-dump-after=vectorize")...)
	if n := strings.Count(out, "==== phase"); n != 1 {
		t.Errorf("-dump-after=vectorize: got %d headers, want 1", n)
	}
	if !strings.HasPrefix(out, "==== phase 5: after vectorize ====\n") {
		t.Errorf("-dump-after=vectorize: wrong header in %q", out)
	}
	out = mustTitancc(t, file, append(fullFlags, "-dump-after=lower")...)
	if !strings.HasPrefix(out, "==== phase 0: lowered IL ====\n") {
		t.Errorf("-dump-after=lower: missing lowered IL header in %q", out)
	}
	if _, err := titancc(t, file, append(fullFlags, "-dump-after=no-such-pass")...); err == nil {
		t.Error("unknown pass name should error")
	}
}

// TestDumpRemarks checks that -remarks prints the diagnostic stream and
// that every remark carries a real source position.
func TestDumpRemarks(t *testing.T) {
	body := strings.TrimSpace(mustTitancc(t, daxpyFile(t), append(fullFlags, "-remarks")...))
	if body == "" {
		t.Fatal("no remarks for the full daxpy pipeline")
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "0:0:") {
			t.Errorf("remark with zero position: %s", line)
		}
	}
	for _, code := range []string{"vect-", "par-"} {
		if !strings.Contains(body, code) {
			t.Errorf("remarks lack a %s* verdict:\n%s", code, body)
		}
	}
}

// TestFrozenToolOutput holds titancc to the output of the two tools it
// replaced, frozen before they were deleted (and regenerated once, by an
// unchanged pipeline, when these four programs became corpus kernels):
// F.phases.golden (every pass-boundary snapshot), F.remarks.golden (the
// remark lines), F.table.golden (the configuration table at four
// processors) and F.full-p2.golden (the full build's row at two).
func TestFrozenToolOutput(t *testing.T) {
	for _, name := range []string{"backsolve", "clip", "copyloop", "daxpy"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			file := filepath.Join("..", "..", "testdata", name+".c")
			checkGolden(t, name+".phases.golden", mustTitancc(t, file, append(fullFlags, "-dump-after=all")...))
			checkGolden(t, name+".remarks.golden", mustTitancc(t, file, append(fullFlags, "-remarks")...))
			checkGolden(t, name+".table.golden", mustTitancc(t, file, "-run", "-table", "-p", "4"))

			row, err := os.ReadFile(filepath.Join("testdata", name+".full-p2.golden"))
			if err != nil {
				t.Fatal(err)
			}
			// config procs cycles instrs flops MFLOPS speedup
			f := strings.Fields(strings.Split(string(row), "\n")[1])
			want := "cycles=" + f[2] + " instrs=" + f[3] + " flops=" + f[4] + " mflops=" + f[5] + " procs=2\n"
			out := mustTitancc(t, file, append(fullFlags, "-run", "-p", "2")...)
			if !strings.HasSuffix(out, want) {
				t.Errorf("-run -p 2 printed %q, want a summary ending %q", out, want)
			}
		})
	}
}

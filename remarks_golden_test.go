package repro_test

// Golden coverage of the diagnostics layer: every corpus kernel (testdata/*.c) at
// its table size, compiled at full optimization, must emit the pinned
// remark stream — one vectorize-or-not and one parallelize-or-not
// verdict per loop, with a stable code, a nonzero source position, and
// the blocking dependence named on rejection. Regenerate after an intentional pipeline change:
//
//	UPDATE_GOLDEN=1 go test -run TestESeriesRemarksGolden .

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/pass"
)

// compileRemarks runs the full pipeline over src and returns the sorted
// diagnostic stream.
func compileRemarks(t *testing.T, src string) []diag.Diagnostic {
	t.Helper()
	ctx := pass.NewContext()
	if _, err := driver.CompileWith(src, driver.FullOptions(), ctx); err != nil {
		t.Fatal(err)
	}
	return ctx.Diags.All()
}

func TestESeriesRemarksGolden(t *testing.T) {
	for _, w := range bench.Corpus() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			for _, d := range compileRemarks(t, w.Src) {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			got := sb.String()
			path := filepath.Join("testdata", "remarks", strings.ToLower(w.Name)+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Errorf("remark stream for %s drifted.\n--- want\n%s\n--- got\n%s", w.Name, want, got)
			}
		})
	}
}

// TestESeriesRemarkInvariants asserts the properties the golden files
// rely on, independent of their exact text: every diagnostic is
// positioned, each loop gets at most one verdict per phase, and every
// dependence-based rejection names the blocking dependence.
func TestESeriesRemarkInvariants(t *testing.T) {
	for _, w := range bench.Corpus() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ds := compileRemarks(t, w.Src)
			if len(ds) == 0 {
				t.Fatal("full pipeline emitted no diagnostics")
			}
			var vect, par int
			seen := map[string]bool{}
			// The vectorizer must pass exactly one verdict per examined
			// loop; vect-if-converted and vect-interchanged are
			// transformation notes, not verdicts, so a loop that was
			// if-converted still gets its single verdict (vect-masked,
			// vect-vectorized, or a rejection) at the same position.
			verdicts := map[diag.Code]bool{
				diag.VectVectorized: true, diag.VectMasked: true,
				diag.VectDepCycle: true, diag.VectNotNormalized: true,
				diag.VectEmptyBody: true, diag.VectScalarFlow: true,
				diag.VectBarrier: true, diag.VectNotAffine: true,
				diag.VectIfRejected: true,
			}
			verdictAt := map[string]int{}
			verdictInProc := map[string]int{}
			ifConvProc := map[string]bool{}
			for _, d := range ds {
				loop := d.Proc + "|" + d.Pos.String()
				if verdicts[d.Code] {
					verdictAt[loop]++
					verdictInProc[d.Proc]++
				}
				if d.Code == diag.VectIfConverted {
					ifConvProc[d.Proc] = true
				}
			}
			for loop, n := range verdictAt {
				if n > 1 {
					t.Errorf("loop %s got %d vectorizer verdicts, want exactly one", loop, n)
				}
			}
			// The note rides at the If's own position; the examined loop
			// still gets its single verdict, so an if-converting proc
			// without any verdict means the loop escaped judgment.
			for proc := range ifConvProc {
				if verdictInProc[proc] == 0 {
					t.Errorf("proc %s if-converted a conditional but got no vectorizer verdict", proc)
				}
			}
			for _, d := range ds {
				if d.Pos.Line == 0 {
					t.Errorf("diagnostic %s has zero position: %s", d.Code, d)
				}
				key := string(d.Code) + "|" + d.Proc + "|" + d.Pos.String()
				if seen[key] {
					t.Errorf("duplicate verdict %s at %s in %s", d.Code, d.Pos, d.Proc)
				}
				seen[key] = true
				code := string(d.Code)
				switch {
				case strings.HasPrefix(code, "vect-"):
					vect++
				case strings.HasPrefix(code, "par-"):
					par++
				}
				// A rejection that blames a dependence must name it.
				if d.Code == diag.VectDepCycle || d.Code == diag.ParCarriedDep {
					if d.Args["dep"] == "" {
						t.Errorf("%s at %s does not name the blocking dependence", d.Code, d.Pos)
					}
				}
			}
			if vect == 0 {
				t.Error("no vectorize-or-not verdict emitted")
			}
			if par == 0 {
				t.Error("no parallelize-or-not verdict emitted")
			}
		})
	}
}

package repro

// Small-scope exhaustive loops: every loop of a tiny grammar, compiled
// scalar and fully optimized, must end where -O0 ends — exit code, output
// and final globals — on both engines at 1, 3 and 4 processors, the
// reference engine at p>1 in both region orders. Every wrong answer on
// record was one loop of one to three statements; the independence of loop
// steps over arrays (arXiv:0810.5575) is the property these loops
// exercise.
//
// The loop is `for (i = lo; i < N; i += s)` with s ∈ {1, 2, 4} and one
// statement X = g, where
//   - X is a[f(i)], t[f(i)] or the scalar x;
//   - f ∈ {i, i+1, i−1, 2i, N−1−i, 0, i & 1, i / 2, i + 3s} (t only takes
//     0 and i & 1);
//   - g is one term or the sum of two, from {5, i, (i & 3) * 3, x,
//     A[f′(i)], A[f′(i)] / 3} over the arrays a, b and t.
//
// The set is pruned of renamings and of sums whose halves say nothing
// about each other:
//   - the written global is a, and b is the one never written (a and b
//     swapped are the same program);
//   - a sum is unordered, and a half that does not read X's own object
//     reads nothing a store of the loop reaches, so in a sum it is one of
//     5, i, (i & 3) * 3, x, b[i] and b[i] / 3, which stand for the rest,
//     while every term of the grammar still appears alone;
//   - of two reads of X's own object at most one is undivided, so no
//     value doubles per iteration and overflows int: a[f′] + a[f″] / 3.
//
// The loop runs N − lo = 35 trips (a strip and a remainder of 3, uneven
// chunks at 3 and 4 processors) from constant or unfolded bounds, and the
// single terms also run zero trips from unfolded bounds.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/workpool"
)

var loopEnumAll = flag.Bool("loopenum.all", false, "run every enumerated loop, not the tier-1 stride")

const (
	enumFirst = 8
	enumTrip  = 35
	enumSize  = 2 * (enumFirst + enumTrip*4)
	// enumStride is the tier-1 sample: every enumStride-th loop.
	enumStride = 13
)

// enumLoop is one enumerated loop: step, trips, constant or unfolded
// bounds, and the statement X = g.
type enumLoop struct {
	step, trip int
	folded     bool
	dst        string
	terms      []string
}

func (l enumLoop) stmt() string { return l.dst + " = " + strings.Join(l.terms, " + ") }

func (l enumLoop) String() string {
	bounds := "unfolded"
	if l.folded {
		bounds = "folded"
	}
	return fmt.Sprintf("s=%d trip=%d %s: %s", l.step, l.trip, bounds, l.stmt())
}

func (l enumLoop) program() string {
	return loopProgram(enumSize, l.stmt(), l.step, enumFirst, enumFirst+l.trip*l.step, l.folded)
}

// enumSubscripts is f for step s: the last subscript of N − 1 − i is
// taken at the 35-trip N whatever the trip count, so a loop's text
// depends on its step only.
func enumSubscripts(s int) []string {
	n := enumFirst + enumTrip*s
	return []string{"i", "i + 1", "i - 1", "2 * i", fmt.Sprintf("%d - i", n-1), "0", "i & 1", "i / 2", fmt.Sprintf("i + %d", 3*s)}
}

var enumLocalSubscripts = []string{"0", "i & 1"}

// enumReads is A[f′] and A[f′] / 3 for each f′ of subs, the undivided
// reads first.
func enumReads(array string, subs []string) (plain, divided []string) {
	for _, f := range subs {
		plain = append(plain, fmt.Sprintf("%s[%s]", array, f))
		divided = append(divided, fmt.Sprintf("%s[%s] / 3", array, f))
	}
	return plain, divided
}

// enumLoops is the whole pruned set, in a fixed order.
func enumLoops() []enumLoop {
	var out []enumLoop
	for _, s := range []int{1, 2, 4} {
		subs := enumSubscripts(s)
		aPlain, aDiv := enumReads("a", subs)
		bPlain, bDiv := enumReads("b", subs)
		tPlain, tDiv := enumReads("t", enumLocalSubscripts)
		all := slices.Concat([]string{"5", "i", "(i & 3) * 3", "x"}, aPlain, aDiv, bPlain, bDiv, tPlain, tDiv)
		others := []string{"5", "i", "(i & 3) * 3", "x", "b[i]", "b[i] / 3"}
		type dest struct {
			dst         string
			plain, divd []string // reads of dst's own object
			others      []string
		}
		var dests []dest
		for _, f := range subs {
			dests = append(dests, dest{"a[" + f + "]", aPlain, aDiv, others})
		}
		for _, f := range enumLocalSubscripts {
			dests = append(dests, dest{"t[" + f + "]", tPlain, tDiv, others})
		}
		dests = append(dests, dest{"x", []string{"x"}, nil, slices.DeleteFunc(slices.Clone(others), func(o string) bool { return o == "x" })})
		for _, d := range dests {
			var gs [][]string
			for _, u := range all {
				gs = append(gs, []string{u})
			}
			for _, u := range slices.Concat(d.plain, d.divd) {
				for _, v := range d.others {
					gs = append(gs, []string{u, v})
				}
			}
			for _, u := range d.plain {
				for _, v := range d.divd {
					gs = append(gs, []string{u, v})
				}
			}
			for k, u := range d.others {
				for _, v := range d.others[k:] {
					gs = append(gs, []string{u, v})
				}
			}
			for _, g := range gs {
				out = append(out,
					enumLoop{step: s, trip: enumTrip, folded: true, dst: d.dst, terms: g},
					enumLoop{step: s, trip: enumTrip, folded: false, dst: d.dst, terms: g})
				if len(g) == 1 {
					out = append(out, enumLoop{step: s, trip: 0, folded: false, dst: d.dst, terms: g})
				}
			}
		}
	}
	return out
}

// enumVerdicts is the fully optimized compile's vector, parallel and
// strength verdict codes at the kernel's line, in the order reported.
func enumVerdicts(diags []diag.Diagnostic) string {
	var codes []string
	for _, d := range diags {
		c := string(d.Code)
		if d.Pos.Line != tripKernelLine || slices.Contains(codes, c) {
			continue
		}
		if strings.HasPrefix(c, "vect-") || strings.HasPrefix(c, "par-") || strings.HasPrefix(c, "strength-") {
			codes = append(codes, c)
		}
	}
	if len(codes) == 0 {
		return "-"
	}
	return strings.Join(codes, " ")
}

// checkEnumLoop compiles l scalar and fully optimized and holds every run
// to -O0's; it returns the verdict row of the optimized compile.
func checkEnumLoop(l enumLoop) (string, error) {
	src := l.program()
	want, err := driver.Run(src, driver.Options{OptLevel: 0}, 1)
	if err != nil {
		return "", fmt.Errorf("-O0: %v", err)
	}
	var row string
	for _, cfg := range []struct {
		name string
		opts driver.Options
	}{{"scalar", driver.ScalarOptions()}, {"full", driver.FullOptions()}} {
		res, err := driver.Compile(src, cfg.opts)
		if err != nil {
			return "", fmt.Errorf("%s: %v", cfg.name, err)
		}
		if cfg.name == "full" {
			row = enumVerdicts(res.Report.Diags)
		}
		for _, procs := range []int{1, 3, 4} {
			runs, err := engineRuns(res.Machine, procs)
			if err != nil {
				return "", fmt.Errorf("%s: %v", cfg.name, err)
			}
			for _, r := range runs {
				if r.ExitCode != want.ExitCode || r.Output != want.Output || r.Globals != want.Globals {
					return "", fmt.Errorf("%s p=%d %s: exit %d globals %x, -O0 gives exit %d globals %x",
						cfg.name, procs, r.name, r.ExitCode, r.Globals, want.ExitCode, want.Globals)
				}
			}
		}
	}
	return l.String() + " | " + row, nil
}

func TestLoopEnumeration(t *testing.T) {
	loops := enumLoops()
	stride := enumStride
	if *loopEnumAll {
		stride = 1
	}
	var picked []enumLoop
	for k := 0; k < len(loops); k += stride {
		picked = append(picked, loops[k])
	}
	rows := make([]string, len(picked))
	errs := make([]error, len(picked))
	workpool.ForEachN(len(picked), runtime.GOMAXPROCS(0), func(k int) {
		rows[k], errs[k] = checkEnumLoop(picked[k])
	})
	failed := 0
	for k, err := range errs {
		if err == nil {
			continue
		}
		if failed++; failed <= 10 {
			t.Errorf("%s: %v\n%s", picked[k], err, picked[k].program())
		}
	}
	if failed > 10 {
		t.Errorf("... %d loops failed in all", failed)
	}
	t.Logf("%d of %d loops", len(picked), len(loops))
	if failed > 0 || *loopEnumAll {
		return
	}
	const path = "testdata/loopenum.golden"
	got := strings.Join(rows, "\n") + "\n"
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
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Errorf("%s has %d rows, the stride %d", path, len(wantRows), len(rows))
	}
	for k := 0; k < min(len(rows), len(wantRows)); k++ {
		if rows[k] != wantRows[k] {
			t.Errorf("verdicts moved:\n got  %s\n want %s", rows[k], wantRows[k])
		}
	}
}

// TestLoopEnumerationShapes holds the pruned set to the shapes it must
// keep: each affine store of the deleted random array-loop test,
// a[s·i + o] = c·i + k, at every step — constant, unit-scale and
// scaled values (i + i) over every affine subscript — and the loops of
// the miscompile book the enumeration stands in for.
func TestLoopEnumerationShapes(t *testing.T) {
	have := map[string]bool{}
	for _, l := range enumLoops() {
		have[l.String()] = true
	}
	var want []enumLoop
	for _, s := range []int{1, 2, 4} {
		for _, f := range enumSubscripts(s) {
			if strings.Contains(f, "&") || strings.Contains(f, "/") {
				continue
			}
			for _, g := range [][]string{{"5"}, {"i"}, {"5", "i"}, {"i", "i"}} {
				for _, folded := range []bool{true, false} {
					want = append(want, enumLoop{step: s, trip: enumTrip, folded: folded, dst: "a[" + f + "]", terms: g})
				}
			}
		}
	}
	want = append(want,
		// 1(c): a store to an address that does not move with the loop.
		enumLoop{step: 1, trip: enumTrip, folded: true, dst: "a[0]", terms: []string{"a[0]", "b[i]"}},
		// 1(b′): a local array written in a do parallel.
		enumLoop{step: 1, trip: enumTrip, folded: true, dst: "t[0]", terms: []string{"b[i]"}},
		// 1(f): a non-affine store reading itself.
		enumLoop{step: 1, trip: enumTrip, folded: true, dst: "a[i & 1]", terms: []string{"a[i & 1]", "b[i]"}},
		// 1(g): a distance in iterations, not index units, and §6's
		// promotion across a stepped loop.
		enumLoop{step: 4, trip: enumTrip, folded: true, dst: "a[i + 12]", terms: []string{"a[i]", "5"}},
		enumLoop{step: 4, trip: enumTrip, folded: true, dst: "a[i]", terms: []string{"a[i - 1]", "5"}},
		// 1(i): a stepped loop of zero trips, vectorized.
		enumLoop{step: 2, trip: 0, folded: false, dst: "a[i]", terms: []string{"b[i]"}},
		// 1(k): an integer quotient on a vector strip.
		enumLoop{step: 1, trip: enumTrip, folded: true, dst: "a[i]", terms: []string{"b[i] / 3"}},
		// 1(a): a scalar stepped by the index.
		enumLoop{step: 1, trip: enumTrip, folded: true, dst: "x", terms: []string{"x", "i"}},
	)
	for _, l := range want {
		if !have[l.String()] {
			t.Errorf("pruned away: %s", l)
		}
	}
}

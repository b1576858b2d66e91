package repro_test

// Small-scope exhaustive loops: every loop of a tiny grammar, compiled
// scalar, fully optimized, parallelized without the vectorizer, unrolled,
// and fully optimized at 16-element strips and under serial strips, must
// end where -O0 ends — exit code, output and final globals — on both
// engines at 1, 3 and 4 processors, the reference engine at p>1 in both
// region orders. Every wrong answer on record was one loop of one to
// three statements; the independence of loop steps over arrays
// (arXiv:0810.5575) is the property these loops exercise.
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
// chunks at 3 and 4 processors) from constant or unfolded bounds; the
// single terms also run zero trips from unfolded bounds and 3 trips from
// constant ones (fewer than the unroll factor and the processors, so the
// unrolled loop's main part provably never runs).
//
// Step 2 adds three shapes over the same subscripts f, each pruned the
// same way — a is the one array written, the other end of a dependence
// stands for its class, and no value doubles per iteration:
//   - two statements: one writes a and one reads it, at i and f, in
//     either order, the other end being c[i] or the scalar x, and a
//     write of a followed by a write of a[f] from it (7 pairs, 5 at
//     f = i, where two pairs coincide);
//   - the statement under `if (b[i] > k)`, k the value of b at the middle
//     of the loop, so the guard holds for about half the trips and every
//     vector strip but the first is uniform: a[f] from 5, b[i] / 3, x or
//     a at i, i − 1 or i + 1, and x from x + i or b[i];
//   - the loop in kern(int *p, int *q, lo, hi) storing p[f] from q at i,
//     i − 1 or i + 1, or from p itself, called with p and q on the same
//     array, on two arrays and two elements apart either way; under
//     #pragma safe only on two arrays, because the pragma is a promise.
// The step-2 shapes run 35 trips from constant and unfolded bounds, and
// the two-statement and guarded ones zero trips from unfolded bounds.
//
// Step 3 is the 2-nest `for (i…) for (j…) X = g` over the 2-D arrays a
// and b and the 1-D array v, run 7 × 35 trips. X is a[i][j], a[j][i],
// a[i - 1][j + 1], v[j] or v[i], and g is one term or the sum of two
// from {5, i, j, b[i][j]} and the reads of a and v at those subscripts,
// undivided or divided by 3. It is pruned as step 1 is: a or v is the
// one object written and b stands for every other, a sum reads X's own
// object in at least one half and never twice undivided, and only the
// single terms also run zero inner trips from unfolded bounds. Besides
// the other builds, every nest is compiled fully optimized with the
// outer loop planned for interchange.

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
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/token"
	"repro/internal/workpool"
)

var loopEnumAll = flag.Bool("loopenum.all", false, "run every enumerated loop, not the tier-1 stride")

const (
	enumFirst = 8
	enumTrip  = 35
	enumSize  = 2 * (enumFirst + enumTrip*4)
	// enumShort is the short trip count: fewer than the unroll factor.
	enumShort = 3
	// enumStride is the tier-1 sample: every enumStride-th loop.
	enumStride = 29
	// kernLine is the source line of kern's loop in kernProgram's output.
	kernLine = 8
	// nestSize is the extent of each dimension of a 2-nest's arrays;
	// nestOuter its outer loop's trips, from i = 1 so that a[i - 1] exists.
	nestSize, nestOuter = 40, 7
	// nestLine is the source line of the outer loop in a nest's program.
	nestLine = 15
)

// enumLoop is one enumerated loop: step, trips, constant or unfolded
// bounds, and the statement X = g, which may stand under a guard, be
// followed by a second statement, be kern's loop over pointers, or be
// the body of a 2-nest whose inner loop runs trip times.
type enumLoop struct {
	step, trip int
	folded     bool
	dst        string
	terms      []string
	guard      string
	then       string
	call       *enumCall
	nest       bool
}

// enumCall is how main calls kern: the actuals of p and q, and whether
// kern's loop is under #pragma safe.
type enumCall struct {
	p, q string
	safe bool
}

func (l enumLoop) stmt() string {
	s := l.dst + " = " + strings.Join(l.terms, " + ")
	if l.guard != "" {
		s = "if (" + l.guard + ") " + s
	}
	if l.then != "" {
		s = "{ " + s + "; " + l.then + "; }"
	}
	return s
}

func (l enumLoop) String() string {
	bounds := "unfolded"
	if l.folded {
		bounds = "folded"
	}
	if l.nest {
		return fmt.Sprintf("nest trip=%dx%d %s: %s", nestOuter, l.trip, bounds, l.stmt())
	}
	if c := l.call; c != nil {
		bounds += fmt.Sprintf(" kern(%s, %s)", c.p, c.q)
		if c.safe {
			bounds += " safe"
		}
	}
	return fmt.Sprintf("s=%d trip=%d %s: %s", l.step, l.trip, bounds, l.stmt())
}

func (l enumLoop) program() string {
	if l.nest {
		return l.nestProgram()
	}
	past := enumFirst + l.trip*l.step
	if l.call == nil {
		return loopProgram(enumSize, l.stmt(), l.step, enumFirst, past, l.folded)
	}
	pragma, lo, hi := "", fmt.Sprint(enumFirst), fmt.Sprint(past)
	if l.call.safe {
		pragma = "#pragma safe"
	}
	if !l.folded {
		lo, hi = "bounds[0]", "bounds[1]"
	}
	return fmt.Sprintf(`int a[%[1]d], b[%[1]d], c[%[1]d];
int bounds[2] = {%[2]d, %[3]d};

void kern(int *p, int *q, int lo, int hi)
{
	int i;
%[4]s
	for (i = lo; i < hi; i += %[5]d)
		%[6]s;
}

int main(void)
{
	int k, chk;
	for (k = 0; k < %[1]d; k++) {
		a[k] = k;
		b[k] = 3 * k + 1;
	}
	kern(%[7]s, %[8]s, %[9]s, %[10]s);
	chk = 0;
	for (k = 0; k < %[1]d; k++)
		chk = (chk * 31 + a[k] + b[k]) %% 65521;
	return chk;
}
`, enumSize, enumFirst, past, pragma, l.step, l.stmt(), l.call.p, l.call.q, lo, hi)
}

// nestProgram is main running the statement in a 2-nest over the
// globals a[][], b[][] and v[], returning a checksum of a[][] and v[].
func (l enumLoop) nestProgram() string {
	bounds := fmt.Sprintf("ilo = 1; ihi = %d; jlo = 1; jhi = %d;", 1+nestOuter, 1+l.trip)
	if !l.folded {
		bounds = "ilo = bounds[0]; ihi = bounds[1]; jlo = bounds[2]; jhi = bounds[3];"
	}
	return fmt.Sprintf(`int a[%[1]d][%[1]d], b[%[1]d][%[1]d], v[%[1]d];
int bounds[4] = {1, %[2]d, 1, %[3]d};

int main(void)
{
	int i, j, k, l, ilo, ihi, jlo, jhi, chk;
	for (k = 0; k < %[1]d; k++) {
		v[k] = 2 * k + 1;
		for (l = 0; l < %[1]d; l++) {
			a[k][l] = %[1]d * k + l;
			b[k][l] = 3 * k + l + 1;
		}
	}
	%[4]s
	for (i = ilo; i < ihi; i++)
		for (j = jlo; j < jhi; j++)
			%[5]s;
	chk = 0;
	for (k = 0; k < %[1]d; k++) {
		chk = (chk * 31 + v[k]) %% 65521;
		for (l = 0; l < %[1]d; l++)
			chk = (chk * 31 + a[k][l]) %% 65521;
	}
	return chk;
}
`, nestSize, 1+nestOuter, 1+l.trip, bounds, l.stmt())
}

// kernel is the procedure of the loop under test and the positions of
// its outermost and innermost loop, which are one loop but for a nest.
func (l enumLoop) kernel() (proc string, outer, inner token.Pos) {
	switch {
	case l.nest:
		return "main", token.Pos{Line: nestLine, Col: 2}, token.Pos{Line: nestLine + 1, Col: 3}
	case l.call != nil:
		pos := token.Pos{Line: kernLine, Col: 2}
		return "kern", pos, pos
	}
	pos := token.Pos{Line: tripKernelLine, Col: 2}
	return "main", pos, pos
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
					out = append(out,
						enumLoop{step: s, trip: 0, folded: false, dst: d.dst, terms: g},
						enumLoop{step: s, trip: enumShort, folded: true, dst: d.dst, terms: g})
				}
			}
		}
		out = append(out, enumStep2(s, subs)...)
	}
	return append(out, enumNests()...)
}

// enumStep2 is the two-statement, guarded and pointer-parameter loops of
// step s over the subscripts subs.
func enumStep2(s int, subs []string) []enumLoop {
	var out []enumLoop
	add := func(zero bool, l enumLoop) {
		l.step, l.trip = s, enumTrip
		l.folded = true
		out = append(out, l)
		l.folded = false
		out = append(out, l)
		if zero {
			l.trip = 0
			out = append(out, l)
		}
	}
	for _, f := range subs {
		af := "a[" + f + "]"
		pairs := []enumLoop{
			{dst: "a[i]", terms: []string{"b[i]", "5"}, then: "c[i] = " + af + " + i"},
			{dst: "c[i]", terms: []string{af, "i"}, then: "a[i] = b[i] + 5"},
			{dst: "x", terms: []string{af, "5"}, then: "a[i] = x + i"},
			{dst: "a[i]", terms: []string{"x", "i"}, then: "x = " + af + " + 5"},
			{dst: "a[i]", terms: []string{"b[i]", "5"}, then: af + " = a[i] / 3"},
		}
		if f != "i" {
			// At f = i these are the first two pairs again.
			pairs = append(pairs,
				enumLoop{dst: af, terms: []string{"b[i]", "5"}, then: "c[i] = a[i] + i"},
				enumLoop{dst: "c[i]", terms: []string{"a[i]", "i"}, then: af + " = b[i] + 5"})
		}
		for _, l := range pairs {
			add(true, l)
		}
	}
	guard := fmt.Sprintf("b[i] > %d", 3*(enumFirst+enumTrip*s/2)+1)
	for _, f := range subs {
		for _, g := range [][]string{{"5"}, {"b[i] / 3"}, {"x"}, {"a[i]", "1"}, {"a[i - 1]", "1"}, {"a[i + 1]", "1"}} {
			add(true, enumLoop{guard: guard, dst: "a[" + f + "]", terms: g})
		}
	}
	for _, g := range [][]string{{"x", "i"}, {"b[i]"}} {
		add(true, enumLoop{guard: guard, dst: "x", terms: g})
	}
	calls := []enumCall{{"a", "a", false}, {"a", "b", false}, {"a + 2", "a", false}, {"a", "a + 2", false}, {"a", "b", true}}
	for _, f := range subs {
		for _, g := range [][]string{{"q[i]"}, {"q[i - 1]", "5"}, {"q[i + 1] / 3"}, {"p[i - 1]", "5"}, {"p[i]", "q[i + 1] / 3"}} {
			for _, c := range calls {
				add(false, enumLoop{dst: "p[" + f + "]", terms: g, call: &c})
			}
		}
	}
	return out
}

// enumNests is step 3: the 2-nests, in a fixed order.
func enumNests() []enumLoop {
	reads := func(subs ...string) (plain, divided []string) {
		for _, f := range subs {
			plain = append(plain, f)
			divided = append(divided, f+" / 3")
		}
		return plain, divided
	}
	aPlain, aDiv := reads("a[i][j]", "a[j][i]", "a[i - 1][j + 1]")
	vPlain, vDiv := reads("v[j]", "v[i]")
	others := []string{"5", "i", "j", "b[i][j]"}
	all := slices.Concat(others, aPlain, aDiv, vPlain, vDiv)
	var out []enumLoop
	for _, own := range [][2][]string{{aPlain, aDiv}, {vPlain, vDiv}} {
		plain, divd := own[0], own[1]
		for _, dst := range plain {
			var gs [][]string
			for _, u := range all {
				gs = append(gs, []string{u})
			}
			for _, u := range slices.Concat(plain, divd) {
				for _, v := range others {
					gs = append(gs, []string{u, v})
				}
			}
			for _, u := range plain {
				for _, v := range divd {
					gs = append(gs, []string{u, v})
				}
			}
			for _, g := range gs {
				l := enumLoop{nest: true, step: 1, trip: enumTrip, folded: true, dst: dst, terms: g}
				out = append(out, l)
				l.folded = false
				out = append(out, l)
				if len(g) == 1 {
					l.trip = 0
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// enumVerdicts is a compile's vector, parallel, nest and strength verdict
// codes at the kernel's line, in the order reported.
func enumVerdicts(diags []diag.Diagnostic, line int) string {
	var codes []string
	for _, d := range diags {
		c := string(d.Code)
		if d.Pos.Line != line || slices.Contains(codes, c) {
			continue
		}
		if strings.HasPrefix(c, "vect-") || strings.HasPrefix(c, "par-") || strings.HasPrefix(c, "nest-") || strings.HasPrefix(c, "strength-") {
			codes = append(codes, c)
		}
	}
	if len(codes) == 0 {
		return "-"
	}
	return strings.Join(codes, " ")
}

// enumConfigs are the compiles every loop is held to -O0 under. Full
// options vectorize a loop before the parallelizer sees it, so the
// parallelizer's own verdict on a loop the vectorizer would take shows
// only without -vector; the unrolled build is scalar options with the
// innermost loop unrolled by 4, and the interchanged one, made of
// nests only, full options with the outer loop planned for interchange.
// The vl and serial-strips builds are full options with the innermost
// loop's schedule one knob off the default: the first strip length of
// the tuner's grid (16), and serial strips.
var enumConfigs = []struct {
	name string
	opts driver.Options
	plan string
}{
	{"scalar", driver.ScalarOptions(), ""},
	{"full", driver.FullOptions(), ""},
	{"parallel", driver.Options{OptLevel: 1, Parallelize: true, StrengthReduce: true}, ""},
	{"unroll", driver.ScalarOptions(), "unroll"},
	{"interchange", driver.FullOptions(), "interchange"},
	{"vl", driver.FullOptions(), "vl"},
	{"serial-strips", driver.FullOptions(), "serial-strips"},
}

// enumParallel is -parallel without -vector; TestSplitPipelineDifferential
// holds its split compile to the whole one.
var enumParallel = driver.Options{OptLevel: 1, Parallelize: true, StrengthReduce: true}

// enumMove is the tuner grid's first move of knob off the default plan.
func enumMove(knob string) schedule.Schedule {
	for _, m := range schedule.Moves(schedule.Default(), true) {
		if m.Knob == knob {
			return m.To
		}
	}
	panic("the grid does not move " + knob)
}

// enumHead is the output of one head of the pipeline, the passes through
// pass.PassScalar, over a loop's lowered program: the part of a compile
// no loop schedule reaches, shared by every build whose plan runs it.
type enumHead struct {
	plan pass.Plan
	prog *il.Program
}

// sameHead reports whether plans a and b run the same head: the same
// inline expansion and the same scalar optimizer.
func sameHead(a, b pass.Plan) bool {
	return a.Inline == b.Inline && slices.Equal(a.Catalogs, b.Catalogs) &&
		(a.Scalar == nil) == (b.Scalar == nil) && (a.Scalar == nil || *a.Scalar == *b.Scalar)
}

// checkEnumLoop compiles l at -O0 and under each of enumConfigs and holds
// every run to -O0's; it returns the verdict row of the fully optimized
// compile, which for a nest is the outer loop's verdicts, the inner
// loop's and the outer loop's under the interchange plan. The front end
// runs once and each distinct head once, on clones of the lowered
// program; each build runs its tail on a clone of its head's output, the
// split compile the tuner measures candidates with.
func checkEnumLoop(l enumLoop) (string, error) {
	src := l.program()
	low, err := driver.LowerWith(src, nil)
	if err != nil {
		return "", fmt.Errorf("front end: %v", err)
	}
	var heads []enumHead
	compile := func(opts driver.Options, set *schedule.Set) (*titan.Program, *pass.Report, error) {
		plan := opts.Plan()
		head, tail := pass.NewManager(plan).Split(pass.PassScalar)
		k := slices.IndexFunc(heads, func(h enumHead) bool { return sameHead(h.plan, plan) })
		if k < 0 {
			prog := low.IL.Clone()
			if _, err := head.Run(prog, pass.NewContext()); err != nil {
				return nil, nil, err
			}
			k, heads = len(heads), append(heads, enumHead{plan, prog})
		}
		prog := heads[k].prog.Clone()
		ctx := pass.NewContext()
		ctx.Schedules = set
		rep, err := tail.Run(prog, ctx)
		if err != nil {
			return nil, nil, err
		}
		tp, err := driver.Generate(prog, plan)
		return tp, rep, err
	}
	o0, _, err := compile(driver.Options{OptLevel: 0}, nil)
	if err != nil {
		return "", fmt.Errorf("-O0: %v", err)
	}
	m := titan.NewMachine(o0, 1)
	want, err := m.Run("main")
	m.Release()
	if err != nil {
		return "", fmt.Errorf("-O0: %v", err)
	}
	proc, outer, inner := l.kernel()
	var row string
	for _, cfg := range enumConfigs {
		var set *schedule.Set
		switch cfg.plan {
		case "unroll":
			set = schedule.NewSet()
			set.Put(schedule.KeyFor(proc, inner), schedule.Schedule{VL: schedule.DefaultVL, Unroll: 4})
		case "interchange":
			if !l.nest {
				continue
			}
			set = schedule.NewSet()
			set.Put(schedule.KeyFor(proc, outer), schedule.Schedule{VL: schedule.DefaultVL, Unroll: 1, Interchange: true})
		case "vl", "serial-strips":
			set = schedule.NewSet()
			set.Put(schedule.KeyFor(proc, inner), enumMove(cfg.plan))
		}
		tp, rep, err := compile(cfg.opts, set)
		if err != nil {
			return "", fmt.Errorf("%s: %v", cfg.name, err)
		}
		switch {
		case cfg.name == "full":
			row = enumVerdicts(rep.Diags, outer.Line)
			if l.nest {
				row += " / " + enumVerdicts(rep.Diags, inner.Line)
			}
		case cfg.plan == "interchange":
			row += " / interchange: " + enumVerdicts(rep.Diags, outer.Line)
		}
		for _, procs := range []int{1, 3, 4} {
			runs, err := engineRuns(tp, procs)
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
// scaled values (i + i) over every affine subscript — the loops of the
// miscompile book the enumeration stands in for, and one of each step-2
// and step-3 shape. It also pins the size of the set.
func TestLoopEnumerationShapes(t *testing.T) {
	loops := enumLoops()
	have := map[string]bool{}
	for _, l := range loops {
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
		// 1(j): a loop of fewer trips than the unroll factor, so the
		// unrolled main loop is provably empty.
		enumLoop{step: 1, trip: enumShort, folded: true, dst: "a[i]", terms: []string{"i"}},
		// Step 2: a flow from one statement into the next iteration's
		// other statement, a scalar carried between statements, a mixed
		// guard over a recurrence, and a pointer loop on one array and,
		// under #pragma safe, on two.
		enumLoop{step: 1, trip: enumTrip, folded: true, dst: "a[i]", terms: []string{"b[i]", "5"}, then: "c[i] = a[i - 1] + i"},
		enumLoop{step: 2, trip: 0, folded: false, dst: "a[i]", terms: []string{"x", "i"}, then: "x = a[i + 1] + 5"},
		enumLoop{step: 4, trip: enumTrip, folded: false, guard: "b[i] > 235", dst: "a[i]", terms: []string{"a[i - 1]", "1"}},
		enumLoop{step: 4, trip: enumTrip, folded: true, dst: "p[i + 12]", terms: []string{"q[i]"}, call: &enumCall{"a", "a", false}},
		enumLoop{step: 1, trip: enumTrip, folded: false, dst: "p[i]", terms: []string{"p[i - 1]", "5"}, call: &enumCall{"a", "b", true}},
		// 1(g)'s (<,>) nest, which an interchange reverses, and a nest
		// whose (<,=) store an interchange keeps.
		enumLoop{nest: true, step: 1, trip: enumTrip, folded: true, dst: "a[i][j]", terms: []string{"a[i - 1][j + 1]", "5"}},
		enumLoop{nest: true, step: 1, trip: enumTrip, folded: true, dst: "v[j]", terms: []string{"v[j]", "i"}},
	)
	for _, l := range want {
		if !have[l.String()] {
			t.Errorf("pruned away: %s", l)
		}
	}
	if len(loops) != 21275 || len(have) != len(loops) {
		t.Errorf("%d loops, %d distinct; want 21,275: 18,384 of one statement, 2,403 of step 2 and 488 nests", len(loops), len(have))
	}
}

package repro_test

// Every DO and do parallel loop is emitted bottom-tested: the body runs
// once before the first test, so a loop that may run zero times needs a
// guard, and a processor of a do parallel needs one unless its first
// iteration init + pid·step surely exists. The table below crosses each
// loop shape codegen emits with the trip counts around those edges —
// none, fewer than the processors, a vector strip's remainder — under
// constant and unfoldable bounds, and holds every build to -O0.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/token"
)

// tripKernelLine is the source line of the loop under test in
// loopProgram's output.
const tripKernelLine = 16

// tripProgram is one loop of trip iterations by step over a[] and c[]
// with body.
func tripProgram(body string, step, trip int, folded bool) string {
	first := 8
	if step < 0 {
		first = 56
	}
	return loopProgram(96, body, step, first, first+trip*step, folded)
}

// loopProgram is main running body in one loop from first to past by
// step over the globals a[], b[] and c[] of size elements, the scalar x
// and the array t[2], with bounds that are constants or, unfolded, read
// from globals; main returns a checksum of x, t[], a[] and c[], which any
// stray or missing iteration moves.
func loopProgram(size int, body string, step, first, past int, folded bool) string {
	cond := "i < hi"
	if step < 0 {
		cond = "i > hi"
	}
	bounds := fmt.Sprintf("lo = %d;\n\thi = %d;", first, past)
	if !folded {
		bounds = "lo = bounds[0];\n\thi = bounds[1];"
	}
	return fmt.Sprintf(`int a[%[1]d], b[%[1]d], c[%[1]d];
int bounds[2] = {%[2]d, %[3]d};

int main(void)
{
	int i, k, lo, hi, chk, x, t[2];
	for (k = 0; k < %[1]d; k++) {
		a[k] = k;
		b[k] = 3 * k + 1;
	}
	x = bounds[0];
	t[0] = 5;
	t[1] = 9;
	%[4]s
	for (i = lo; %[5]s; i += %[6]d)
		%[7]s;
	chk = (x * 7 + t[0] * 3 + t[1]) %% 65521;
	for (k = 0; k < %[1]d; k++)
		chk = (chk * 31 + a[k] + c[k]) %% 65521;
	return chk;
}
`, size, first, past, bounds, cond, step, body)
}

// tripKinds is every loop shape codegen emits, an unrolled loop's main
// and remainder loops included: the options and any plan that compile
// the kernel into it, its bodies, the steps it takes and how its loops at
// the kernel's line are recognized. A kind's second body repeats a
// subscript and needs the constant heldConst, which the loop must keep in
// a register rather than load every iteration.
var tripKinds = []struct {
	name   string
	opts   driver.Options
	plan   *schedule.Schedule
	bodies [2]func(step int) string
	steps  []int
	shape  func(loops []il.Stmt) bool
}{
	{
		name: "serial",
		opts: driver.ScalarOptions(),
		bodies: [2]func(int) string{
			func(int) string { return "a[i] = a[i] + b[i] + i" },
			func(int) string { return "a[i] = (a[i] + b[i]) % 1000 + b[i]" },
		},
		steps: []int{1, 2, -1},
		shape: func(loops []il.Stmt) bool { return len(loops) == 1 && !hasParallel(loops) && !hasVector(loops) },
	},
	{
		name: "doall",
		opts: driver.Options{OptLevel: 1, Parallelize: true, StrengthReduce: true},
		bodies: [2]func(int) string{
			func(int) string { return "a[i] = b[i] + i" },
			func(int) string { return "a[i] = (a[i] + b[i]) % 1000 + b[i]" },
		},
		steps: []int{1, 2, -1},
		shape: func(loops []il.Stmt) bool { return hasParallel(loops) && !hasVector(loops) && syncDistance(loops) == 0 },
	},
	{
		name:   "doacross1",
		opts:   driver.FullOptions(),
		bodies: doacrossBodies(1),
		steps:  []int{1, 2},
		shape:  func(loops []il.Stmt) bool { return syncDistance(loops) == 1 },
	},
	{
		name:   "doacross3",
		opts:   driver.FullOptions(),
		bodies: doacrossBodies(3),
		steps:  []int{1, 2},
		shape:  func(loops []il.Stmt) bool { return syncDistance(loops) == 3 },
	},
	{
		name: "unrolled",
		opts: driver.ScalarOptions(),
		plan: &schedule.Schedule{VL: 32, Unroll: 4},
		bodies: [2]func(int) string{
			func(int) string { return "a[i] = a[i] + b[i] + i" },
			func(int) string { return "a[i] = (a[i] + b[i]) % 1000 + b[i]" },
		},
		steps: []int{1, 2, -1},
		shape: func(loops []il.Stmt) bool { return len(loops) == 2 && !hasParallel(loops) && !hasVector(loops) },
	},
	{
		name: "vector",
		opts: driver.Options{OptLevel: 1, Vectorize: true, StrengthReduce: true},
		bodies: [2]func(int) string{
			func(int) string { return "a[i] = b[i] * 2 + 1" },
			func(int) string { return "a[i] = (a[i] + b[i]) * 1000 + b[i]" },
		},
		steps: []int{1, 2, -1},
		shape: func(loops []il.Stmt) bool { return !hasParallel(loops) && hasVector(loops) },
	},
	{
		name: "parvector",
		opts: driver.FullOptions(),
		bodies: [2]func(int) string{
			func(int) string { return "a[i] = b[i] * 2 + 1" },
			func(int) string { return "a[i] = (a[i] + b[i]) * 1000 + b[i]" },
		},
		steps: []int{1, 2, -1},
		shape: func(loops []il.Stmt) bool { return hasParallel(loops) && hasVector(loops) },
	},
}

// doacrossBodies carry a[] at distance dist iterations beside a statement
// on c[] heavy enough, and kept serial by its %, that the parallelizer's
// own estimate pipelines the loop rather than leave it serial.
func doacrossBodies(dist int) [2]func(step int) string {
	const work = "c[i] = (b[i] * 3 + b[i + 1] * 5 + b[i + 2] * 7 + b[i + 3] * 9) % 1000"
	return [2]func(int) string{
		func(step int) string { return fmt.Sprintf("{ a[i] = a[i - %d] + b[i]; %s; }", dist*step, work) },
		func(step int) string { return fmt.Sprintf("{ a[i] = a[i - %d] %% 1000 + b[i]; %s; }", dist*step, work) },
	}
}

func hasParallel(loops []il.Stmt) bool {
	return slices.ContainsFunc(loops, func(s il.Stmt) bool { _, ok := s.(*il.DoParallel); return ok })
}

func hasVector(loops []il.Stmt) bool {
	found := false
	il.WalkStmts(loops, func(s il.Stmt) bool {
		_, ok := s.(*il.VectorAssign)
		found = found || ok
		return !found
	})
	return found
}

// syncDistance is the DOACROSS distance of the kernel's do parallel, 0
// when it has none.
func syncDistance(loops []il.Stmt) int64 {
	for _, s := range loops {
		if p, ok := s.(*il.DoParallel); ok && p.Sync != nil {
			return p.Sync.Distance
		}
	}
	return 0
}

// tripLoop is one DO or do parallel loop of main: its constant trip
// count (-1 if none), whether
// it is at the kernel's line, and where codegen put its top label and
// its back branch.
type tripLoop struct {
	stmt            il.Stmt
	trips           int64
	kernel          bool
	top, backBranch int
}

// tripLoops lists main's loops in preorder. Codegen emits each loop's
// top label before its body, so the loops' back branches — the only
// backward branches — sorted by target are the same loops in the same
// order.
func tripLoops(t *testing.T, res *driver.Result) []tripLoop {
	t.Helper()
	var loops []tripLoop
	il.WalkStmts(res.IL.Proc("main").Body, func(s il.Stmt) bool {
		switch n := s.(type) {
		case *il.DoLoop:
			loops = append(loops, tripLoop{stmt: s, trips: n.TripCount(), kernel: n.Pos.Line == tripKernelLine})
		case *il.DoParallel:
			loops = append(loops, tripLoop{stmt: s, trips: il.TripCount(n.Init, n.Limit, n.Step), kernel: n.Pos.Line == tripKernelLine})
		}
		return true
	})
	f := res.Machine.Funcs["main"]
	var back [][2]int
	for i, in := range f.Instrs {
		if top, ok := f.Labels[in.Sym]; ok && top <= i {
			back = append(back, [2]int{top, i})
		}
	}
	slices.SortFunc(back, func(a, b [2]int) int { return a[0] - b[0] })
	if len(back) != len(loops) {
		t.Fatalf("%d loops, %d backward branches:\n%s", len(loops), len(back), f.Disassemble())
	}
	for k := range loops {
		loops[k].top, loops[k].backBranch = back[k][0], back[k][1]
	}
	return loops
}

// guarded reports whether a bnez ahead of the loop's top skips to the
// instruction after its back branch.
func guarded(f *titan.Func, l tripLoop) bool {
	return slices.ContainsFunc(f.Instrs[:l.top], func(in titan.Instr) bool {
		return in.Op == titan.OpBnez && f.Labels[in.Sym] == l.backBranch+1
	})
}

// heldConst is the constant each kind's second body needs, which no
// integer or FP immediate of the operation it feeds can carry.
const heldConst = 1000

// reloaded reports an instruction between a kernel loop's top and its back
// branch that loads heldConst.
func reloaded(f *titan.Func, loops []tripLoop) (titan.Instr, bool) {
	for _, l := range loops {
		if !l.kernel {
			continue
		}
		for _, in := range f.Instrs[l.top : l.backBranch+1] {
			if (in.Op == titan.OpLdi && in.Imm == heldConst) || (in.Op == titan.OpFldi && in.FImm == heldConst) {
				return in, true
			}
		}
	}
	return titan.Instr{}, false
}

func TestLoopTripBoundaries(t *testing.T) {
	kernelPos := token.Pos{Line: tripKernelLine, Col: 2}
	for _, k := range tripKinds {
		for b, body := range k.bodies {
			for _, step := range k.steps {
				for _, trip := range []int{0, 1, 2, 3, 4, 5, 33} {
					for _, folded := range []bool{true, false} {
						name := fmt.Sprintf("%s/body=%d/step=%d/trip=%d/folded=%v", k.name, b, step, trip, folded)
						src := tripProgram(body(step), step, trip, folded)
						want, err := driver.Run(src, driver.Options{OptLevel: 0}, 1)
						if err != nil {
							t.Fatalf("%s -O0: %v", name, err)
						}
						ctx := pass.NewContext()
						if k.plan != nil {
							ctx.Schedules = schedule.NewSet()
							ctx.Schedules.Put(schedule.KeyFor("main", kernelPos), *k.plan)
						}
						res, err := driver.CompileWith(src, k.opts, ctx)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						loops := tripLoops(t, res)
						if b == 1 {
							if in, ok := reloaded(res.Machine.Funcs["main"], loops); ok {
								t.Errorf("%s: %s inside the kernel:\n%s", name, in, res.Machine.Funcs["main"].Disassemble())
							}
						}
						// Unfolded, the compiler cannot know the trip count:
						// the kernel takes its kind, and each of its loops
						// has a guard.
						if !folded {
							var kernel []il.Stmt
							for _, l := range loops {
								if !l.kernel {
									continue
								}
								kernel = append(kernel, l.stmt)
								if l.trips >= 0 {
									t.Errorf("%s: the kernel's bounds folded: %s", name, l.stmt)
								}
								if !guarded(res.Machine.Funcs["main"], l) {
									t.Errorf("%s: %s has no guard:\n%s", name, l.stmt, res.Machine.Funcs["main"].Disassemble())
								}
							}
							if !k.shape(kernel) {
								t.Errorf("%s: the kernel did not compile to a %s loop: %v", name, k.name, kernel)
							}
						}
						for _, procs := range testProcs {
							runs, err := engineRuns(res.Machine, procs)
							if err != nil {
								t.Fatal(err)
							}
							for _, r := range runs {
								if r.ExitCode != want.ExitCode || r.Output != want.Output {
									t.Errorf("%s p=%d %s: checksum %d, -O0 gives %d", name, procs, r.name, r.ExitCode, want.ExitCode)
								}
							}
						}
					}
				}
			}
		}
	}
}

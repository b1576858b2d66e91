package repro_test

// Reduced regression tests for known miscompiles (ROADMAP item 1). Each
// case is named for the legality rule that was broken, and pins the
// compiler's contract on it: every listed option set, on both engines at
// every processor count (the reference in both region orders), exits with
// what unoptimized scalar code exits with.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/token"
)

var miscompileCases = []struct {
	name string
	src  string
	opts []driver.Options
	// sched, when set, is a loop of main and the explicit plan the case
	// compiles it under.
	sched *scheduledLoop
	// check asserts on the compile itself, for a case whose exit code is
	// right by luck on some engine: nest is the scheduled loop as the loop
	// phases first see it (nil without sched).
	check func(t *testing.T, res *driver.Result, diags []diag.Diagnostic, nest *il.DoLoop)
}{
	{
		// The step of t = t + step must be invariant in the loop before
		// t becomes t.0 + step·k; a step that reads the DO index is not.
		name: "ivsub-index-dependent-step",
		src: `
int main(void)
{
	int i, t;
	t = 1;
	for (i = 0; i < 10; i++)
		t = t + (i & 3) * 3;
	return t;
}
`,
		opts: []driver.Options{driver.ScalarOptions(), driver.FullOptions()},
	},
	{
		// A store whose address does not move with the index writes one
		// location in every iteration: an output dependence on itself.
		// The reference engine runs a region's processors one after
		// another and the fast engine's race is not deterministic, so
		// the verdict is asserted too.
		name: "depend-invariant-address-store",
		src: `
int a[60000], s[2];

int main(void)
{
	int i;
	for (i = 0; i < 60000; i++)
		a[i] = i & 7;
	for (i = 0; i < 60000; i++)
		s[0] = s[0] + a[i];
	return s[0] % 251;
}
`,
		opts: []driver.Options{driver.FullOptions()},
		check: func(t *testing.T, res *driver.Result, diags []diag.Diagnostic, _ *il.DoLoop) {
			wantSerialStore(t, res, diags, 9, "s")
		},
	},
	{
		// A store whose address is not affine in the index may meet
		// itself: a[i & 1] writes two words, each every other iteration.
		// Only a store that provably moves is free of an output
		// dependence on itself. Parallelized, both engines exited 1993 at
		// p=3 where -O0 exits 1997, and the reference engine did so at p=4
		// in the reversed region order.
		name: "depend-nonaffine-store-self",
		src: `
int a[2];

int main(void)
{
	int i;
	for (i = 0; i < 1000; i++)
		a[i & 1] = i;
	return a[0] + a[1];
}
`,
		opts: []driver.Options{driver.FullOptions()},
		check: func(t *testing.T, res *driver.Result, diags []diag.Diagnostic, _ *il.DoLoop) {
			wantSerialStore(t, res, diags, 7, "a")
		},
	},
	{
		// A body-local array is one object for the whole loop, shared by
		// every processor of a do parallel (they run on the forker's
		// frame): its stores do not move with the index, so they depend on
		// themselves like any other store to a fixed address. Before that
		// rule the loop was parallelized, and both engines exited 13 at
		// p=1 and p=4 where -O0 exits 164.
		name: "parallel-body-local-array",
		src: `
float a[4000], b[4000], c[4000];

int main(void)
{
	int i, s;
	for (i = 0; i < 4000; i++) {
		a[i] = i & 7;
		b[i] = i & 3;
	}
	for (i = 0; i < 4000; i++) {
		float t[2];
		t[0] = a[i] + 1.0f;
		t[1] = b[i] + 2.0f;
		c[i] = t[0] * t[1] + t[1];
	}
	s = 0;
	for (i = 0; i < 4000; i++)
		s = (s + (int)c[i]) % 65521;
	return s % 251;
}
`,
		opts: []driver.Options{driver.FullOptions()},
		check: func(t *testing.T, res *driver.Result, diags []diag.Diagnostic, _ *il.DoLoop) {
			wantSerialStore(t, res, diags, 11, "t")
		},
	},
	{
		// A dependence distance counts iterations, not index units: with
		// i += 4, a[i + 12] is read back as a[i] three iterations later,
		// not twelve. Measured in index units the distance cleared the
		// ten-trip loop, so titancc -parallel spread the loop, and at p=2
		// both engines exited 236 where -O0 exits 187.
		name: "depend-stepped-distance",
		src: `
int a[64];

int main(void)
{
	int i, s;
	for (i = 0; i < 64; i++)
		a[i] = i;
	for (i = 0; i < 40; i += 4)
		a[i + 12] = a[i] + 100;
	s = 0;
	for (i = 0; i < 64; i++)
		s = s + a[i];
	return s % 251;
}
`,
		opts: []driver.Options{{OptLevel: 1, Parallelize: true, StrengthReduce: true}},
	},
	{
		// §6's register promotion keeps a value for the next iteration
		// when the load reads what the store wrote one iteration before.
		// With i += 4, a[i - 1] is not a[i] of the previous iteration,
		// but measured in index units it looked so, and the promoted
		// loop exited 27 where -O0 exits 238.
		name: "strength-stepped-promotion",
		src: `
int a[64];

int main(void)
{
	int i, s;
	for (i = 0; i < 64; i++)
		a[i] = i;
	for (i = 4; i < 64; i += 4)
		a[i] = a[i - 1] + 100;
	s = 0;
	for (i = 0; i < 64; i++)
		s = s + a[i];
	return s % 251;
}
`,
		opts: []driver.Options{driver.ScalarOptions()},
	},
	{
		// Interchange reverses a dependence of direction (<,>): here
		// a[i-1][j+1] is written at iteration (i-1, j+1) and read at
		// (i, j), which the interchanged nest runs first. Each level
		// alone carries nothing, and the check looked at each level
		// alone: the nest was interchanged, and every engine at every
		// processor count exited 243 where -O0 exits 68.
		name: "interchange-lt-gt-direction",
		src: `
int a[16][16];

int main(void)
{
	int i, j, s;
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			a[i][j] = i * 16 + j;
	for (i = 1; i < 16; i++)
		for (j = 0; j < 15; j++)
			a[i][j] = a[i-1][j+1] + 1;
	s = 0;
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			s = (s + a[i][j] * (i + j + 1)) % 65521;
	return s % 251;
}
`,
		opts:  []driver.Options{driver.FullOptions()},
		sched: &scheduledLoop{token.Pos{Line: 10, Col: 2}, schedule.Schedule{VL: 32, Unroll: 1, Interchange: true}},
		check: func(t *testing.T, res *driver.Result, diags []diag.Diagnostic, nest *il.DoLoop) {
			err := schedule.CheckInterchange(res.IL.Proc("main"), nest, depend.Options{})
			if err == nil || !strings.Contains(err.Error(), "S0 -flow (<,>)-> S0") {
				t.Errorf("CheckInterchange on the diagonal nest = %v, want it refused naming S0 -flow (<,>)-> S0", err)
			}
			for _, d := range diags {
				if d.Code == diag.VectInterchanged {
					t.Errorf("the diagonal nest was interchanged: %s", d.String())
				}
			}
		},
	},
	{
		// The same store after an interchange: every iteration of the
		// kernel's repeat loop writes all of a[], so a[512-n] does not
		// move with r. That dependence has direction (<,=), which
		// interchange keeps: the interchanged inner loop over r carries
		// it, so neither a do parallel nor a vector store may spread
		// that loop. The stores are idempotent, so only the verdicts and
		// the race detector could see a spread one.
		name: "interchange-invariant-store",
		src: `
float a[512], b[512], c[512];

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
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		b[i] = i;
		c[i] = 512 - i;
	}
	for (r = 0; r < 12; r++) daxpy(a, b, c, 0.5f, 512);
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)(a[i] * 2.0f)) % 65521;
	return chk % 251;
}
`,
		opts:  []driver.Options{driver.FullOptions()},
		sched: &scheduledLoop{token.Pos{Line: 21, Col: 2}, schedule.Schedule{VL: 32, Unroll: 1, Interchange: true}},
		check: func(t *testing.T, res *driver.Result, diags []diag.Diagnostic, nest *il.DoLoop) {
			if err := schedule.CheckInterchange(res.IL.Proc("main"), nest, depend.Options{}); err != nil {
				t.Errorf("CheckInterchange on the repeat nest = %v, want it legal", err)
			}
			interchanged := false
			for _, d := range diags {
				interchanged = interchanged || d.Code == diag.VectInterchanged
			}
			if !interchanged {
				t.Error("the repeat nest was not interchanged")
			}
			wantUnspreadStore(t, res, "a")
		},
	},
	{
		// A scalar without a register is one frame slot, and every
		// processor of a do parallel region runs on the forker's frame:
		// a scalar the region keeps private is shared there. Sixteen
		// locals live across the nests used to crowd the nests' scalars
		// out of the register file, and the fast engine exited 150, 186,
		// 188, 5, 54, 75, 76 or 98 in 8 of 15 runs at p=2..4 where -O0
		// exits 84. Its race is not deterministic, so the frame accesses
		// are asserted too.
		name: "codegen-region-scalar-frame-slot",
		src: `
float m[64][4], v[64][4];
int g[16];

int main(void)
{
	int i, j, chk;
	int x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15;
	for (i = 0; i < 16; i++)
		g[i] = 3 * i + 1;
	x0 = g[0];
	x1 = g[1];
	x2 = g[2];
	x3 = g[3];
	x4 = g[4];
	x5 = g[5];
	x6 = g[6];
	x7 = g[7];
	x8 = g[8];
	x9 = g[9];
	x10 = g[10];
	x11 = g[11];
	x12 = g[12];
	x13 = g[13];
	x14 = g[14];
	x15 = g[15];
	for (i = 0; i < 64; i++)
		for (j = 0; j < 4; j++)
			v[i][j] = i + j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 4; j++)
			m[i][j] = v[i][j] * 2.0f;
	chk = 0;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 4; j++)
			chk = (chk + (int)m[i][j] * (j + 1)) % 65521;
	return (chk + x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11 + x12 + x13 + x14 + x15) % 251;
}
`,
		opts: []driver.Options{{OptLevel: 1, Parallelize: true, StrengthReduce: true}},
		check: func(t *testing.T, res *driver.Result, _ []diag.Diagnostic, _ *il.DoLoop) {
			wantRegionsOffFrame(t, res)
		},
	},
	{
		// Normalizing a loop to step 1 counts its trips by dividing by
		// the step, and Go's division truncates: lo = hi = 8 by 2 made
		// (7 - 8) / 2 = 0, one trip where the loop runs none. The loop
		// stays normalized whether or not it then vectorizes.
		name: "vector-normalize-stepped-zero-trip",
		src: `
int a[32], b[32];
int bounds[2] = {8, 8};

int main(void)
{
	int i, k, lo, hi, chk;
	for (k = 0; k < 32; k++) {
		a[k] = k;
		b[k] = 3 * k + 1;
	}
	lo = bounds[0];
	hi = bounds[1];
	for (i = lo; i < hi; i += 2)
		a[i] = b[i] * 2 + 1;
	for (i = lo; i < hi; i += 2)
		a[i] = a[i - 2] + b[i];
	chk = 0;
	for (k = 0; k < 32; k++)
		chk = (chk * 31 + a[k]) % 65521;
	return chk % 251;
}
`,
		opts: []driver.Options{{OptLevel: 1, Vectorize: true, StrengthReduce: true}, driver.FullOptions()},
	},
	{
		// A DO loop that runs no times still leaves its index at Init:
		// unrolled by 4, three trips leave a main loop of none, whose
		// exit index the remainder loop starts from. Constant
		// propagation deleted that loop and with it the index's only
		// definition, so the remainder ran from whatever the register
		// held.
		name: "constprop-zero-trip-loop-exit-index",
		src: `
int a[16];

int main(void)
{
	int i, chk;
	for (i = 5; i < 8; i++)
		a[i] = a[i] + i + 1;
	chk = 0;
	for (i = 0; i < 16; i++)
		chk = chk * 3 + a[i];
	return chk % 251;
}
`,
		opts:  []driver.Options{driver.ScalarOptions()},
		sched: &scheduledLoop{token.Pos{Line: 7, Col: 2}, schedule.Schedule{VL: 32, Unroll: 4}},
	},
	{
		// The vector register file computes in float64, so an integer
		// quotient on a vector strip kept its fraction: (b / 3) * 3 gave
		// b back. A statement with a node of no exact vector lowering
		// stays serial.
		name: "vector-int-div-truncates",
		src: `
int a[96], b[96];

int main(void)
{
	int i, chk;
	for (i = 0; i < 96; i++) {
		a[i] = i;
		b[i] = 7 * i + 3;
	}
	for (i = 0; i < 96; i++)
		a[i] = (b[i] / 3) * 3;
	for (i = 0; i < 96; i++)
		a[i] = b[i] / 2 * 2 + a[i];
	chk = 0;
	for (i = 0; i < 96; i++)
		chk = (chk * 31 + a[i]) % 65521;
	return chk % 251;
}
`,
		opts: []driver.Options{{OptLevel: 1, Vectorize: true, StrengthReduce: true}, driver.FullOptions()},
	},
	{
		// For the same reason a float→int cast on a vector strip did not
		// truncate: (int)f * 2 doubled the fraction too.
		name: "vector-float-int-cast-truncates",
		src: `
int a[96];
float f[96];

int main(void)
{
	int i, chk;
	for (i = 0; i < 96; i++)
		f[i] = i * 1.75f;
	for (i = 0; i < 96; i++)
		a[i] = (int)(f[i]) * 2;
	chk = 0;
	for (i = 0; i < 96; i++)
		chk = (chk * 31 + a[i]) % 65521;
	return chk % 251;
}
`,
		opts: []driver.Options{{OptLevel: 1, Vectorize: true, StrengthReduce: true}, driver.FullOptions()},
	},
	{
		// §6's register promotion keeps the value a store wrote for the
		// load one iteration later. That holds only while the load comes
		// no later in the iteration than the store: here the store is the
		// first statement, so the load read the value stored in the same
		// iteration and c[i] got a[i + 1].
		name: "strength-promotion-load-after-store",
		src: `
int a[48], c[48];

int main(void)
{
	int i, chk;
	for (i = 0; i < 48; i++)
		a[i] = i;
	for (i = 4; i < 40; i++) {
		a[i + 1] = i * 3 + 5;
		c[i] = a[i] + i;
	}
	chk = 0;
	for (i = 0; i < 48; i++)
		chk = (chk * 31 + a[i] + c[i]) % 65521;
	return chk % 251;
}
`,
		opts: []driver.Options{driver.ScalarOptions()},
	},
	{
		// A DOACROSS loop keeps the scalars its body defines in each
		// processor's registers. x is read after the loop, where the
		// last iteration's value is wanted, so the loop may not be
		// pipelined: at p=3 and p=4 another processor's x was found.
		name: "doacross-scalar-read-after-loop",
		src: `
int a[64];

int main(void)
{
	int i, x;
	for (i = 0; i < 64; i++)
		a[i] = i;
	x = 0;
	for (i = 8; i < 43; i++) {
		x = a[i + 1] + 5;
		a[i] = x + i;
	}
	return x % 251;
}
`,
		opts: []driver.Options{driver.FullOptions()},
		// DOACROSS would synchronize the loop's one memory dependence, so
		// the verdict names what blocks it: x, read after the loop.
		check: func(t *testing.T, _ *driver.Result, diags []diag.Diagnostic, _ *il.DoLoop) {
			verdict := false
			for _, d := range diags {
				if d.Pass == "parallelize" && d.Pos.Line == 10 {
					verdict = true
					if d.Code != diag.ParLiveOut || d.Args["var"] != "x" {
						t.Errorf("the loop's verdict is %s, want %s naming x", d.String(), diag.ParLiveOut)
					}
				}
			}
			if !verdict {
				t.Error("the loop has no parallelize verdict")
			}
		},
	},
}

// TestVectorInexactOperatorsStaySerial holds the integer operators with no
// vector lowering at all to the same rule: a loop of %, &, | or >> on an
// integer array compiles, serial, and answers what -O0 does.
func TestVectorInexactOperatorsStaySerial(t *testing.T) {
	for _, op := range []string{"b[i] % 7", "b[i] & 7", "b[i] | 1", "b[i] >> 1"} {
		src := `
int a[96], b[96];

int main(void)
{
	int i, chk;
	for (i = 0; i < 96; i++)
		b[i] = 7 * i + 3;
	for (i = 0; i < 96; i++)
		a[i] = ` + op + `;
	chk = 0;
	for (i = 0; i < 96; i++)
		chk = (chk * 31 + a[i]) % 65521;
	return chk % 251;
}
`
		want, err := driver.Run(src, driver.Options{OptLevel: 0}, 1)
		if err != nil {
			t.Fatalf("%s -O0: %v", op, err)
		}
		for _, opts := range []driver.Options{{OptLevel: 1, Vectorize: true, StrengthReduce: true}, driver.FullOptions()} {
			res, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("a[i] = %s, vectorize=%v parallelize=%v: %v", op, opts.Vectorize, opts.Parallelize, err)
			}
			for _, procs := range testProcs {
				runs, err := engineRuns(res.Machine, procs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range runs {
					if r.ExitCode != want.ExitCode {
						t.Errorf("a[i] = %s, parallelize=%v p=%d %s: exit %d, -O0 gives %d",
							op, opts.Parallelize, procs, r.name, r.ExitCode, want.ExitCode)
					}
				}
			}
		}
	}
}

// wantRegionsOffFrame asserts that no instruction of main between a
// par.begin and its par.end reads the stack pointer: every processor of
// the region would reach the same frame.
func wantRegionsOffFrame(t *testing.T, res *driver.Result) {
	t.Helper()
	sp := titan.Ref{File: titan.IntReg, Num: titan.RegSP}
	inRegion := false
	for _, in := range res.Machine.Funcs["main"].Instrs {
		refs := in.Refs()
		switch {
		case in.Op == titan.OpParBegin:
			inRegion = true
		case in.Op == titan.OpParEnd:
			inRegion = false
		case inRegion && slices.Contains(refs.Uses(), sp):
			t.Errorf("%s addresses the frame inside a do parallel region", in)
		}
	}
}

// wantSerialStore asserts that the loop of main at line stores to a fixed
// address of variable v: its parallelize verdict names the store's output
// dependence on itself, and no do parallel encloses a store to v.
func wantSerialStore(t *testing.T, res *driver.Result, diags []diag.Diagnostic, line int, v string) {
	t.Helper()
	const want = "S0 -output carried(?)-> S0"
	verdict := false
	for _, d := range diags {
		if d.Pass != "parallelize" || d.Pos.Line != line {
			continue
		}
		verdict = true
		if d.Code != diag.ParCarriedDep || d.Args["dep"] != want {
			t.Errorf("the loop's verdict is %s, want %s naming %s", d.String(), diag.ParCarriedDep, want)
		}
	}
	if !verdict {
		t.Errorf("the loop storing to %s has no parallelize verdict", v)
	}
	wantUnspreadStore(t, res, v)
}

// wantUnspreadStore asserts that no do parallel of main encloses a store
// to variable v and no vector statement stores to it.
func wantUnspreadStore(t *testing.T, res *driver.Result, v string) {
	t.Helper()
	main := res.IL.Proc("main")
	id := main.LookupVar(v)
	il.WalkStmts(main.Body, func(st il.Stmt) bool {
		switch n := st.(type) {
		case *il.VectorAssign:
			if il.UsesVar(n.DstBase, id) {
				t.Errorf("a vector statement stores to %s: %s", v, n)
			}
		case *il.DoParallel:
			il.WalkStmts(n.Body, func(in il.Stmt) bool {
				if as, ok := in.(*il.Assign); ok && il.IsStore(as) && il.UsesVar(as.Dst, id) {
					t.Errorf("a do parallel encloses the store %s", as)
				}
				return true
			})
		}
		return true
	})
}

// scheduledLoop is one loop of main, by source position, and its plan.
type scheduledLoop struct {
	pos  token.Pos
	plan schedule.Schedule
}

func TestMiscompile(t *testing.T) {
	for _, tc := range miscompileCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := driver.Run(tc.src, driver.Options{OptLevel: 0}, 1)
			if err != nil {
				t.Fatalf("-O0: %v", err)
			}
			for _, opts := range tc.opts {
				ctx := pass.NewContext()
				var nest *il.DoLoop
				if tc.sched != nil {
					ctx.Schedules = schedule.NewSet()
					ctx.Schedules.Put(schedule.KeyFor("main", tc.sched.pos), tc.sched.plan)
					// The loop as the loop phases first see it, cloned
					// because they rewrite it.
					ctx.Snapshot = func(name string, prog *il.Program) {
						if name != pass.PassScalar {
							return
						}
						il.WalkStmts(prog.Proc("main").Body, func(s il.Stmt) bool {
							if loop, ok := s.(*il.DoLoop); ok && loop.Pos == tc.sched.pos {
								nest = (*il.Arena)(nil).CloneStmt(loop).(*il.DoLoop)
							}
							return true
						})
					}
				}
				res, err := driver.CompileWith(tc.src, opts, ctx)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				if tc.sched != nil && nest == nil {
					t.Fatalf("no DO loop of main at %v to schedule", tc.sched.pos)
				}
				if tc.check != nil {
					tc.check(t, res, ctx.Diags.All(), nest)
				}
				for _, procs := range testProcs {
					runs, err := engineRuns(res.Machine, procs)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range runs {
						if r.ExitCode != want.ExitCode || r.Output != want.Output {
							t.Errorf("vectorize=%v p=%d %s: exit %d output %q, -O0 gives exit %d output %q",
								opts.Vectorize, procs, r.name, r.ExitCode, r.Output, want.ExitCode, want.Output)
						}
					}
				}
			}
		})
	}
}

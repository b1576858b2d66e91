package repro_test

// This file regenerates the paper's evaluation (see EXPERIMENTS.md): one
// benchmark per measured claim (E1–E10), the ablations the design calls
// out (A1–A5), and the extensions (X1 loop-nest parallelization, X2 §10
// list-loop parallelization). Each benchmark simulates deterministic Titan
// runs and attaches the simulated metrics (cycles, MFLOPS, speedup) to the
// Go benchmark output via ReportMetric; wall-clock ns/op measures the
// compiler+simulator themselves.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/inline"
	"repro/internal/titan"
)

func mustRun(b *testing.B, w bench.Workload, cfg bench.Config) bench.Measurement {
	b.Helper()
	m, err := bench.Run(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE1Backsolve reproduces §6: the backsolve recurrence at 0.5
// MFLOPS with scalar optimization only, 1.9 MFLOPS with the dependence-
// driven register promotion + strength reduction + scheduling (≈3.8x).
func BenchmarkE1Backsolve(b *testing.B) {
	w := bench.Kernel("backsolve", 2048)
	scalarCfg := bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1, NoAlias: true}, Processors: 1}
	depCfg := bench.Config{Name: "dep-driven", Opts: driver.Options{OptLevel: 1, NoAlias: true, StrengthReduce: true}, Processors: 1}
	var scalar, dep bench.Measurement
	for i := 0; i < b.N; i++ {
		scalar = mustRun(b, w, scalarCfg)
		dep = mustRun(b, w, depCfg)
	}
	if dep.KernelCycles >= scalar.KernelCycles {
		b.Fatalf("§6 optimization did not win: %d vs %d", dep.KernelCycles, scalar.KernelCycles)
	}
	b.ReportMetric(scalar.MFLOPS(), "scalar-mflops")
	b.ReportMetric(dep.MFLOPS(), "opt-mflops")
	b.ReportMetric(bench.Speedup(scalar, dep), "speedup")
	b.Logf("E1 backsolve: scalar %.2f MFLOPS, §6 %.2f MFLOPS, %.2fx (paper: 0.5 → 1.9, 3.8x)",
		scalar.MFLOPS(), dep.MFLOPS(), bench.Speedup(scalar, dep))
}

// BenchmarkE2Daxpy reproduces §9: inlined daxpy, vectorized and spread
// over two processors, versus the scalar call (paper: 12x).
func BenchmarkE2Daxpy(b *testing.B) {
	w := bench.Kernel("daxpy", 100)
	scalarCfg := bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1}, Processors: 1}
	fullCfg := bench.Config{Name: "full P=2", Opts: driver.FullOptions(), Processors: 2}
	var scalar, full bench.Measurement
	for i := 0; i < b.N; i++ {
		scalar = mustRun(b, w, scalarCfg)
		full = mustRun(b, w, fullCfg)
	}
	sp := bench.Speedup(scalar, full)
	if sp < 2 {
		b.Fatalf("§9 speedup collapsed: %.2fx", sp)
	}
	b.ReportMetric(sp, "speedup")
	b.ReportMetric(full.MFLOPS(), "mflops")
	b.Logf("E2 daxpy n=100: scalar %d cycles, full(P=2) %d cycles, %.1fx (paper: 12x)",
		scalar.KernelCycles, full.KernelCycles, sp)
	// Larger vectors amortize strip and fork startup; report that shape
	// too.
	wBig := bench.Kernel("daxpy", 4096)
	scalarBig := mustRun(b, wBig, scalarCfg)
	fullBig := mustRun(b, wBig, fullCfg)
	b.Logf("E2 daxpy n=4096: %.1fx", bench.Speedup(scalarBig, fullBig))
	b.ReportMetric(bench.Speedup(scalarBig, fullBig), "speedup-n4096")
}

// BenchmarkE3CopyLoop reproduces §5.3: while(n){*a++=*b++;n--;} becomes a
// single vector statement after backtracking induction-variable
// substitution.
func BenchmarkE3CopyLoop(b *testing.B) {
	w := bench.Kernel("copyloop", 1024)
	var res *driver.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = driver.Compile(w.Src, driver.FullOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Report.Vector.VectorStmts < 1 {
		b.Fatalf("copy loop did not vectorize: %+v", res.Report.Vector)
	}
	scalar := mustRun(b, w, bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1}, Processors: 1})
	vec := mustRun(b, w, bench.Config{Name: "vector", Opts: driver.FullOptions(), Processors: 1})
	b.ReportMetric(bench.Speedup(scalar, vec), "speedup")
	b.Logf("E3 copy loop: vector stmts=%d, speedup %.1fx", res.Report.Vector.VectorStmts, bench.Speedup(scalar, vec))
}

// BenchmarkE4ReverseAxpy reproduces §5.3's Fortran example: the auxiliary
// downward induction variable becomes explicit and the loop vectorizes.
func BenchmarkE4ReverseAxpy(b *testing.B) {
	w := bench.Kernel("reverseaxpy", 1024)
	var res *driver.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = driver.Compile(w.Src, driver.FullOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Report.Vector.VectorStmts < 1 {
		b.Fatalf("reverse axpy did not vectorize: %+v", res.Report.Vector)
	}
	scalar := mustRun(b, w, bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1}, Processors: 1})
	vec := mustRun(b, w, bench.Config{Name: "vector", Opts: driver.FullOptions(), Processors: 1})
	b.ReportMetric(bench.Speedup(scalar, vec), "speedup")
	b.Logf("E4 reverse axpy: vector stmts=%d, speedup %.1fx", res.Report.Vector.VectorStmts, bench.Speedup(scalar, vec))
}

// BenchmarkE5DeadInline reproduces §8: inlining daxpy with alpha = 0.0
// lets constant propagation prove the body unreachable; the inlined
// statement count collapses.
func BenchmarkE5DeadInline(b *testing.B) {
	src := `
void daxpy1(float *x, float y, float a, float z)
{
	if (a == 0.0)
		return;
	*x = y + a * z;
}
float cell;
int main(void)
{
	daxpy1(&cell, 1.0f, 0.0f, 2.0f);
	return 0;
}
`
	var before, after int
	for i := 0; i < b.N; i++ {
		inlinedOnly, err := driver.CompileIL(src, driver.Options{OptLevel: 0, Inline: true})
		if err != nil {
			b.Fatal(err)
		}
		before = il.CountStmts(inlinedOnly.IL.Proc("main").Body)
		optimized, err := driver.CompileIL(src, driver.Options{OptLevel: 1, Inline: true})
		if err != nil {
			b.Fatal(err)
		}
		after = il.CountStmts(optimized.IL.Proc("main").Body)
	}
	if after >= before {
		b.Fatalf("no shrink: %d → %d", before, after)
	}
	b.ReportMetric(float64(before), "stmts-inlined")
	b.ReportMetric(float64(after), "stmts-optimized")
	b.Logf("E5 dead inline: %d stmts after inlining, %d after §8 propagation", before, after)
}

// BenchmarkE6WhileConv reproduces §5.2: the countdown while loop converts
// to a DO loop and, with everything downstream enabled, vectorizes.
func BenchmarkE6WhileConv(b *testing.B) {
	src := `
float out[512];
void fill(float v, int n)
{
	int i, temp;
	i = n - 1;
	while (i) {
		out[i] = v;
		temp = i;
		i = temp - 1;
	}
}
int main(void) { fill(2.5f, 512); ` + bench.KernelMarker + `
	return 0; }
`
	var res *driver.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = driver.CompileIL(src, driver.FullOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	hasDo := false
	il.WalkStmts(res.IL.Proc("fill").Body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.DoLoop, *il.DoParallel, *il.VectorAssign:
			hasDo = true
		case *il.While:
			b.Fatalf("while loop survived:\n%s", res.IL.Proc("fill"))
		}
		return true
	})
	if !hasDo {
		b.Fatal("no DO/vector form produced")
	}
	b.ReportMetric(float64(res.Report.Vector.VectorStmts), "vector-stmts")
	b.Logf("E6 while→DO: vector stmts=%d", res.Report.Vector.VectorStmts)
}

// BenchmarkE7Scaling reproduces §2: spreading a vector loop over 1–4
// processors.
func BenchmarkE7Scaling(b *testing.B) {
	w := bench.Kernel("vectoradd", 16384)
	var rows []string
	var cycles [5]int64
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for p := 1; p <= 4; p++ {
			m := mustRun(b, w, bench.Config{Name: fmt.Sprintf("P=%d", p), Opts: driver.FullOptions(), Processors: p})
			cycles[p] = m.KernelCycles
			rows = append(rows, fmt.Sprintf("P=%d:%d", p, m.KernelCycles))
		}
	}
	if cycles[2] >= cycles[1] || cycles[4] >= cycles[2] {
		b.Fatalf("no scaling: %v", rows)
	}
	b.ReportMetric(float64(cycles[1])/float64(cycles[2]), "speedup-p2")
	b.ReportMetric(float64(cycles[1])/float64(cycles[4]), "speedup-p4")
	b.Logf("E7 scaling: %s (p2 %.2fx, p4 %.2fx)", strings.Join(rows, " "),
		float64(cycles[1])/float64(cycles[2]), float64(cycles[1])/float64(cycles[4]))
}

// BenchmarkE8Lowering measures the front end itself on the §4 rewrites
// (expression pairs, condition duplication) and asserts the volatile
// write-once property of assignment chains.
func BenchmarkE8Lowering(b *testing.B) {
	src := `
volatile int v;
int chain(int a, int bb) {
	a = v = bb;
	return a;
}
void loops(int n) {
	while (n--) ;
}
`
	var res *driver.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = driver.CompileIL(src, driver.Options{OptLevel: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	p := res.IL.Proc("chain")
	vid := p.LookupVar("v")
	writes, reads := 0, 0
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok {
			if vr, ok := as.Dst.(*il.VarRef); ok && vr.ID == vid {
				writes++
			}
			if il.UsesVar(as.Src, vid) {
				reads++
			}
		}
		return true
	})
	if writes != 1 || reads != 0 {
		b.Fatalf("volatile chain: %d writes, %d reads", writes, reads)
	}
	b.ReportMetric(float64(il.CountStmts(p.Body)), "il-stmts")
	b.Logf("E8 lowering: a=v=b writes v once, reads it never")
}

// BenchmarkE9Catalog reproduces §7: inlining from a serialized catalog
// produces identical code (and identical cycle counts) to same-file
// inlining.
func BenchmarkE9Catalog(b *testing.B) {
	lib := `
void saxpy(float *y, float *x, float alpha, int n)
{
	int i;
	for (i = 0; i < n; i++)
		y[i] = y[i] + alpha * x[i];
}
`
	app := `
void saxpy(float *y, float *x, float alpha, int n);
float u[512], v[512];
int main(void)
{
	int i;
	for (i = 0; i < 512; i++) { u[i] = 1; v[i] = i; }
	saxpy(u, v, 0.5f, 512);
	return 0;
}
`
	var same, cat titan.Result
	for i := 0; i < b.N; i++ {
		var buf strings.Builder
		if err := driver.WriteCatalogFromSource(&buf, lib); err != nil {
			b.Fatal(err)
		}
		catalog, err := inline.ReadCatalog(strings.NewReader(buf.String()))
		if err != nil {
			b.Fatal(err)
		}
		same, err = driver.Run(lib+app, driver.FullOptions(), 1)
		if err != nil {
			b.Fatal(err)
		}
		opts := driver.FullOptions()
		opts.Catalogs = []*inline.Catalog{catalog}
		cat, err = driver.Run(app, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if same.Cycles != cat.Cycles {
		b.Fatalf("catalog inlining diverges: %d vs %d cycles", cat.Cycles, same.Cycles)
	}
	b.ReportMetric(float64(cat.Cycles), "cycles")
	b.Logf("E9 catalog: same-file %d cycles == catalog %d cycles", same.Cycles, cat.Cycles)
}

// BenchmarkE10StructArray reproduces §10: arrays embedded within
// structures (graphics transforms) vectorize, without strip loops for the
// 4-element rows.
func BenchmarkE10StructArray(b *testing.B) {
	w := bench.Kernel("transform4x4", 1024)
	var res *driver.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = driver.Compile(w.Src, driver.FullOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Report.Vector.VectorStmts < 1 {
		b.Fatalf("struct-array loops did not vectorize: %+v", res.Report.Vector)
	}
	scalar := mustRun(b, w, bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1}, Processors: 1})
	full := mustRun(b, w, bench.Config{Name: "full", Opts: driver.FullOptions(), Processors: 1})
	b.ReportMetric(float64(res.Report.Vector.VectorStmts), "vector-stmts")
	b.ReportMetric(bench.Speedup(scalar, full), "speedup")
	b.Logf("E10 struct arrays: vector stmts=%d, speedup %.2fx", res.Report.Vector.VectorStmts, bench.Speedup(scalar, full))
}

// ----------------------------------------------------------- ablations

// BenchmarkA1IVSubNoSR reproduces §6's warning: induction-variable
// substitution deoptimizes scalar code unless strength reduction undoes
// the damage. The §5.3 pointer-bump loop shows it directly: the source's
// cheap pointer increments become explicit multiplications under ivsub.
func BenchmarkA1IVSubNoSR(b *testing.B) {
	w := bench.Kernel("copyloop", 2048)
	plain := bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1, NoAlias: true}, Processors: 1}
	ivOnly := bench.Config{Name: "ivsub-only", Opts: driver.Options{OptLevel: 1, NoAlias: true, ForceIVSub: true, NoSchedule: true}, Processors: 1}
	repaired := bench.Config{Name: "ivsub+SR", Opts: driver.Options{OptLevel: 1, NoAlias: true, StrengthReduce: true}, Processors: 1}
	var mPlain, mIV, mFix bench.Measurement
	for i := 0; i < b.N; i++ {
		mPlain = mustRun(b, w, plain)
		mIV = mustRun(b, w, ivOnly)
		mFix = mustRun(b, w, repaired)
	}
	if mIV.KernelCycles <= mPlain.KernelCycles {
		b.Logf("note: ivsub alone did not slow this loop (%d vs %d)", mIV.KernelCycles, mPlain.KernelCycles)
	}
	if mFix.KernelCycles >= mIV.KernelCycles {
		b.Fatalf("strength reduction failed to repair ivsub: %d vs %d", mFix.KernelCycles, mIV.KernelCycles)
	}
	b.ReportMetric(float64(mPlain.KernelCycles), "scalar-cycles")
	b.ReportMetric(float64(mIV.KernelCycles), "ivsub-cycles")
	b.ReportMetric(float64(mFix.KernelCycles), "repaired-cycles")
	b.Logf("A1: scalar=%d, ivsub-only=%d, ivsub+strength=%d cycles",
		mPlain.KernelCycles, mIV.KernelCycles, mFix.KernelCycles)
}

// BenchmarkA2Backtracking contrasts the backtracking substitution with the
// single-pass "straightforward" scheme on the §5.3 copy loop.
func BenchmarkA2Backtracking(b *testing.B) {
	w := bench.Kernel("copyloop", 1024)
	var full, simple *driver.Result
	var err error
	for i := 0; i < b.N; i++ {
		full, err = driver.Compile(w.Src, driver.FullOptions())
		if err != nil {
			b.Fatal(err)
		}
		simpleOpts := driver.FullOptions()
		simpleOpts.Straightforward = true
		simple, err = driver.Compile(w.Src, simpleOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(full.Report.Vector.VectorStmts), "vector-stmts-backtracking")
	b.ReportMetric(float64(simple.Report.Vector.VectorStmts), "vector-stmts-simple")
	b.Logf("A2: backtracking vectorized %d stmts, straightforward %d",
		full.Report.Vector.VectorStmts, simple.Report.Vector.VectorStmts)
}

// BenchmarkA3StripLength sweeps the strip length.
func BenchmarkA3StripLength(b *testing.B) {
	w := bench.Kernel("vectoradd", 8192)
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, vl := range []int{8, 32, 128} {
			opts := driver.Options{OptLevel: 1, Inline: true, Vectorize: true, StrengthReduce: true, VL: vl}
			m := mustRun(b, w, bench.Config{Name: fmt.Sprintf("vl%d", vl), Opts: opts, Processors: 1})
			rows = append(rows, fmt.Sprintf("VL=%d:%d", vl, m.KernelCycles))
			b.ReportMetric(float64(m.KernelCycles), fmt.Sprintf("cycles-vl%d", vl))
		}
	}
	b.Logf("A3 strip length: %s", strings.Join(rows, " "))
}

// BenchmarkA4AliasRoutes contrasts §9's three routes to vectorizing a
// pointer-parameter loop: none (serial), -noalias, #pragma safe, and
// inlining.
func BenchmarkA4AliasRoutes(b *testing.B) {
	base := `
float dst[1024], src[1024];
void copyk(float *a, float *b, int n)
{
	int i;
%s	for (i = 0; i < n; i++)
		a[i] = b[i];
}
int main(void)
{
	int i;
	for (i = 0; i < 1024; i++) src[i] = i;
	copyk(dst, src, 1024);
	return 0;
}
`
	plain := fmt.Sprintf(base, "")
	pragma := fmt.Sprintf(base, "#pragma safe\n")
	type route struct {
		name string
		src  string
		opts driver.Options
	}
	routes := []route{
		{"none", plain, driver.Options{OptLevel: 1, Vectorize: true, StrengthReduce: true}},
		{"noalias", plain, driver.Options{OptLevel: 1, Vectorize: true, StrengthReduce: true, NoAlias: true}},
		{"pragma", pragma, driver.Options{OptLevel: 1, Vectorize: true, StrengthReduce: true}},
		{"inline", plain, driver.Options{OptLevel: 1, Inline: true, Vectorize: true, StrengthReduce: true}},
	}
	var counts []string
	for i := 0; i < b.N; i++ {
		counts = counts[:0]
		for _, r := range routes {
			res, err := driver.Compile(r.src, r.opts)
			if err != nil {
				b.Fatal(err)
			}
			counts = append(counts, fmt.Sprintf("%s:%d", r.name, res.Report.Vector.VectorStmts))
			b.ReportMetric(float64(res.Report.Vector.VectorStmts), "vec-"+r.name)
		}
	}
	b.Logf("A4 alias routes (vector stmts): %s", strings.Join(counts, " "))
}

// BenchmarkA5Overlap toggles §6's dependence-informed instruction
// scheduling.
func BenchmarkA5Overlap(b *testing.B) {
	w := bench.Kernel("backsolve", 2048)
	on := bench.Config{Name: "sched", Opts: driver.Options{OptLevel: 1, NoAlias: true, StrengthReduce: true}, Processors: 1}
	offOpts := driver.Options{OptLevel: 1, NoAlias: true, StrengthReduce: true, NoSchedule: true}
	off := bench.Config{Name: "nosched", Opts: offOpts, Processors: 1}
	var mOn, mOff bench.Measurement
	for i := 0; i < b.N; i++ {
		mOn = mustRun(b, w, on)
		mOff = mustRun(b, w, off)
	}
	if mOn.KernelCycles > mOff.KernelCycles {
		b.Fatalf("scheduling hurt: %d vs %d", mOn.KernelCycles, mOff.KernelCycles)
	}
	b.ReportMetric(float64(mOff.KernelCycles), "cycles-nosched")
	b.ReportMetric(float64(mOn.KernelCycles), "cycles-sched")
	b.ReportMetric(bench.Speedup(mOff, mOn), "speedup")
	b.Logf("A5 scheduling: off=%d on=%d cycles (%.2fx)", mOff.KernelCycles, mOn.KernelCycles, bench.Speedup(mOff, mOn))
}

// BenchmarkX1MatrixNest measures the extension benches: the §2
// outer-parallel / inner-vector execution model on a dense matrix update.
func BenchmarkX1MatrixNest(b *testing.B) {
	src := `
float a[128][128], b2[128][128];
void scale(void) {
	int i, j;
	for (i = 0; i < 128; i++)
		for (j = 0; j < 128; j++)
			a[i][j] = b2[i][j] * 2.0f + 1.0f;
}
int main(void) {
	int i, j;
	for (i = 0; i < 128; i++)
		for (j = 0; j < 128; j++)
			b2[i][j] = i + j;
	scale(); ` + bench.KernelMarker + `
	return 0;
}
`
	w := bench.Workload{Name: "matrixnest", Src: src}
	var serial, p1, p4 bench.Measurement
	for i := 0; i < b.N; i++ {
		serial = mustRun(b, w, bench.Config{Name: "scalar", Opts: driver.Options{OptLevel: 1}, Processors: 1})
		p1 = mustRun(b, w, bench.Config{Name: "full p1", Opts: driver.FullOptions(), Processors: 1})
		p4 = mustRun(b, w, bench.Config{Name: "full p4", Opts: driver.FullOptions(), Processors: 4})
	}
	if p4.KernelCycles >= p1.KernelCycles {
		b.Fatalf("nest did not scale: p1=%d p4=%d", p1.KernelCycles, p4.KernelCycles)
	}
	b.ReportMetric(bench.Speedup(serial, p1), "speedup-p1")
	b.ReportMetric(bench.Speedup(serial, p4), "speedup-p4")
	b.Logf("X1 matrix nest: scalar=%d, vector p1=%d (%.1fx), vector+parallel p4=%d (%.1fx)",
		serial.KernelCycles, p1.KernelCycles, bench.Speedup(serial, p1),
		p4.KernelCycles, bench.Speedup(serial, p4))
}

// BenchmarkX2ListParallel measures the §10 extension: linked-list loops
// spread across processors by serializing the pointer chase.
func BenchmarkX2ListParallel(b *testing.B) {
	src := `
struct node { float val; struct node *next; };
struct node pool[600];
void polish(struct node *head)
{
	struct node *p;
	float x, acc;
	p = head;
	while (p) {
		x = p->val;
		acc = 1.0f + x * (1.0f + x * (1.0f + x * (1.0f + x)));
		acc = acc + acc * acc;
		acc = acc / (1.0f + x * x);
		p->val = acc;
		p = p->next;
	}
}
int main(void)
{
	int i;
	for (i = 0; i < 600; i++) {
		pool[i].val = i % 7;
		if (i < 599)
			pool[i].next = &pool[i + 1];
		else
			pool[i].next = (struct node *)0;
	}
	polish(&pool[0]); ` + bench.KernelMarker + `
	return 0;
}
`
	w := bench.Workload{Name: "listloop", Src: src}
	serialOpts := driver.FullOptions()
	parOpts := driver.FullOptions()
	parOpts.ListParallel = true
	var serial, par bench.Measurement
	for i := 0; i < b.N; i++ {
		serial = mustRun(b, w, bench.Config{Name: "serial chase", Opts: serialOpts, Processors: 4})
		par = mustRun(b, w, bench.Config{Name: "list-parallel", Opts: parOpts, Processors: 4})
	}
	if par.KernelCycles >= serial.KernelCycles {
		b.Fatalf("list parallelization lost: %d vs %d", par.KernelCycles, serial.KernelCycles)
	}
	b.ReportMetric(bench.Speedup(serial, par), "speedup-p4")
	b.Logf("X2 list loop (P=4): serial %d, parallel %d cycles (%.2fx)",
		serial.KernelCycles, par.KernelCycles, bench.Speedup(serial, par))
}

// Package bench is the paper's workload table plus the one measurement
// the repository's tests, its evaluation (bench_test.go) and the examples
// share: Run compiles a C workload under a named configuration and
// reports simulated cycles, kernel-only differential cycles, and MFLOPS.
// Host-time and serving numbers are not measured here; they come from
// benchmark/ (bash benchmark/run.sh).
package bench

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/titan"
)

// Workload is a C program whose kernel region is delimited by the marker
// line "/*KERNEL*/" — the harness measures the kernel differentially by
// also running a variant with the kernel line removed, so setup loops do
// not dilute the measurement.
type Workload struct {
	Name string
	Src  string
}

// KernelMarker delimits the measured call in a workload's main.
const KernelMarker = "/*KERNEL*/"

// Measurement is one configuration's result.
type Measurement struct {
	Config     string
	Processors int
	// Total program numbers.
	Cycles int64
	Flops  int64
	// Kernel-only (differential) numbers; equal to the totals when the
	// workload has no marker.
	KernelCycles int64
	KernelFlops  int64
}

// MFLOPS is the kernel's simulated floating-point rate.
func (m Measurement) MFLOPS() float64 {
	if m.KernelCycles <= 0 {
		return 0
	}
	sec := float64(m.KernelCycles) / (titan.ClockMHz * 1e6)
	return float64(m.KernelFlops) / sec / 1e6
}

// Config names an optimization configuration.
type Config struct {
	Name       string
	Opts       driver.Options
	Processors int
}

// Run measures one workload under one configuration.
func Run(w Workload, cfg Config) (Measurement, error) {
	full, err := driver.Run(w.Src, cfg.Opts, cfg.Processors)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s/%s: %w", w.Name, cfg.Name, err)
	}
	m := Measurement{
		Config:       cfg.Name,
		Processors:   cfg.Processors,
		Cycles:       full.Cycles,
		Flops:        full.FlopCount,
		KernelCycles: full.Cycles,
		KernelFlops:  full.FlopCount,
	}
	if strings.Contains(w.Src, KernelMarker) {
		baseSrc := StripKernel(w.Src)
		base, err := driver.Run(baseSrc, cfg.Opts, cfg.Processors)
		if err != nil {
			return Measurement{}, fmt.Errorf("%s/%s baseline: %w", w.Name, cfg.Name, err)
		}
		m.KernelCycles = full.Cycles - base.Cycles
		m.KernelFlops = full.FlopCount - base.FlopCount
		if m.KernelCycles < 1 {
			m.KernelCycles = 1
		}
	}
	return m, nil
}

// StripKernel removes every line containing the marker, producing the
// baseline variant used for kernel-differential measurement.
func StripKernel(src string) string {
	lines := strings.Split(src, "\n")
	out := make([]string, 0, len(lines))
	for _, l := range lines {
		if strings.Contains(l, KernelMarker) {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// Speedup returns base.KernelCycles / m.KernelCycles.
func Speedup(base, m Measurement) float64 {
	if m.KernelCycles == 0 {
		return 0
	}
	return float64(base.KernelCycles) / float64(m.KernelCycles)
}

// ------------------------------------------------------------- workloads

// Backsolve is E1: the §6 recurrence loop.
func Backsolve(n int) Workload {
	return Workload{Name: "backsolve", Src: fmt.Sprintf(`
float x[%d], y[%d], z[%d];

void backsolve(float *xv, float *yv, float *zv, int n)
{
	float *p, *q;
	int i;
	p = &xv[1];
	q = &xv[0];
	for (i = 0; i < n-2; i++)
		p[i] = zv[i] * (yv[i] - q[i]);
}

int main(void)
{
	int i;
	for (i = 0; i < %d; i++) {
		x[i] = 1.0f;
		y[i] = i;
		z[i] = 0.5f;
	}
	backsolve(x, y, z, %d); %s
	return 0;
}
`, n, n, n, n, n, KernelMarker)}
}

// Daxpy is E2: the §9 program.
func Daxpy(n int) Workload {
	return Workload{Name: "daxpy", Src: fmt.Sprintf(`
float a[%d], b[%d], c[%d];

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
	int i;
	for (i = 0; i < %d; i++) {
		b[i] = i;
		c[i] = 1;
	}
	daxpy(a, b, c, 1.0, %d); %s
	return 0;
}
`, n, n, n, n, n, KernelMarker)}
}

// CopyLoop is E3: §5.3's pointer copy.
func CopyLoop(n int) Workload {
	return Workload{Name: "copyloop", Src: fmt.Sprintf(`
float dst[%d], src[%d];

void copyloop(float *a, float *b, int n)
{
	while (n) {
		*a++ = *b++;
		n--;
	}
}

int main(void)
{
	int i;
	for (i = 0; i < %d; i++) src[i] = i;
	copyloop(dst, src, %d); %s
	return 0;
}
`, n, n, n, n, KernelMarker)}
}

// ReverseAxpy is E4: §5.3's Fortran-style auxiliary induction variable.
func ReverseAxpy(n int) Workload {
	return Workload{Name: "reverseaxpy", Src: fmt.Sprintf(`
float a[%d], b[%d];

void raxpy(int n)
{
	int i, iv;
	iv = n - 1;
	for (i = 0; i < n; i++) {
		a[iv] = a[iv] + b[i];
		iv = iv - 1;
	}
}

int main(void)
{
	int i;
	for (i = 0; i < %d; i++) {
		a[i] = 1;
		b[i] = i;
	}
	raxpy(%d); %s
	return 0;
}
`, n, n, n, n, KernelMarker)}
}

// VectorAdd is E7's scaling workload.
func VectorAdd(n int) Workload {
	return Workload{Name: "vectoradd", Src: fmt.Sprintf(`
float a[%d], b[%d], c[%d];

void vadd(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] * 2.0f + c[i];
}

int main(void)
{
	int i;
	for (i = 0; i < %d; i++) {
		b[i] = i;
		c[i] = 1;
	}
	vadd(%d); %s
	return 0;
}
`, n, n, n, n, n, KernelMarker)}
}

// Transform4x4 is E10: arrays embedded in structures (§10 / graphics).
func Transform4x4(verts int) Workload {
	return Workload{Name: "transform4x4", Src: fmt.Sprintf(`
struct xform { float m[4][4]; };
struct vertex { float p[4]; };

struct xform world;
struct vertex verts[%d];

void transform(struct xform *t, struct vertex *v, int n)
{
	int k, i, j;
	float out[4];
	for (k = 0; k < n; k++) {
		for (i = 0; i < 4; i++) {
			float s;
			s = 0;
			for (j = 0; j < 4; j++)
				s = s + t->m[i][j] * v[k].p[j];
			out[i] = s;
		}
		for (i = 0; i < 4; i++)
			v[k].p[i] = out[i];
	}
}

int main(void)
{
	int i, k;
	for (i = 0; i < 4; i++) {
		int j;
		for (j = 0; j < 4; j++)
			world.m[i][j] = 0;
		world.m[i][i] = 2.0f;
	}
	for (k = 0; k < %d; k++)
		for (i = 0; i < 4; i++)
			verts[k].p[i] = k + i;
	transform(&world, verts, %d); %s
	return 0;
}
`, verts, verts, verts, KernelMarker)}
}

// LagRecurrence is the DOACROSS benchmark's first kernel: a lag-3
// autoregressive filter. The dependence cycle runs through the whole
// (single) statement, so the loop neither vectorizes nor distributes,
// but at distance 3 three chains pipeline concurrently: the critical
// path advances three iterations per synchronized handoff. The checksum
// loop makes the exit code data-dependent, so a miscompiled sync shows
// up as an output difference, not just a cycle difference.
func LagRecurrence(n int) Workload {
	return Workload{Name: "lagrec3", Src: fmt.Sprintf(`
float a[%d], b[%d], c[%d];

void lagrec(int n)
{
	int i;
	for (i = 3; i < n; i++)
		a[i] = a[i-3] * 0.5f + b[i] * c[i] + b[i];
}

int main(void)
{
	int i, chk;
	for (i = 0; i < %d; i++) {
		a[i] = i * 0.001f;
		b[i] = 0.5f;
		c[i] = 1.25f;
	}
	lagrec(%d); %s
	chk = 0;
	for (i = 0; i < %d; i++)
		if (a[i] > c[i])
			chk = chk + 1;
	return chk %% 251;
}
`, n, n, n, n, n, KernelMarker, n)}
}

// SmoothDamp is the DOACROSS benchmark's second kernel: an order-8
// damped smoothing recurrence. The distance covers the machine width,
// so under round-robin spreading every processor consumes a value it
// produced itself and codegen's wait elides to program order — DOACROSS
// becomes sync-free parallelism on a loop a DOALL check must reject.
func SmoothDamp(n int) Workload {
	return Workload{Name: "smooth8", Src: fmt.Sprintf(`
float a[%d], b[%d], c[%d];

void smooth(int n)
{
	int i;
	for (i = 8; i < n; i++)
		a[i] = (a[i-8] + b[i] * c[i]) * 0.5f;
}

int main(void)
{
	int i, chk;
	for (i = 0; i < %d; i++) {
		a[i] = i * 0.01f;
		b[i] = 1.5f;
		c[i] = 0.75f;
	}
	smooth(%d); %s
	chk = 0;
	for (i = 0; i < %d; i++)
		if (a[i] > b[i])
			chk = chk + 1;
	return chk %% 251;
}
`, n, n, n, n, n, KernelMarker, n)}
}

// Wavefront is the DOACROSS benchmark's third kernel: a diagonal
// recurrence flattened to one dimension, carried at distance 32 — far
// enough that several processors run whole iterations between waits and
// the tuner can legally coalesce posting (distance >= stride * width).
func Wavefront(n int) Workload {
	return Workload{Name: "wavefront", Src: fmt.Sprintf(`
float a[%d], b[%d], c[%d];

void wave(int n)
{
	int i;
	for (i = 32; i < n; i++)
		a[i] = a[i-32] * 0.9f + b[i] * c[i] + c[i] * 0.5f;
}

int main(void)
{
	int i, chk;
	for (i = 0; i < %d; i++) {
		a[i] = i * 0.01f;
		b[i] = 0.5f;
		c[i] = 1.25f;
	}
	wave(%d); %s
	chk = 0;
	for (i = 0; i < %d; i++)
		if (a[i] > b[i])
			chk = chk + 1;
	return chk %% 251;
}
`, n, n, n, n, n, KernelMarker, n)}
}

// Clip is the masked-execution benchmark's first kernel: the classic
// saturation loop. The guarded store is the only statement, so
// if-conversion turns the whole body into one predicated assignment and
// the vectorizer emits a single masked strip. With inputs ramping past
// the limit, roughly half the lanes are active — the mask utilization
// the stats layer reports should sit near 0.5.
func Clip(n int) Workload {
	return Workload{Name: "clip", Src: fmt.Sprintf(`
float in[%d], out[%d];

void clip(int n, float limit)
{
	int i;
	for (i = 0; i < n; i++)
		if (in[i] > limit)
			out[i] = limit;
}

int main(void)
{
	int i, chk;
	for (i = 0; i < %d; i++) {
		in[i] = i * 0.25f;
		out[i] = in[i];
	}
	clip(%d, %d.0f); %s
	chk = 0;
	for (i = 0; i < %d; i++)
		if (out[i] < in[i])
			chk = chk + 1;
	return chk %% 251;
}
`, n, n, n, n, n/8, KernelMarker, n)}
}

// ThresholdAccum is the masked benchmark's second kernel: a guarded
// read-modify-write. Both the load and the store on acc[] must be
// governed by the mask (an inactive lane must neither fault nor write),
// so it exercises masked loads, masked adds, and the masked store in one
// statement.
func ThresholdAccum(n int) Workload {
	return Workload{Name: "threshacc", Src: fmt.Sprintf(`
float in[%d], acc[%d];

void thresh(int n, float t)
{
	int i;
	for (i = 0; i < n; i++)
		if (in[i] > t)
			acc[i] = acc[i] + in[i];
}

int main(void)
{
	int i, chk;
	for (i = 0; i < %d; i++) {
		in[i] = (i %% 7) * 0.5f;
		acc[i] = 1.0f;
	}
	thresh(%d, 1.5f); %s
	chk = 0;
	for (i = 0; i < %d; i++)
		if (acc[i] > 2.0f)
			chk = chk + 1;
	return chk %% 251;
}
`, n, n, n, n, KernelMarker, n)}
}

// SparseSaxpy is the masked benchmark's third kernel: axpy guarded by a
// nonzero test on a separate mask array — the sparse-update pattern
// masked execution exists for. The guard reads m[], the body reads and
// writes different arrays, so the mask register carries across three
// distinct memory streams.
func SparseSaxpy(n int) Workload {
	return Workload{Name: "sparsesaxpy", Src: fmt.Sprintf(`
float x[%d], y[%d], m[%d];

void ssaxpy(int n, float a)
{
	int i;
	for (i = 0; i < n; i++)
		if (m[i] != 0.0f)
			y[i] = y[i] + a * x[i];
}

int main(void)
{
	int i, chk;
	for (i = 0; i < %d; i++) {
		x[i] = i * 0.125f;
		y[i] = 1.0f;
		m[i] = (i %% 3 == 0) ? 1.0f : 0.0f;
	}
	ssaxpy(%d, 2.0f); %s
	chk = 0;
	for (i = 0; i < %d; i++)
		if (y[i] > 1.0f)
			chk = chk + 1;
	return chk %% 251;
}
`, n, n, n, n, n, KernelMarker, n)}
}

// SyntheticDoall is the execution-engine benchmark's parallel workload:
// reps serial passes over an n-element dependence-free update, each pass
// a doall loop the compiler spreads across the processors (and
// vectorizes within each chunk). n is sized far above the strip length
// so every processor runs many strips per region.
func SyntheticDoall(n, reps int) Workload {
	return Workload{Name: "syntheticdoall", Src: fmt.Sprintf(`
float a[%d], b[%d], c[%d];

void doall(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] * 2.0f + c[i] + a[i] * 0.5f;
}

int main(void)
{
	int i, r;
	for (i = 0; i < %d; i++) {
		a[i] = 0;
		b[i] = i;
		c[i] = 1;
	}
	for (r = 0; r < %d; r++) doall(%d); %s
	return 0;
}
`, n, n, n, n, reps, n, KernelMarker)}
}

// ManyProcs is a translation unit shaped like the benchmark's compile
// units, at a size that simulates quickly: 24 procedures of four loops
// each over shared globals, dealt round-robin from six shapes — guarded
// stores, constant-distance recurrences, 2-level nests, multiply-add
// chains, integer recurrences and loops calling an inlinable helper. main
// runs the first two (one loop each, as the benchmark's called procedures
// have); the rest are compiled and scheduled but never called, which is
// what the disassembly hash freezes.
func ManyProcs() Workload {
	const procs, n = 24, 64
	// chain is a multiply-add chain over b and c with coefficients drawn
	// from multiples of 0.5 by position.
	chain := func(p, l, terms int, ib, ic string) string {
		text := make([]string, terms)
		for t := range text {
			k := float64(1+(p*7+l*5+t*3)%6) / 2
			text[t] = fmt.Sprintf("%s * %.1ff", []string{"b[" + ib + "]", "c[" + ic + "]"}[t%2], k)
		}
		return strings.Join(text, " + ")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "int printf(char *fmt, ...);\n\nfloat a[%d], b[%d], c[%d], d[%d];\nfloat m[8][8];\nint g[%d];\n", n, n, n, n, procs)
	for p := 0; p < procs; p++ {
		loops := 4
		if p < 2 {
			loops = 1
		}
		var helper, body strings.Builder
		locals := "int i;"
		for l := 0; l < loops; l++ {
			dst := []string{"a", "d"}[l%2]
			switch p % 6 {
			case 0:
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\tif (b[i] > %d.0f)\n\t\t\t%s[i] = %s;\n", 2+(p+l)%12, dst, chain(p, l, 4, "i", "i"))
			case 1:
				dist := []int{2, 3, 4, 8}[(p+l)%4]
				fmt.Fprintf(&body, "\tfor (i = %d; i < n; i++)\n\t\t%s[i] = %s[i-%d] + %s;\n", dist, dst, dst, dist, chain(p, l, 4, "i", "i"))
			case 2:
				locals = "int i, j;\n\tfloat s;"
				fmt.Fprintf(&body, "\ts = %d;\n\ts = s * 2.0f + %d;\n", 1+l, p%4)
				fmt.Fprintf(&body, "\tfor (i = 0; i < 8; i++)\n\t\tfor (j = 0; j < 8; j++)\n\t\t\tm[i][j] = %s + s;\n", chain(p, l, 4, "i", "j"))
			case 3:
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\t%s[i] = %s;\n", dst, chain(p, l, 10, "i", "i"))
			case 4:
				locals = "int i, t, u;"
				if l == 0 {
					fmt.Fprintf(&body, "\tt = %d;\n\tt = t * 2 + 1;\n\tu = t - t;\n", 1+p%9)
				}
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\tt = (t * 3 + (i & %d)) & 4095;\n", []int{3, 7, 15}[(p+l)%3])
				if l == loops-1 {
					fmt.Fprintf(&body, "\tg[%d] = t + u;\n", p)
				}
			case 5:
				fmt.Fprintf(&helper, "\nfloat h%d_%d(float x, float y)\n{\n\treturn x * %d.5f + y * %d.0f + x * 0.5f;\n}\n", p, l, l, 1+p%3)
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\t%s[i] = h%d_%d(b[i], c[i]) + h%d_%d(c[i], b[i]);\n", dst, p, l, p, l)
			}
		}
		fmt.Fprintf(&sb, "%s\nvoid p%d(int n)\n{\n\t%s\n%s}\n", helper.String(), p, locals, body.String())
	}
	sb.WriteString("\nint main(void)\n{\n\tint i, chk;\n\tfloat *mp;\n")
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++) {\n\t\tb[i] = (i & 15) + 1;\n\t\tc[i] = (i & 3) * 2;\n\t}\n", n)
	fmt.Fprintf(&sb, "\tp0(%d);\n\tp1(%d);\n\tchk = 0;\n\tmp = &m[0][0];\n", n, n)
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++)\n\t\tchk = (chk + (int)(a[i] * 4.0f) + (int)(d[i] * 4.0f) * 3 + (int)(mp[i] * 4.0f)) %% 65521;\n", n)
	sb.WriteString("\tprintf(\"%d\\n\", chk);\n\treturn chk % 251;\n}\n")
	return Workload{Name: "manyprocs", Src: sb.String()}
}

// RaceProgram builds one source with n independent loop procedures so the
// pass manager's worker pool analyzes many procedures concurrently
// against one shared cache. Inlined at full options, they put 2n loops
// in one main.
func RaceProgram(n int) Workload {
	var sb []byte
	sb = fmt.Appendf(sb, "float a[256], b[256], c[256];\n")
	for i := 0; i < n; i++ {
		sb = fmt.Appendf(sb, `
void k%d(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] * %d.0f + c[i];
	while (n) {
		c[n-1] = a[n-1] + b[n-1];
		n--;
	}
}
`, i, i+1)
	}
	sb = fmt.Appendf(sb, "\nint main(void)\n{\n")
	for i := 0; i < n; i++ {
		sb = fmt.Appendf(sb, "\tk%d(64);\n", i)
	}
	sb = fmt.Appendf(sb, "\treturn 0;\n}\n")
	return Workload{Name: fmt.Sprintf("race%d", n), Src: string(sb)}
}

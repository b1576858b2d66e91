// Package bench is the paper's workloads, the kernels of testdata/*.c
// (read through the root package's table) and two generated units, plus the
// one measurement the repository's tests, its evaluation (bench_test.go)
// and the examples share: Run compiles a C workload under a named configuration and
// reports simulated cycles, kernel-only differential cycles, and MFLOPS.
// Host-time and serving numbers are not measured here; they come from
// benchmark/ (bash benchmark/run.sh).
package bench

import (
	"fmt"
	"strings"

	"repro"
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

// Kernel is the corpus kernel name (testdata/name.c) at size n.
func Kernel(name string, n int) Workload {
	return Workload{Name: name, Src: repro.Source(name, n)}
}

// Corpus is every corpus kernel at its table size, in table order.
func Corpus() []Workload {
	return Suite("")
}

// Suite is the corpus kernels of one suite (every kernel for "") at their
// table sizes, in table order.
func Suite(suite string) []Workload {
	return kernels(suite, func(k repro.Kernel) int { return k.Size })
}

// Small is Suite at the kernels' small sizes.
func Small(suite string) []Workload {
	return kernels(suite, func(k repro.Kernel) int { return k.Small })
}

func kernels(suite string, size func(repro.Kernel) int) []Workload {
	var ws []Workload
	for _, k := range repro.Corpus {
		if suite == "" || k.Suite == suite {
			ws = append(ws, Kernel(k.Name, size(k)))
		}
	}
	return ws
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

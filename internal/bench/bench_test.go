package bench

import (
	"strings"
	"testing"

	"repro/internal/driver"
)

func TestKernelDifferentialMeasurement(t *testing.T) {
	w := Kernel("daxpy", 128)
	if !strings.Contains(w.Src, KernelMarker) {
		t.Fatal("workload missing kernel marker")
	}
	m, err := Run(w, Config{Name: "scalar", Opts: driver.Options{OptLevel: 1}, Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.KernelCycles <= 0 || m.KernelCycles >= m.Cycles {
		t.Errorf("kernel cycles %d of %d total (differential broken?)", m.KernelCycles, m.Cycles)
	}
	if m.KernelFlops <= 0 || m.KernelFlops > m.Flops {
		t.Errorf("kernel flops %d of %d", m.KernelFlops, m.Flops)
	}
	// daxpy does 2 flops per element.
	if m.KernelFlops != 2*128 {
		t.Errorf("kernel flops %d, want 256", m.KernelFlops)
	}
}

func TestStripKernelRemovesOnlyMarkedLines(t *testing.T) {
	src := "a\nb " + KernelMarker + "\nc\n"
	got := StripKernel(src)
	if got != "a\nc\n" {
		t.Errorf("stripKernel: %q", got)
	}
}

func TestWorkloadsCompileEverywhere(t *testing.T) {
	workloads := Small("")
	// The paper's evaluation axes.
	cfgs := []Config{
		{"scalar", driver.Options{OptLevel: 1}, 1},
		{"scalar+sched (§6)", driver.ScalarOptions(), 1},
		{"inline+vector (§5,7)", driver.Options{OptLevel: 1, Inline: true, Vectorize: true, StrengthReduce: true}, 1},
		{"full, P=2 (§2,9)", driver.FullOptions(), 2},
	}
	for _, w := range workloads {
		for _, c := range cfgs {
			if _, err := Run(w, c); err != nil {
				t.Errorf("%s under %s: %v", w.Name, c.Name, err)
			}
		}
	}
}

func TestMFLOPSAndSpeedup(t *testing.T) {
	base := Measurement{KernelCycles: 1600, KernelFlops: 100}
	half := Measurement{KernelCycles: 800, KernelFlops: 100}
	if s := Speedup(base, half); s != 2 {
		t.Errorf("speedup %f", s)
	}
	// 1600 cycles at 16 MHz = 100 µs; 100 flops → 1 MFLOPS.
	if m := base.MFLOPS(); m < 0.99 || m > 1.01 {
		t.Errorf("MFLOPS %f", m)
	}
	var zero Measurement
	if zero.MFLOPS() != 0 {
		t.Error("zero measurement MFLOPS")
	}
}

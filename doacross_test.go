package repro_test

// End-to-end validation of DOACROSS pipelining: each recurrence kernel
// below carries a computable constant-distance dependence, so before this
// change the parallelizer rejected it with par-carried-dep and the loop
// ran serial. Now the loop must compile DOACROSS (a par-doacross remark
// naming the dependence and its distance), the fast
// engine must stay bit-identical to the reference interpreter at every
// processor count, the program output must match the serial compile
// exactly, and at four processors the pipelined kernel must beat the
// serial kernel by the margin the change claims.

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/driver"
)

// doacrossWorkloads is the recurrence suite: a lag-3 autoregressive
// filter, an order-8 damped smoothing pass whose distance covers the
// machine width, and a wavefront flattened to a distance-32 recurrence.
func doacrossWorkloads() []bench.Workload {
	var ws []bench.Workload
	for _, w := range bench.Suite(repro.Doacross) {
		ws = append(ws, bench.Kernel(w.Name, 4096))
	}
	return ws
}

// serialOptions is the DOACROSS experiments' baseline: the full pipeline
// with parallelization off, so the only delta to FullOptions is whether
// the recurrence loop pipelines.
func serialOptions() driver.Options {
	o := driver.FullOptions()
	o.Parallelize = false
	return o
}

// TestDoacrossRemarks pins the compiler verdict: every recurrence kernel
// gets exactly one par-doacross remark carrying the dependence and the
// distance — and no par-carried-dep rejection for the same loop,
// preserving the one-verdict-per-loop invariant.
func TestDoacrossRemarks(t *testing.T) {
	for _, w := range doacrossWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var doacross []diag.Diagnostic
			for _, d := range compileRemarks(t, w.Src) {
				if d.Code == diag.ParDoacross {
					doacross = append(doacross, d)
				}
			}
			if len(doacross) == 0 {
				t.Fatal("no par-doacross remark: recurrence kernel did not pipeline")
			}
			for _, d := range doacross {
				for _, key := range []string{"dep", "distance"} {
					if d.Args[key] == "" {
						t.Errorf("par-doacross remark missing %q arg: %s", key, d)
					}
				}
				if !strings.Contains(d.Args["dep"], "carried") {
					t.Errorf("par-doacross dep arg %q does not name a carried dependence", d.Args["dep"])
				}
			}
		})
	}
}

// TestDoacrossMatchesReferenceAndSerial is the correctness half of the
// acceptance claim: at p=1/2/4 the fast engine's Result is bit-identical
// to the reference interpreter's, and the program's observable behavior
// (exit code and output, both data-dependent checksums here) is identical
// to the serial compile's.
func TestDoacrossMatchesReferenceAndSerial(t *testing.T) {
	for _, w := range doacrossWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := driver.Run(w.Src, serialOptions(), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := driver.Compile(w.Src, driver.FullOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range testProcs {
				runs, err := engineRuns(res.Machine, procs)
				if err != nil {
					t.Fatal(err)
				}
				fast := runs[0].Result
				for _, r := range runs[1:] {
					if r.Result != fast {
						t.Errorf("p=%d: engine %+v != %s %+v", procs, fast, r.name, r.Result)
					}
				}
				if fast.ExitCode != serial.ExitCode || fast.Output != serial.Output {
					t.Errorf("p=%d: exit/output (%d, %q) differs from serial compile (%d, %q)",
						procs, fast.ExitCode, fast.Output, serial.ExitCode, serial.Output)
				}
			}
		})
	}
}

// TestDoacrossSpeedup is the performance half: the kernel-differential
// cycle count at two and at four processors must never exceed the serial
// compile's, and at four at least one kernel must hit the claimed >=1.5x.
func TestDoacrossSpeedup(t *testing.T) {
	serialCfg := bench.Config{Name: "serial", Opts: serialOptions(), Processors: 1}
	best := 0.0
	for _, w := range doacrossWorkloads() {
		ser, err := bench.Run(w, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4} {
			par, err := bench.Run(w, bench.Config{Name: "doacross", Opts: driver.FullOptions(), Processors: procs})
			if err != nil {
				t.Fatal(err)
			}
			sp := bench.Speedup(ser, par)
			t.Logf("%s: serial=%d cycles, doacross p%d=%d cycles, speedup=%.2fx",
				w.Name, ser.KernelCycles, procs, par.KernelCycles, sp)
			if par.KernelCycles > ser.KernelCycles {
				t.Errorf("%s: DOACROSS at p=%d is slower than serial (%d > %d cycles)",
					w.Name, procs, par.KernelCycles, ser.KernelCycles)
			}
			if procs == 4 && sp > best {
				best = sp
			}
		}
	}
	if best < 1.5 {
		t.Errorf("best DOACROSS speedup at p=4 is %.2fx, want >= 1.5x", best)
	}
}

package repro_test

// End-to-end tests for if-conversion and masked vector execution: the
// conditional workloads (clip, threshold-accumulate, sparse saxpy) that
// the vectorizer used to reject must now compile to masked vector code
// that is bit-identical to the scalar compile on both engines at every
// processor count, the compile must say so in its remarks and report,
// and the masked strips must pay for themselves in simulated cycles.

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
)

// maskedWorkloads is the conditional-kernel suite: every loop body is
// guarded by a data-dependent if, which pre-mask vectorization rejected
// with vect-scalar-flow.
func maskedWorkloads() []bench.Workload {
	return bench.Suite(repro.Masked)
}

// TestMaskedWorkloadsVectorize: the full pipeline if-converts and masks
// at least one statement per conditional workload and reports the
// vect-masked verdict.
func TestMaskedWorkloadsVectorize(t *testing.T) {
	for _, w := range maskedWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			ctx := pass.NewContext()
			res, err := driver.CompileWith(w.Src, driver.FullOptions(), ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Vector.MaskedStmts < 1 {
				t.Errorf("no masked vector statements: %+v", res.Report.Vector)
			}
			if res.Report.IfConv.IfsConverted < 1 {
				t.Errorf("no conditionals if-converted: %+v", res.Report.IfConv)
			}
			var sawConverted, sawMasked bool
			for _, d := range ctx.Diags.All() {
				switch d.Code {
				case diag.VectIfConverted:
					sawConverted = true
				case diag.VectMasked:
					sawMasked = true
					if !strings.Contains(d.String(), "masked_stmts") {
						t.Errorf("vect-masked remark lacks masked_stmts arg: %s", d)
					}
				}
			}
			if !sawConverted || !sawMasked {
				t.Errorf("missing remarks: vect-if-converted=%v vect-masked=%v", sawConverted, sawMasked)
			}
		})
	}
}

// TestMaskedBitIdenticalToScalar: for each conditional workload, the
// masked compile's observable behavior (exit code and output) matches
// the scalar -O1 compile, and the fast engine matches the reference
// interpreter at 1, 2, and 4 processors — the acceptance bar for
// predicated execution.
func TestMaskedBitIdenticalToScalar(t *testing.T) {
	for _, w := range maskedWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			scalarRes, err := driver.Compile(w.Src, driver.Options{OptLevel: 1})
			if err != nil {
				t.Fatal(err)
			}
			maskedRes, err := driver.Compile(w.Src, driver.FullOptions())
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := titan.NewMachine(scalarRes.Machine, 1).Run("main")
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range testProcs {
				runs, err := engineRuns(maskedRes.Machine, procs)
				if err != nil {
					t.Fatal(err)
				}
				fast := runs[0].Result
				for _, r := range runs[1:] {
					if r.Result != fast {
						t.Errorf("p=%d: fast engine %+v != %s %+v", procs, fast, r.name, r.Result)
					}
				}
				if fast.ExitCode != scalar.ExitCode || fast.Output != scalar.Output {
					t.Errorf("p=%d: masked exit=%d output=%q, scalar exit=%d output=%q",
						procs, fast.ExitCode, fast.Output, scalar.ExitCode, scalar.Output)
				}
				if fast.MaskOps < 1 {
					t.Errorf("p=%d: run retired no masked ops — masking not actually exercised", procs)
				}
			}
		})
	}
}

// condSetFor discovers the loops of src that still carry a conditional
// at the post-scalarize snapshot (where the loop phases and the tuner
// see them) and pins the given MaskStrategy on each, leaving every
// other loop on its default schedule.
func condSetFor(tb testing.TB, src string, strategy string) *schedule.Set {
	tb.Helper()
	set := schedule.NewSet()
	ctx := pass.NewContext()
	ctx.Snapshot = func(name string, prog *il.Program) {
		if name != pass.PassScalar {
			return
		}
		for _, p := range prog.Procs {
			il.WalkStmts(p.Body, func(s il.Stmt) bool {
				loop, ok := s.(*il.DoLoop)
				if !ok {
					return true
				}
				hasCond := false
				il.WalkStmts(loop.Body, func(inner il.Stmt) bool {
					switch inner.(type) {
					case *il.If, *il.PredAssign:
						hasCond = true
					}
					return true
				})
				if hasCond {
					set.Put(schedule.KeyFor(p.Name, loop.Pos),
						schedule.Schedule{VL: schedule.DefaultVL, Unroll: 1, MaskStrategy: strategy})
				}
				return true
			})
		}
	}
	if _, err := driver.CompileILWith(src, driver.FullOptions(), ctx); err != nil {
		tb.Fatal(err)
	}
	return set
}

// runMasked compiles src with the strategy pinned on its conditional
// loops (empty strategy = nil set, the default masked path) and
// simulates it on one processor.
func runMasked(tb testing.TB, src string, opts driver.Options, strategy string) titan.Result {
	tb.Helper()
	ctx := pass.NewContext()
	if strategy != "" {
		ctx.Schedules = condSetFor(tb, src, strategy)
	}
	res, err := driver.CompileWith(src, opts, ctx)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := titan.NewMachine(res.Machine, 1).Run("main")
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// kernelCycles measures one configuration kernel-differentially (the
// workload minus its /*KERNEL*/ line is measured separately and
// subtracted), returning the kernel cycle count and the full run.
func kernelCycles(tb testing.TB, w bench.Workload, opts driver.Options, strategy string) (int64, titan.Result) {
	tb.Helper()
	full := runMasked(tb, w.Src, opts, strategy)
	base := runMasked(tb, bench.StripKernel(w.Src), opts, strategy)
	kc := full.Cycles - base.Cycles
	if kc < 1 {
		kc = 1
	}
	return kc, full
}

// TestMaskedSpeedup is the performance half: on every conditional
// workload the masked kernel must never run more cycles than the scalar
// -O1 compile's and must really retire masked ops, and at least one
// workload must beat the same loops if-converted but executed with
// scalar branches (branchy-serial) by the claimed >=1.2x.
func TestMaskedSpeedup(t *testing.T) {
	best := 0.0
	for _, w := range maskedWorkloads() {
		w = bench.Kernel(w.Name, 2048)
		scalar, _ := kernelCycles(t, w, driver.Options{OptLevel: 1}, "")
		branchy, _ := kernelCycles(t, w, driver.FullOptions(), schedule.MaskBranchy)
		masked, full := kernelCycles(t, w, driver.FullOptions(), "")
		sp := float64(branchy) / float64(masked)
		t.Logf("%s: scalar=%d cycles, branchy-serial=%d cycles, masked=%d cycles, %.2fx over branchy-serial, %d of %d mask lanes active",
			w.Name, scalar, branchy, masked, sp, full.MaskLanesActive, full.MaskLanesTotal)
		if masked > scalar {
			t.Errorf("%s: masked is slower than scalar (%d > %d cycles)", w.Name, masked, scalar)
		}
		if full.MaskOps < 1 {
			t.Errorf("%s: masked run retired no masked ops — strategy not applied", w.Name)
		}
		if sp > best {
			best = sp
		}
	}
	if best < 1.2 {
		t.Errorf("best masked speedup over branchy-serial is %.2fx, want >= 1.2x", best)
	}
}

package repro_test

// Differential tests for the schedule layer: the refactor that moved the
// loop phases (vectorize, parallelize, strength-reduce) onto explicit
// per-loop Schedules must be a pure re-plumbing. Compiling with no
// schedule set (ctx.Schedules = nil: every loop follows the plan's
// default) must be bit-identical — IL text, generated assembly, phase
// stats, remark stream, and simulated cycles — to compiling with an
// explicit set that pins the plan's default on every loop in the program.
// Any constant that escaped the refactor (a baked-in VL, an implicit
// width, a phase that falls back to schedule.Default() instead of the
// plan's) would show up as a diff on one of these levels.

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
)

// defaultSetFor discovers every DO loop in src as the loop phases will
// see it (the post-scalarize snapshot) and pins the plan's default
// schedule on each, so the explicit-schedule compile exercises the Lookup
// path on every loop rather than falling through on a missing entry.
func defaultSetFor(t *testing.T, src string, opts driver.Options) *schedule.Set {
	t.Helper()
	set := schedule.NewSet()
	def := opts.Plan().Loops
	snapName := pass.PassScalar
	if opts.OptLevel < 1 {
		snapName = pass.SnapshotInput
	}
	ctx := pass.NewContext()
	ctx.Snapshot = func(name string, prog *il.Program) {
		if name != snapName {
			return
		}
		for _, p := range prog.Procs {
			il.WalkStmts(p.Body, func(s il.Stmt) bool {
				if loop, ok := s.(*il.DoLoop); ok {
					set.Put(schedule.KeyFor(p.Name, loop.Pos), def)
				}
				return true
			})
		}
	}
	if _, err := driver.CompileILWith(src, opts, ctx); err != nil {
		t.Fatalf("discovery compile: %v", err)
	}
	return set
}

// compileUnderSchedules compiles and simulates src with the given
// schedule set (nil = every loop at the plan's default), returning the
// artifacts, the rendered remark stream, and the simulation outcome.
func compileUnderSchedules(t *testing.T, src string, opts driver.Options, set *schedule.Set) (*driver.Result, string, titan.Result) {
	t.Helper()
	ctx := pass.NewContext()
	ctx.Schedules = set
	res, err := driver.CompileWith(src, opts, ctx)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var sb strings.Builder
	for _, d := range ctx.Diags.All() {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	m := titan.NewMachine(res.Machine, 4)
	r, err := m.Run("main")
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return res, sb.String(), r
}

// TestScheduleDefaultDifferential: nil schedules vs an explicit
// everything-default set, over every evaluation workload, under the
// scalar and the full configuration and the full one at -vl 64, where the
// plan's default is not schedule.Default().
func TestScheduleDefaultDifferential(t *testing.T) {
	vl64 := driver.FullOptions()
	vl64.VL = 64
	configs := []struct {
		name string
		opts driver.Options
	}{
		{"scalar", driver.ScalarOptions()},
		{"full", driver.FullOptions()},
		{"full-vl64", vl64},
	}
	for _, w := range evalWorkloads() {
		for _, cfg := range configs {
			t.Run(w.Name+"/"+cfg.name, func(t *testing.T) {
				set := defaultSetFor(t, w.Src, cfg.opts)
				if set.Len() == 0 {
					t.Fatal("discovered no loops — the differential would be vacuous")
				}
				legacy, legacyRemarks, lr := compileUnderSchedules(t, w.Src, cfg.opts, nil)
				explicit, explicitRemarks, er := compileUnderSchedules(t, w.Src, cfg.opts, set)

				if got, want := explicit.IL.String(), legacy.IL.String(); got != want {
					t.Errorf("IL differs under explicit default schedules:\n--- explicit ---\n%s\n--- legacy ---\n%s", got, want)
				}
				if got, want := driver.Disassemble(explicit), driver.Disassemble(legacy); got != want {
					t.Error("generated assembly differs under explicit default schedules")
				}
				if explicit.Report.Vector != legacy.Report.Vector {
					t.Errorf("vector stats differ: explicit %+v, legacy %+v", explicit.Report.Vector, legacy.Report.Vector)
				}
				if explicit.Report.Parallel != legacy.Report.Parallel {
					t.Errorf("parallel stats differ: explicit %+v, legacy %+v", explicit.Report.Parallel, legacy.Report.Parallel)
				}
				if explicit.Report.Strength != legacy.Report.Strength {
					t.Errorf("strength stats differ: explicit %+v, legacy %+v", explicit.Report.Strength, legacy.Report.Strength)
				}
				if explicitRemarks != legacyRemarks {
					t.Errorf("remark stream differs:\n--- explicit ---\n%s\n--- legacy ---\n%s", explicitRemarks, legacyRemarks)
				}
				if er.Cycles != lr.Cycles || er.FlopCount != lr.FlopCount ||
					er.ExitCode != lr.ExitCode || er.Output != lr.Output {
					t.Errorf("simulation differs: explicit cycles=%d exit=%d, legacy cycles=%d exit=%d",
						er.Cycles, er.ExitCode, lr.Cycles, lr.ExitCode)
				}
			})
		}
	}
}

// TestScheduleNonDefaultDiffers is the counterweight: an explicit
// non-default schedule must actually change the compile (otherwise the
// differential above proves nothing about the plumbing). Halving the
// strip length on daxpy's vectorized loop must alter the assembly and
// the remark stream while preserving program behavior.
func TestScheduleNonDefaultDiffers(t *testing.T) {
	w := evalWorkloads()[1] // E2 daxpy
	opts := driver.FullOptions()
	set := defaultSetFor(t, w.Src, opts)

	tuned := schedule.NewSet()
	for _, k := range set.Keys() {
		tuned.Put(k, schedule.Schedule{VL: schedule.DefaultVL / 2, Unroll: 1})
	}
	legacy, legacyRemarks, lr := compileUnderSchedules(t, w.Src, opts, nil)
	half, halfRemarks, hr := compileUnderSchedules(t, w.Src, opts, tuned)

	if driver.Disassemble(half) == driver.Disassemble(legacy) {
		t.Error("halving VL produced identical assembly — schedules are not reaching the phases")
	}
	if halfRemarks == legacyRemarks {
		t.Error("halving VL left the remark stream unchanged")
	}
	if !strings.Contains(halfRemarks, "vl=16") {
		t.Errorf("remarks do not surface the explicit schedule:\n%s", halfRemarks)
	}
	if hr.ExitCode != lr.ExitCode || hr.Output != lr.Output {
		t.Errorf("non-default schedule changed program behavior: exit %d vs %d", hr.ExitCode, lr.ExitCode)
	}
}

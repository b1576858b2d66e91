package repro_test

// Differential tests for the split pipeline the autotuner measures
// candidates through: run the schedule-independent head once, clone its
// output, run the tail and the driver's code generation on the clone.
// That must be the compile driver.CompileWith does — the same generated
// program (titan.Program.Equal, the tuner's memo key), the same IL, the
// same report rows in the same order, the same phase stats and remark
// stream — for a nil schedule set and for a non-default one, and running
// the tail on the clone must leave the head's output untouched so the
// next candidate starts from the same IL.

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/pass"
	"repro/internal/schedule"
)

// splitWorkloads is the corpus at its table sizes and the E-series at
// the cache differential's, with a masked and a DOACROSS workload, so
// the ifconvert pass and sync-annotated regions are on the tail's path
// too.
func splitWorkloads() []bench.Workload {
	ws := append(corpusFiles(), evalWorkloads()...)
	return append(ws, bench.Kernel("clip", 256), bench.Kernel("lagrec3", 256))
}

func TestSplitPipelineDifferential(t *testing.T) {
	configs := []struct {
		name string
		opts driver.Options
	}{
		{"scalar", driver.ScalarOptions()},
		{"full", driver.FullOptions()},
		// The loop enumeration's -parallel build, which it compiles split.
		{"parallel", enumParallel},
	}
	for _, w := range splitWorkloads() {
		for _, cfg := range configs {
			defaults := defaultSetFor(t, w.Src, cfg.opts)
			if defaults.Len() == 0 {
				t.Fatalf("%s/%s: discovered no loops", w.Name, cfg.name)
			}
			// Not necessarily legal everywhere: the phases' own guards
			// degrade it to the legal subset, identically on both sides.
			short := schedule.NewSet()
			for _, k := range defaults.Keys() {
				short.Put(k, schedule.Schedule{VL: schedule.DefaultVL / 2, Unroll: 2})
			}
			for _, sc := range []struct {
				name string
				set  *schedule.Set
			}{{"nil", nil}, {"vl16-unroll2", short}} {
				t.Run(w.Name+"/"+cfg.name+"/"+sc.name, func(t *testing.T) {
					wctx := pass.NewContext()
					wctx.Schedules = sc.set
					whole, err := driver.CompileWith(w.Src, cfg.opts, wctx)
					if err != nil {
						t.Fatalf("whole compile: %v", err)
					}

					sctx := pass.NewContext()
					sctx.Schedules = sc.set
					low, err := driver.LowerWith(w.Src, sctx)
					if err != nil {
						t.Fatalf("front end: %v", err)
					}
					head, tail := pass.NewManager(cfg.opts.Plan()).Split(pass.PassScalar)
					if _, err := head.Run(low.IL, sctx); err != nil {
						t.Fatalf("head: %v", err)
					}
					shared := low.IL.String()
					clone := low.IL.Clone()
					rep, err := tail.Run(clone, sctx)
					if err != nil {
						t.Fatalf("tail: %v", err)
					}
					tp, err := driver.Generate(clone, cfg.opts.Plan())
					if err != nil {
						t.Fatalf("codegen: %v", err)
					}

					if !tp.Equal(whole.Machine) {
						t.Error("generated program differs from driver.CompileWith's")
					}
					if got, want := clone.String(), whole.IL.String(); got != want {
						t.Errorf("IL differs:\n--- split ---\n%s\n--- whole ---\n%s", got, want)
					}
					if low.IL.String() != shared {
						t.Error("running the tail on a clone changed the head's output")
					}
					if len(rep.Passes) != len(whole.Report.Passes) {
						t.Fatalf("report has %d rows, whole compile %d", len(rep.Passes), len(whole.Report.Passes))
					}
					for i, row := range rep.Passes {
						want := whole.Report.Passes[i]
						if row.Name != want.Name || row.StmtsBefore != want.StmtsBefore || row.StmtsAfter != want.StmtsAfter {
							t.Errorf("report row %d: %s %d -> %d, whole compile %s %d -> %d", i,
								row.Name, row.StmtsBefore, row.StmtsAfter, want.Name, want.StmtsBefore, want.StmtsAfter)
						}
					}
					wr := whole.Report
					if rep.Vector != wr.Vector || rep.IfConv != wr.IfConv || rep.Parallel != wr.Parallel ||
						rep.Nest != wr.Nest || rep.Strength != wr.Strength || rep.Inline != wr.Inline ||
						!reflect.DeepEqual(rep.Scalar, wr.Scalar) {
						t.Errorf("phase stats differ:\n split %+v\n whole %+v", rep, wr)
					}
					if !reflect.DeepEqual(rep.Diags, wr.Diags) {
						t.Error("remark stream differs")
					}
				})
			}
		}
	}
}

package repro_test

// Differential tests for the arena-backed IL and the parallel front end:
// compiling with per-proc arenas and the deferred-body parallel front end
// (the default) must be observably identical to the serial-heap baseline —
// the classic one-goroutine front end with every procedure's arena
// stripped before optimization, so all rewrites allocate from the GC heap.
// "Identical" is checked at five levels — the optimized IL text, the
// generated assembly, the per-phase stats, the diagnostic/remark stream,
// and the simulated cycle counts — over every E-series workload under both
// the full and the scalar-only configuration. A concurrent-compile hammer
// (run under -race in CI) drives many arena+parallel compiles of the same
// sources at once to surface any shared-state leakage between compiles.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
	"repro/internal/titan"
)

// arenaArtifacts is the full observable surface of one compile.
type arenaArtifacts struct {
	ilDump   string
	asm      string
	remarks  string
	vector   string
	par      string
	strength string
	cycles   int64
	flops    int64
	exit     int64
}

// compileArtifacts compiles src and extracts every comparable artifact.
// workers selects the front-end/pass pool width; stripArenas moves the
// whole optimization pipeline onto the GC heap by detaching each proc's
// arena right after lowering (the pre-arena baseline).
func compileArtifacts(t *testing.T, src string, opts driver.Options, workers int, stripArenas bool) arenaArtifacts {
	t.Helper()
	ctx := pass.NewContext()
	ctx.Workers = workers
	ctx.Analysis = analysis.NewCache()
	if stripArenas {
		ctx.Snapshot = func(name string, prog *il.Program) {
			if name != pass.SnapshotInput {
				return
			}
			for _, p := range prog.Procs {
				p.Arena().Release()
				p.SetArena(nil)
			}
		}
	}
	res, err := driver.CompileWith(src, opts, ctx)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := titan.NewMachine(res.Machine, 4)
	r, err := m.Run("main")
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	var remarks strings.Builder
	for _, d := range res.Report.Diags {
		remarks.WriteString(d.String())
		remarks.WriteByte('\n')
	}
	return arenaArtifacts{
		ilDump:   res.IL.String(),
		asm:      driver.Disassemble(res),
		remarks:  remarks.String(),
		vector:   fmt.Sprintf("%+v", res.Report.Vector),
		par:      fmt.Sprintf("%+v", res.Report.Parallel),
		strength: fmt.Sprintf("%+v", res.Report.Strength),
		cycles:   r.Cycles,
		flops:    r.FlopCount,
		exit:     r.ExitCode,
	}
}

func diffArtifacts(t *testing.T, got, want arenaArtifacts) {
	t.Helper()
	if got.ilDump != want.ilDump {
		t.Errorf("IL differs:\n--- arena+parallel ---\n%s\n--- serial heap ---\n%s", got.ilDump, want.ilDump)
	}
	if got.asm != want.asm {
		t.Errorf("assembly differs:\n--- arena+parallel ---\n%s\n--- serial heap ---\n%s", got.asm, want.asm)
	}
	if got.remarks != want.remarks {
		t.Errorf("remark stream differs:\n--- arena+parallel ---\n%s\n--- serial heap ---\n%s", got.remarks, want.remarks)
	}
	if got.vector != want.vector || got.par != want.par || got.strength != want.strength {
		t.Errorf("phase stats differ: arena+parallel (%s | %s | %s), serial heap (%s | %s | %s)",
			got.vector, got.par, got.strength, want.vector, want.par, want.strength)
	}
	if got.cycles != want.cycles || got.flops != want.flops || got.exit != want.exit {
		t.Errorf("simulation differs: arena+parallel cycles=%d flops=%d exit=%d, serial heap cycles=%d flops=%d exit=%d",
			got.cycles, got.flops, got.exit, want.cycles, want.flops, want.exit)
	}
}

// TestArenaParallelDifferentialIdentical: arenas + parallel front end
// (workers=8) versus the serial-heap baseline (workers=1, arenas
// stripped) over every E-series workload, full and scalar-only.
func TestArenaParallelDifferentialIdentical(t *testing.T) {
	configs := []struct {
		name string
		opts driver.Options
	}{
		{"full", driver.FullOptions()},
		{"scalar", driver.ScalarOptions()},
	}
	for _, w := range evalWorkloads() {
		for _, cfg := range configs {
			t.Run(w.Name+"/"+cfg.name, func(t *testing.T) {
				got := compileArtifacts(t, w.Src, cfg.opts, 8, false)
				want := compileArtifacts(t, w.Src, cfg.opts, 1, true)
				diffArtifacts(t, got, want)
			})
		}
	}
}

// TestArenaParallelManyProcs exercises the deferred-body path on a unit
// with many procedures — enough that the front-end pool actually queues —
// including statics and string literals whose .strN numbering must merge
// back in declaration order. Compared at the IL level (this corpus trips
// a pre-existing codegen limit on parallelized call lists in main, which
// is orthogonal to the front end).
func TestArenaParallelManyProcs(t *testing.T) {
	src := manyProcProgram(24)
	compileIL := func(workers int, strip bool) string {
		ctx := pass.NewContext()
		ctx.Workers = workers
		if strip {
			ctx.Snapshot = func(name string, prog *il.Program) {
				if name != pass.SnapshotInput {
					return
				}
				for _, p := range prog.Procs {
					p.Arena().Release()
					p.SetArena(nil)
				}
			}
		}
		res, err := driver.CompileILWith(src, driver.FullOptions(), ctx)
		if err != nil {
			t.Fatalf("compile (workers=%d strip=%v): %v", workers, strip, err)
		}
		return res.IL.String()
	}
	got := compileIL(8, false)
	want := compileIL(1, true)
	if got != want {
		t.Errorf("IL differs:\n--- arena+parallel ---\n%s\n--- serial heap ---\n%s", got, want)
	}
	// The declaration-order merge must have numbered one string per kernel.
	if !strings.Contains(got, ".str24") || strings.Contains(got, ".str25") {
		t.Errorf("expected exactly 24 interned string globals (.str1...str24)")
	}
}

// manyProcProgram builds n loop procedures plus a main; each procedure
// carries a function static and a distinct string literal so the
// declaration-order global merge is observable in the artifacts.
func manyProcProgram(n int) string {
	var sb strings.Builder
	sb.WriteString("float a[256], b[256], c[256];\nchar *tag;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `
void k%d(int n)
{
	static int calls;
	int i;
	calls = calls + 1;
	tag = "kernel-%d";
	for (i = 0; i < n; i++)
		a[i] = b[i] * %d.0f + c[i];
	while (n) {
		c[n-1] = a[n-1] + b[n-1];
		n--;
	}
}
`, i, i, i+1)
	}
	sb.WriteString("\nint main(void)\n{\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tk%d(64);\n", i)
	}
	sb.WriteString("\treturn 0;\n}\n")
	return sb.String()
}

// TestArenaConcurrentCompileHammer drives many full compiles of the same
// E-series sources at once (each on the arena + parallel configuration)
// and verifies every one matches the precomputed serial-heap artifacts.
// Under -race this doubles as the shared-state check for the interner,
// the deferred-body parser, the per-function checker/lowerer merges, and
// the arena gauge.
func TestArenaConcurrentCompileHammer(t *testing.T) {
	workloads := evalWorkloads()
	want := make([]arenaArtifacts, len(workloads))
	for i, w := range workloads {
		want[i] = compileArtifacts(t, w.Src, driver.FullOptions(), 1, true)
	}
	const rounds = 4
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i := range workloads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got := compileArtifacts(t, workloads[i].Src, driver.FullOptions(), 8, false)
				diffArtifacts(t, got, want[i])
			}(i)
		}
	}
	wg.Wait()
}

// TestArenaReleaseDropsGauge: releasing a compile's IL must return its
// arena bytes to the process-wide gauge (the service exports this gauge
// as arena_bytes_live and releases after artifact encode).
func TestArenaReleaseDropsGauge(t *testing.T) {
	before := il.ArenaBytesLive()
	res, err := driver.Compile(bench.Kernel("backsolve", 256).Src, driver.FullOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	during := il.ArenaBytesLive()
	if during <= before {
		t.Fatalf("gauge did not rise during compile: before=%d during=%d", before, during)
	}
	res.IL.Release()
	after := il.ArenaBytesLive()
	if after != before {
		t.Fatalf("gauge did not return to baseline after Release: before=%d after=%d", before, after)
	}
	res.IL.Release() // idempotent
	if got := il.ArenaBytesLive(); got != after {
		t.Fatalf("second Release moved the gauge: %d -> %d", after, got)
	}
}

// TestParallelFrontEndErrorGolden: a unit whose third, fifth, and sixth
// procedures are each broken (a parse error, a sema error, and a lower
// error respectively) must report exactly the serial front end's first
// diagnostic — same position, same text — no matter how wide the pool is,
// and the structured diagnostic stream must carry it identically.
func TestParallelFrontEndErrorGolden(t *testing.T) {
	src := `int a[64];

void ok1(int n) { int i; for (i = 0; i < n; i++) a[i] = i; }

void bad_parse(int n) { int i; i = ; }

void ok2(int n) { a[0] = n; }

void bad_sema(int n) { undeclared_var = n; }

void bad_lower(int n) { a[1] = n; }

int main(void) { return 0; }
`
	const wantErr = "5:36: expected expression, found ;"
	var wantDiag string
	for round := 0; round < 8; round++ {
		for _, workers := range []int{1, 8} {
			ctx := pass.NewContext()
			ctx.Workers = workers
			ctx.Diags = &diag.Reporter{}
			_, err := driver.CompileWith(src, driver.FullOptions(), ctx)
			if err == nil {
				t.Fatalf("workers=%d: compile unexpectedly succeeded", workers)
			}
			if err.Error() != wantErr {
				t.Fatalf("workers=%d round=%d: error = %q, want %q", workers, round, err.Error(), wantErr)
			}
			var stream strings.Builder
			for _, d := range ctx.Diags.All() {
				stream.WriteString(d.String())
				stream.WriteByte('\n')
			}
			if wantDiag == "" {
				wantDiag = stream.String()
				if !strings.Contains(wantDiag, "5:36") {
					t.Fatalf("diagnostic stream lost the position:\n%s", wantDiag)
				}
			} else if stream.String() != wantDiag {
				t.Fatalf("workers=%d round=%d: diagnostic stream changed:\n--- got ---\n%s\n--- want ---\n%s",
					workers, round, stream.String(), wantDiag)
			}
		}
	}
}

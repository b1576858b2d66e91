package pass

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctype"
	"repro/internal/il"
)

// TestPipelineOrderFull pins the §5.2/§6 pipeline order for the full
// configuration: BuildPipeline is the single place the order is written
// down, and this is its spec.
func TestPipelineOrderFull(t *testing.T) {
	m := NewManager(Options{
		OptLevel: 1, Inline: true, Vectorize: true, Parallelize: true,
		ListParallel: true, StrengthReduce: true,
	}.Plan())
	want := []string{
		PassInline, PassScalar, PassNest, PassIfConvert, PassVectorize,
		PassParallelize, PassListParallel, PassStrength, PassCleanup,
	}
	if got := m.Passes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pipeline order:\n got %v\nwant %v", got, want)
	}
}

func TestPipelineEmptyAtO0(t *testing.T) {
	// Strength reduction, vectorization and parallelization asked for at
	// -O0 run nothing either (they are optimizations), and so nothing is
	// list-scheduled.
	for _, o := range []Options{{OptLevel: 0}, {OptLevel: 0, StrengthReduce: true}, {OptLevel: 0, Vectorize: true, Parallelize: true}} {
		if got := NewManager(o.Plan()).Passes(); len(got) != 0 || o.Plan().Schedule {
			t.Fatalf("plain -O0 pipeline should be empty and unscheduled, got %v (%+v)", got, o.Plan())
		}
	}
}

// TestManagerCatchesSeededCorruption proves the debug-mode verifier fails
// the compile at the pass boundary rather than letting corrupt IL reach
// codegen.
func TestManagerCatchesSeededCorruption(t *testing.T) {
	p := newProc("f", 1)
	p.Body = []il.Stmt{
		&il.Assign{Dst: &il.VarRef{ID: 0, T: ctype.IntType}, Src: &il.VarRef{ID: 99, T: ctype.IntType}},
	}
	_, err := NewManager(Options{OptLevel: 0}.Plan()).Run(progOf(p), nil)
	wantErr(t, err, "IL invalid before pipeline")
	wantErr(t, err, "undefined variable id v99")
}

// TestManagerInstrumentation checks the report rows a pipeline run leaves
// behind: one row per pass, times measured, statement counts consistent.
func TestManagerInstrumentation(t *testing.T) {
	p := newProc("f", 2)
	p.Body = []il.Stmt{
		// A dead temp assignment the scalar pipeline removes.
		&il.Assign{Dst: &il.VarRef{ID: 0, T: ctype.IntType}, Src: ci(1)},
		&il.Return{},
	}
	m := NewManager(Options{OptLevel: 1}.Plan())
	rep, err := m.Run(progOf(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 1 || rep.Passes[0].Name != PassScalar {
		t.Fatalf("want one %s row, got %+v", PassScalar, rep.Passes)
	}
	row := rep.Passes[0]
	if row.StmtsBefore != 2 || row.StmtsAfter != 1 || row.delta() != -1 {
		t.Errorf("stmt accounting: %d -> %d (%+d), want 2 -> 1 (-1)",
			row.StmtsBefore, row.StmtsAfter, row.delta())
	}
	changes := 0
	for _, n := range rep.Scalar {
		changes += n
	}
	if changes == 0 {
		t.Errorf("scalar sub-pass counts not recorded: %v", rep.Scalar)
	}
	out := rep.String()
	for _, frag := range []string{"scalarize", "2 -> 1", "total"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report %q missing %q", out, frag)
		}
	}
}

// TestSnapshotHook checks hook firing order: the lowered IL first, then
// one snapshot per pass.
func TestSnapshotHook(t *testing.T) {
	p := newProc("f", 1)
	p.Body = []il.Stmt{&il.Return{}}
	var names []string
	ctx := NewContext()
	ctx.Snapshot = func(name string, prog *il.Program) { names = append(names, name) }
	if _, err := NewManager(Options{OptLevel: 1}.Plan()).Run(progOf(p), ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{SnapshotInput, PassScalar}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order: got %v, want %v", names, want)
	}
}

// TestSplitIsRun pins Split's contract: head then tail over one program
// and context is the whole pipeline — the same passes, report rows and
// snapshot boundaries, the input verified once (by the head) — wherever
// the cut falls, including before the first pass.
func TestSplitIsRun(t *testing.T) {
	opts := Options{OptLevel: 1, Inline: true, Vectorize: true, Parallelize: true, StrengthReduce: true}
	build := func() *il.Program {
		p := newProc("f", 2)
		p.Body = []il.Stmt{
			&il.Assign{Dst: &il.VarRef{ID: 0, T: ctype.IntType}, Src: ci(1)},
			&il.Return{},
		}
		return progOf(p)
	}
	run := func(ms ...*Manager) (rows, snaps []string, out string) {
		prog := build()
		ctx := NewContext()
		ctx.Snapshot = func(name string, _ *il.Program) { snaps = append(snaps, name) }
		for _, m := range ms {
			if _, err := m.Run(prog, ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range ctx.Report.Passes {
			rows = append(rows, r.Name)
		}
		return rows, snaps, prog.String()
	}
	whole := NewManager(opts.Plan())
	wantRows, wantSnaps, wantOut := run(whole)
	for _, after := range []string{PassScalar, PassVectorize, PassCleanup, SnapshotInput, "no-such-pass"} {
		head, tail := whole.Split(after)
		if got := append(head.Passes(), tail.Passes()...); !reflect.DeepEqual(got, whole.Passes()) {
			t.Errorf("split after %s: passes %v + %v", after, head.Passes(), tail.Passes())
		}
		if n := len(head.Passes()); n > 0 && head.Passes()[n-1] != after {
			t.Errorf("split after %s: head ends with %s", after, head.Passes()[n-1])
		} else if n == 0 && (after == PassScalar || after == PassVectorize || after == PassCleanup) {
			t.Errorf("split after %s: head is empty", after)
		}
		rows, snaps, out := run(head, tail)
		if !reflect.DeepEqual(rows, wantRows) || !reflect.DeepEqual(snaps, wantSnaps) || out != wantOut {
			t.Errorf("split after %s:\n rows  %v\n snaps %v\nwhole pipeline:\n rows  %v\n snaps %v", after, rows, snaps, wantRows, wantSnaps)
		}
	}

	// The tail trusts the head's output the way pass N+1 trusts pass N's:
	// it does not re-verify its input, but it knows whether the
	// vectorizer slot is behind it.
	vec := newProc("f", 0)
	vec.Body = []il.Stmt{&il.VectorAssign{DstBase: ci(4096), DstStride: ci(4), Len: ci(8),
		Elem: ctype.FloatType, RHS: &il.ConstFloat{Val: 1, T: ctype.FloatType}}}
	_, afterVec := whole.Split(PassVectorize)
	if _, err := afterVec.Run(progOf(vec), nil); err != nil {
		t.Errorf("tail after the vectorizer rejects a vector statement: %v", err)
	}
	_, beforeVec := whole.Split(PassScalar)
	_, err := beforeVec.Run(progOf(vec), nil)
	wantErr(t, err, "nest-parallelize")
}

// TestForEachProcOrderAndBounds checks the worker pool returns results in
// Procs order whatever the concurrency, including workers > len(procs).
func TestForEachProcOrderAndBounds(t *testing.T) {
	var procs []*il.Proc
	for i := 0; i < 23; i++ {
		procs = append(procs, newProc(strings.Repeat("p", i+1), 0))
	}
	prog := &il.Program{Procs: procs}
	for _, workers := range []int{1, 2, 4, 64} {
		got := forEachProc(prog, workers, func(p *il.Proc) int { return len(p.Name) })
		for i, n := range got {
			if n != i+1 {
				t.Fatalf("workers=%d: slot %d got %d, want %d", workers, i, n, i+1)
			}
		}
	}
}

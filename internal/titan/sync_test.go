package titan

import (
	"strings"
	"testing"
	"time"
)

// doacrossProg hand-assembles the DOACROSS shape codegen emits for a
// first-order recurrence a[i] = a[i-1] + 1 over n iterations, pipelined
// cyclically across the processors with post/wait on a distance-1
// dependence: each processor posts its iteration number to its own cell
// after the store and waits on its predecessor's cell before the load.
func doacrossProg(n int64) *Program {
	const base = 8192
	instrs := []Instr{
		{Op: OpLdi, Rd: 13, Imm: n - 1}, // limit
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpNproc, Rd: 11},
		{Op: OpLdi, Rd: 21, Imm: 0},
		{Op: OpMov, Rd: 17, Rs1: 10}, // post cell = pid
		// wait cell = (pid - 1 + np) mod np
		{Op: OpAddi, Rd: 14, Rs1: 10, Imm: -1},
		{Op: OpAdd, Rd: 14, Rs1: 14, Rs2: 11},
		{Op: OpRem, Rd: 14, Rs1: 14, Rs2: 11},
		{Op: OpSub, Rd: 18, Rs1: 14, Rs2: 10}, // 0 when waiting on self
		{Op: OpMov, Rd: 12, Rs1: 10},          // i = pid
		// Ltop:
		{Op: OpCmpGt, Rd: 16, Rs1: 12, Rs2: 13},
		{Op: OpBnez, Rs1: 16, Sym: "Lend"},
		{Op: OpBeqz, Rs1: 18, Sym: "Lskipw"}, // self: program order suffices
		{Op: OpAddi, Rd: 15, Rs1: 12, Imm: -1},
		{Op: OpCmpLt, Rd: 16, Rs1: 15, Rs2: 21},
		{Op: OpBnez, Rs1: 16, Sym: "Lskipw"}, // first iteration: no producer
		{Op: OpWait, Rs1: 14, Rs2: 15},
		// Lskipw:
		{Op: OpMuli, Rd: 20, Rs1: 12, Imm: 4},
		{Op: OpAddi, Rd: 20, Rs1: 20, Imm: base},
		{Op: OpLd4, Rd: 22, Rs1: 20, Imm: -4},
		{Op: OpAddi, Rd: 23, Rs1: 22, Imm: 1},
		{Op: OpSt4, Rs1: 20, Rs2: 23},
		{Op: OpPost, Rs1: 17, Rs2: 12}, // publish iteration i
		{Op: OpAdd, Rd: 12, Rs1: 12, Rs2: 11},
		{Op: OpJmp, Sym: "Ltop"},
		// Lend: sentinel so coarsened or finished producers release all
		{Op: OpLdi, Rd: 24, Imm: 1 << 62},
		{Op: OpPost, Rs1: 17, Rs2: 24},
		{Op: OpParEnd},
		{Op: OpLdi, Rd: 20, Imm: base + (n-1)*4},
		{Op: OpLd4, Rd: RegRetInt, Rs1: 20},
		{Op: OpRet},
	}
	return mkProg(instrs, map[string]int{"Ltop": 11, "Lskipw": 18, "Lend": 27})
}

// TestSyncDoacrossDifferential pins the fast engine to the reference on
// a post/wait pipelined recurrence at every processor count.
func TestSyncDoacrossDifferential(t *testing.T) {
	const n = 200
	prog := doacrossProg(n)
	for _, procs := range []int{1, 2, 4} {
		fast, err := NewMachine(prog, procs).Run("main")
		if err != nil {
			t.Fatalf("p=%d fast: %v", procs, err)
		}
		ref, err := NewMachine(prog, procs).RunReference("main")
		if err != nil {
			t.Fatalf("p=%d ref: %v", procs, err)
		}
		if fast != ref {
			t.Errorf("p=%d: fast %+v != ref %+v", procs, fast, ref)
		}
		if fast.ExitCode != n {
			t.Errorf("p=%d: recurrence result %d, want %d", procs, fast.ExitCode, n)
		}
	}
}

// TestSyncDoacrossStalls checks the pipelined run actually charges
// sync-stall cycles at p>1 (the recurrence is a full serial chain, so
// processors must block) and surfaces them per processor.
func TestSyncDoacrossStalls(t *testing.T) {
	res, err := NewMachine(doacrossProg(200), 4).Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.SyncStalls <= 0 {
		t.Errorf("SyncStalls = %d, want > 0", res.SyncStalls)
	}
	var perProc int64
	for _, p := range res.Procs {
		perProc += p.SyncStall
		if p.Busy < 0 || p.SyncStall < 0 || p.JoinIdle < 0 {
			t.Errorf("negative proc stat: %+v", p)
		}
	}
	if perProc != res.SyncStalls {
		t.Errorf("per-proc stalls %d != total %d", perProc, res.SyncStalls)
	}
}

// TestSyncDeterminism runs the pipelined workload repeatedly on the fast
// engine: the goroutine schedule must never leak into the Result.
func TestSyncDeterminism(t *testing.T) {
	prog := doacrossProg(150)
	first, err := NewMachine(prog, 4).Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 10; i++ {
		res, err := NewMachine(prog, 4).Run("main")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res != first {
			t.Fatalf("run %d diverged: %+v != %+v", i, res, first)
		}
	}
}

// TestSyncDeadlock: every processor waits on a cell nothing ever posts.
// Both engines must detect it and name the region, not hang.
func TestSyncDeadlock(t *testing.T) {
	prog := mkProg([]Instr{
		{Op: OpParBegin},
		{Op: OpLdi, Rd: 10, Imm: 0},
		{Op: OpLdi, Rd: 11, Imm: 1},
		{Op: OpWait, Rs1: 10, Rs2: 11},
		{Op: OpParEnd},
		{Op: OpRet},
	}, nil)
	for _, procs := range []int{1, 2, 4} {
		_, errFast := NewMachine(prog, procs).Run("main")
		_, errRef := NewMachine(prog, procs).RunReference("main")
		for name, err := range map[string]error{"fast": errFast, "ref": errRef} {
			if err == nil || !strings.Contains(err.Error(), "sync deadlock in parallel region") {
				t.Errorf("p=%d %s: err = %v, want sync deadlock", procs, name, err)
			}
		}
	}
}

// TestSyncDeadlockAfterSatisfiedWait: processors that waited, were
// released and finished leave nothing behind that keeps the region alive —
// pid 0's wait on a cell nobody posts is still a deadlock on both engines.
func TestSyncDeadlockAfterSatisfiedWait(t *testing.T) {
	prog := mkProg([]Instr{
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpLdi, Rd: 12, Imm: 1},
		{Op: OpBnez, Rs1: 10, Sym: "P"},
		{Op: OpLdi, Rd: 11, Imm: 5},
		{Op: OpWait, Rs1: 11, Rs2: 12}, // never posted
		{Op: OpJmp, Sym: "E"},
		// P: the other processors post their own cell and wait on it.
		{Op: OpPost, Rs1: 10, Rs2: 12},
		{Op: OpWait, Rs1: 10, Rs2: 12},
		// E:
		{Op: OpParEnd},
		{Op: OpRet},
	}, map[string]int{"P": 7, "E": 9})
	for _, procs := range []int{2, 4} {
		_, errFast := NewMachine(prog, procs).Run("main")
		_, errRef := NewMachine(prog, procs).RunReference("main")
		for name, err := range map[string]error{"fast": errFast, "ref": errRef} {
			if err == nil || !strings.Contains(err.Error(), "sync deadlock in parallel region") {
				t.Errorf("p=%d %s: err = %v, want sync deadlock", procs, name, err)
			}
		}
	}
}

// TestSyncFabricPerRegion: a run of two DOACROSS regions, the second on
// the fabric the first left (the fast engine reuses it), matches the
// reference, which gives each region a new one: no post of the first
// region releases a wait of the second.
func TestSyncFabricPerRegion(t *testing.T) {
	rec := doacrossProg(200).Funcs["main"]
	rec.Name = "rec"
	prog := &Program{
		Funcs: map[string]*Func{
			"main": {Name: "main", Instrs: []Instr{
				{Op: OpCall, Sym: "rec"},
				{Op: OpCall, Sym: "rec"},
				{Op: OpRet},
			}},
			"rec": rec,
		},
		DataBase: 4096,
		MemSize:  1 << 20,
	}
	for _, procs := range []int{1, 2, 4} {
		if res := diffRun(t, func() *Program { return prog }, nil, procs); res.ExitCode != 200 {
			t.Errorf("p=%d: recurrence result %d, want 200", procs, res.ExitCode)
		}
	}
}

// TestSyncMalformedOperands: cell indices outside [0, NumSyncCells)
// fault with the named sync access, identically on both engines.
func TestSyncMalformedOperands(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		cell int64
		want string
	}{
		{"post-high", OpPost, NumSyncCells, "(sync post, size 8)"},
		{"post-neg", OpPost, -1, "(sync post, size 8)"},
		{"wait-high", OpWait, NumSyncCells + 7, "(sync wait, size 8)"},
		{"wait-neg", OpWait, -3, "(sync wait, size 8)"},
	}
	for _, tc := range cases {
		prog := mkProg([]Instr{
			{Op: OpParBegin},
			{Op: OpLdi, Rd: 10, Imm: tc.cell},
			{Op: OpLdi, Rd: 11, Imm: 0},
			{Op: tc.op, Rs1: 10, Rs2: 11},
			{Op: OpParEnd},
			{Op: OpRet},
		}, nil)
		_, errFast := NewMachine(prog, 2).Run("main")
		_, errRef := NewMachine(prog, 2).RunReference("main")
		for name, err := range map[string]error{"fast": errFast, "ref": errRef} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: err = %v, want fault %q", tc.name, name, err, tc.want)
			}
		}
		if errFast.Error() != errRef.Error() {
			t.Errorf("%s: fault text diverges: fast %q, ref %q", tc.name, errFast, errRef)
		}
	}
}

// TestSyncOutsideRegion: post/wait are region-only instructions.
func TestSyncOutsideRegion(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want string
	}{
		{OpPost, "post outside parallel region"},
		{OpWait, "wait outside parallel region"},
	} {
		prog := mkProg([]Instr{
			{Op: OpLdi, Rd: 10, Imm: 0},
			{Op: OpLdi, Rd: 11, Imm: 0},
			{Op: tc.op, Rs1: 10, Rs2: 11},
			{Op: OpRet},
		}, nil)
		_, errFast := NewMachine(prog, 2).Run("main")
		_, errRef := NewMachine(prog, 2).RunReference("main")
		for name, err := range map[string]error{"fast": errFast, "ref": errRef} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v %s: err = %v, want %q", tc.op, name, err, tc.want)
			}
		}
	}
}

// TestSyncPlainRegionStats: a sync-free parallel region still reports
// the per-processor busy/idle breakdown, with zero stall cycles.
func TestSyncPlainRegionStats(t *testing.T) {
	prog := mkProg([]Instr{
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpMuli, Rd: 11, Rs1: 10, Imm: 100},
		{Op: OpParEnd},
		{Op: OpRet},
	}, nil)
	for _, procs := range []int{1, 2, 4} {
		fast, err := NewMachine(prog, procs).Run("main")
		if err != nil {
			t.Fatalf("p=%d: %v", procs, err)
		}
		ref, err := NewMachine(prog, procs).RunReference("main")
		if err != nil {
			t.Fatalf("p=%d ref: %v", procs, err)
		}
		if fast != ref {
			t.Errorf("p=%d: fast %+v != ref %+v", procs, fast, ref)
		}
		if fast.SyncStalls != 0 {
			t.Errorf("p=%d: stalls %d in sync-free region", procs, fast.SyncStalls)
		}
		for pid := 0; pid < procs; pid++ {
			if fast.Procs[pid].Busy <= 0 {
				t.Errorf("p=%d: pid %d busy %d, want > 0", procs, pid, fast.Procs[pid].Busy)
			}
		}
	}
}

// TestForkedProcessorPanic: a panic on a forked processor is that
// processor's error, not the end of the process, and a sync region's
// other processors do not wait on it forever. The panic is planted after
// decode: the one instruction only the panicking pid reaches writes a
// register the file does not have, the shape of engine bug a recover must
// contain (the decoder rejects such registers in real programs).
func TestForkedProcessorPanic(t *testing.T) {
	// plant decodes prog and corrupts main's instruction at pc.
	plant := func(prog *Program, pc int) *Program {
		prog.decode()
		prog.decoded["main"].code[pc].rd = 1 << 20
		return prog
	}
	// DOALL: pid 2 panics, the others run the empty region.
	doall := func() *Program {
		return plant(mkProg([]Instr{
			{Op: OpParBegin},
			{Op: OpPid, Rd: 10},
			{Op: OpLdi, Rd: 12, Imm: 2},
			{Op: OpCmpEq, Rd: 13, Rs1: 10, Rs2: 12},
			{Op: OpBeqz, Rs1: 13, Sym: "E"},
			{Op: OpLdi, Rd: 14, Imm: 1}, // pid 2 only
			// E:
			{Op: OpParEnd},
			{Op: OpRet},
		}, map[string]int{"E": 6}), 5)
	}
	// Sync: pid 1 panics before the post that pids 2 and 3 wait on; pid 0
	// leaves at once, so pid 1 is the lowest erroring pid.
	syncRegion := func() *Program {
		return plant(mkProg([]Instr{
			{Op: OpParBegin},
			{Op: OpPid, Rd: 10},
			{Op: OpLdi, Rd: 12, Imm: 1},
			{Op: OpCmpEq, Rd: 13, Rs1: 10, Rs2: 12},
			{Op: OpBnez, Rs1: 13, Sym: "B"},
			{Op: OpBeqz, Rs1: 10, Sym: "E"},
			{Op: OpWait, Rs1: 12, Rs2: 12}, // cell 1 reaching 1: pid 1's post
			{Op: OpJmp, Sym: "E"},
			// B: pid 1
			{Op: OpLdi, Rd: 14, Imm: 1},
			{Op: OpPost, Rs1: 12, Rs2: 12},
			// E:
			{Op: OpParEnd},
			{Op: OpRet},
		}, map[string]int{"B": 8, "E": 10}), 8)
	}
	run := func(name string, prog *Program, want string) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := NewMachine(prog, 4).Run("main")
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want one containing %q", name, err, want)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: the region did not finish", name)
		}
	}
	run("sync", syncRegion(), "processor 1 panicked")
	old := engineHostParallelism
	t.Cleanup(func() { engineHostParallelism = old })
	engineHostParallelism = 1
	run("doall serialized", doall(), "processor 2 panicked")
	engineHostParallelism = MaxProcessors
	run("doall concurrent", doall(), "processor 2 panicked")
}

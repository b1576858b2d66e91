package codegen_test

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/schedule"
	"repro/internal/titan"
)

// The scheduler reorders instructions inside blocks and never moves a
// block: over the programs of the Titan golden corpus compiled at
// FullOptions, it leaves every label's index and every function's length
// as code generation left them.
func TestScheduleLeavesLabels(t *testing.T) {
	srcs := corpus(t)
	opts := driver.FullOptions()
	opts.NoSchedule = true
	for name, src := range srcs {
		res, err := driver.Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tp := res.Machine
		labels, lens := map[string]map[string]int{}, map[string]int{}
		for fn, f := range tp.Funcs {
			labels[fn], lens[fn] = maps.Clone(f.Labels), len(f.Instrs)
		}
		codegen.Schedule(tp)
		for fn, f := range tp.Funcs {
			if len(f.Instrs) != lens[fn] {
				t.Errorf("%s/%s: %d instructions became %d", name, fn, lens[fn], len(f.Instrs))
			}
			if !maps.Equal(f.Labels, labels[fn]) {
				t.Errorf("%s/%s: labels moved:\n got  %v\n want %v", name, fn, f.Labels, labels[fn])
			}
		}
	}
}

// corpus is the corpus kernels at their table sizes and
// benchmark/programs/*.c, keyed by path.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for _, w := range bench.Corpus() {
		srcs["testdata/"+w.Name+".c"] = w.Src
	}
	paths, err := filepath.Glob("../../benchmark/programs/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no programs match benchmark/programs/*.c (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[p] = string(src)
	}
	return srcs
}

// Every DO and do parallel loop is bottom-tested: its one backward branch
// is the compare-and-branch that ends an iteration, and no jmp goes back.
// So an innermost loop whose body is straight-line IL is one block from
// its top label to that branch — no other label and no control op in
// between — and the scheduler overlaps the bump and the test with the
// body. Checked over the corpus's scalar and full builds; a function's
// backward branches, by target, are its IL loops in preorder.
func TestInnermostLoopIsOneBlock(t *testing.T) {
	builds := map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()}
	checked := 0
	for path, src := range corpus(t) {
		for build, opts := range builds {
			res, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", path, build, err)
			}
			for _, p := range res.IL.Procs {
				where := path + " " + build + " " + p.Name
				f := res.Machine.Funcs[p.Name]
				var loops [][]il.Stmt
				il.WalkStmts(p.Body, func(s il.Stmt) bool {
					switch n := s.(type) {
					case *il.DoLoop:
						loops = append(loops, n.Body)
					case *il.DoParallel:
						loops = append(loops, n.Body)
					}
					return true
				})
				type backBranch struct{ top, at int }
				var back []backBranch
				for i, in := range f.Instrs {
					if top, ok := f.Labels[in.Sym]; ok && top <= i && in.Op.Transfers() {
						if in.Op == titan.OpJmp {
							t.Errorf("%s: backward %s at %d", where, in, i)
						}
						back = append(back, backBranch{top, i})
					}
				}
				slices.SortFunc(back, func(a, b backBranch) int { return a.top - b.top })
				if len(back) != len(loops) {
					t.Errorf("%s: %d IL loops, %d backward branches:\n%s", where, len(loops), len(back), f.Disassemble())
					continue
				}
				for k, body := range loops {
					if !straightLine(body) {
						continue
					}
					checked++
					lo, hi := back[k].top, back[k].at
					for i := lo + 1; i < hi; i++ {
						if f.Instrs[i].Op.IsControl() {
							t.Errorf("%s: %s at %d inside the innermost loop %d..%d", where, f.Instrs[i], i, lo, hi)
						}
					}
					for name, at := range f.Labels {
						if lo < at && at <= hi {
							t.Errorf("%s: label %s at %d inside the innermost loop %d..%d", where, name, at, lo, hi)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no innermost straight-line loop in the corpus")
	}
	t.Logf("%d innermost straight-line loops", checked)
}

// straightLine reports whether a loop body is assignments only: no
// nested loop, branch, call or synchronization.
func straightLine(body []il.Stmt) bool {
	for _, s := range body {
		switch s.(type) {
		case *il.Assign, *il.VectorAssign:
		default:
			return false
		}
	}
	return true
}

// The machine never waits for a store's data, and an instruction whose
// operands are late does not hold up one whose operands are ready: in
// `x[i] = i * 0.25f` at titancc's default options the fmul waits six
// cycles on the conversion before it, so the loop's addi goes first. The
// constant 0.25 is loaded once, before the loop.
func TestScheduleIssuesReadyInstrBeforeStalledOne(t *testing.T) {
	const src = `float x[1024];
int main(void) { int i; for (i = 0; i < 1024; i++) x[i] = i * 0.25f; return 0; }`
	res, err := driver.Compile(src, driver.ScalarOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Machine.Funcs["main"]
	fmul := slices.IndexFunc(f.Instrs, func(in titan.Instr) bool { return in.Op == titan.OpFmul })
	addi := slices.IndexFunc(f.Instrs, func(in titan.Instr) bool { return in.Op == titan.OpAddi })
	if fmul < 0 || addi < 0 || addi > fmul {
		t.Errorf("fmul at %d dispatches ahead of the loop's addi at %d:\n%s", fmul, addi, f.Disassemble())
	}
	m := titan.NewMachine(res.Machine, 1)
	defer m.Release()
	r, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 10253 {
		t.Errorf("%d cycles, want 10253", r.Cycles)
	}
}

// FuzzSchedule is the scheduler's legality and timing oracle. Each input
// is decoded into one straight-line block over a 128-byte memory window,
// ended by ret, which is scheduled and then checked four ways. Three read
// none of the scheduler's own tables: the scheduled block is a
// permutation of the original; every pair of instructions that reads
// after a write, writes after a read or a write, or touches memory with a
// store or a fence between them keeps its order; and both orders leave
// the same exit code and memory on the reference engine. The fourth is
// that the scheduler believes the machine: run as the entry, from an idle
// machine, the scheduled block takes exactly the cycles the scheduler's
// scoreboard gives the order it emitted, unless the block is one of the
// departures timingDeparture names.
func FuzzSchedule(f *testing.F) {
	for _, seed := range [][]byte{
		// ldi r10, 3; cvtif f10, r10; fldi f11, 0.25; fmul f12, f10, f11;
		// fst4 f12, 8(r20); addi r10, r10, 1; ld4 r2, 8(r20).
		{3, 0, 1, 131, 32, 0, 1, 22, 1, 129, 26, 2, 0, 1, 20, 2, 2, 8, 1, 1, 9, 14, 0, 2},
		// ldi r10, 7; ldi r11, 9; st4 r10, 0(r20); ld4 r2, 0(r20);
		// st4 r11, 0(r20); ld1 r12, 1(r20).
		{0, 0, 1, 135, 0, 2, 137, 17, 1, 0, 14, 0, 0, 17, 2, 0, 12, 3, 1},
		// VL 8: vld v32; fldi f11, 3; vbcast v64, f11; vcmp.lt m1, v32,
		// v64; vadd.m v0, v32, v64, m1; vst.m v0 off r23; mnot m2, m1;
		// vst v32 as int32.
		{7, 34, 1, 0, 0, 22, 1, 140, 40, 2, 0, 1, 41, 0, 1, 2, 49, 0, 1, 2, 0, 48, 0, 1, 0, 0, 46, 1, 0, 0, 35, 1, 0, 1},
		// Scalar, so timed: ldi r10, 3; cvtif f10, r10; fdiv f11, f10,
		// f10; fdiv f12, f10, f10 (the FP unit busy 12 cycles each);
		// mul r11, r10, r10; fld8 f13, 16(r20); fadd f14, f13, f11;
		// fst8 f14, 24(r20); ld4 r2, 24(r20).
		{0, 0, 1, 131, 32, 0, 1, 27, 1, 0, 0, 27, 2, 0, 0, 4, 2, 1, 1, 19, 3, 2, 24, 4, 3, 1, 21, 4, 3, 14, 0, 6},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		block := fuzzBlock(data)
		sched := slices.Clone(block)
		codegen.Schedule(&titan.Program{Funcs: map[string]*titan.Func{
			"blk": {Name: "blk", Instrs: sched, Labels: map[string]int{}}}})
		pos := positions(t, block, sched)
		for j := range block {
			for i := range j {
				if depends(block[i], block[j]) && pos[i] > pos[j] {
					t.Fatalf("%v (at %d) now follows %v (at %d), which it depends on:\n%s",
						block[i], i, block[j], j, listing(sched))
				}
			}
		}
		want, got := runBlock(t, block, "main"), runBlock(t, sched, "main")
		if got.ExitCode != want.ExitCode || got.Output != want.Output {
			t.Fatalf("scheduled block exits %d leaving memory %x, the original %d leaving %x:\n%s",
				got.ExitCode, got.Output, want.ExitCode, want.Output, listing(sched))
		}
		if timingDeparture(sched) != "" {
			return
		}
		var sb titan.Scoreboard
		est := int64(0)
		for k := range sched {
			est = max(est, sb.Issue(&sched[k], schedule.DefaultVL))
		}
		if run := runBlock(t, sched, "blk").Cycles; run != est {
			t.Fatalf("the scheduled block runs %d cycles from an idle machine, the scheduler's estimate is %d:\n%s",
				run, est, listing(sched))
		}
	})
}

// timingDeparture names how a scheduled block's run departs from the
// scheduler's estimate, "" if it does not. The estimate issues every
// instruction on one scoreboard from an idle machine, ret too: the
// scheduler gives ret a block of its own, but dispatch issues it right
// after the block and charges it nothing else, so continuing the block's
// scoreboard into it is exact. The one departure a fuzzed block can hold:
//   - "vl": an op that reads VL runs at the head's VL of 1..8, and the
//     scheduler issues it at schedule.DefaultVL.
//
// The others the estimate makes (DESIGN.md, "The scheduler's dispatch
// model") cannot occur here: the block is the entry, so the machine is
// idle at its start, and it holds no post, wait or branch.
func timingDeparture(block []titan.Instr) string {
	for _, in := range block {
		refs := in.Refs()
		if slices.Contains(refs.Uses(), titan.Ref{File: titan.VLReg}) {
			return "vl"
		}
	}
	return ""
}

// fuzzWindow is the memory the fuzzed blocks load and store: windowSize
// bytes at the base of the data segment, addressed off r20 and, for
// vectors, r23 = r20 + 64 too.
const (
	fuzzWindow = 4096
	windowSize = 128
)

// fuzzBlock decodes data into a block: a fixed head that points r20 and
// r23 into the window, sets VL to 1..8 from r21 and the vector stride in
// r22, then one instruction per three bytes, ending with ret. Written
// registers are r2 (the exit code) and r10..r16, f10..f17, the vector
// slots 0, 32, 64 and 96 (VL never makes them overlap) and m1..m3.
func fuzzBlock(data []byte) []titan.Instr {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ireg := func() int {
		if r := next() % 8; r > 0 {
			return 9 + r
		}
		return titan.RegRetInt
	}
	freg := func() int { return 10 + next()%8 }
	vreg := func() int { return 32 * (next() % 4) }
	mreg := func() int { return 1 + next()%3 }
	base := func() int { return 20 + 3*(next()%2) }
	offset := func(op titan.Op) int64 { // an aligned offset into the window
		size := map[titan.Op]int{titan.OpLd1: 1, titan.OpSt1: 1, titan.OpLd2: 2, titan.OpSt2: 2, titan.OpFld8: 8, titan.OpFst8: 8}[op]
		if size == 0 {
			size = 4
		}
		return int64(size * (next() % (windowSize / size)))
	}
	block := []titan.Instr{
		{Op: titan.OpLdi, Rd: 20, Imm: fuzzWindow},
		{Op: titan.OpLdi, Rd: 23, Imm: fuzzWindow + 64},
		{Op: titan.OpLdi, Rd: 21, Imm: int64(1 + next()%8)},
		{Op: titan.OpLdi, Rd: 22, Imm: 4},
		{Op: titan.OpVsetl, Rs1: 21},
	}
	for len(data) > 0 && len(block) < 64 {
		op := fuzzOps[next()%len(fuzzOps)]
		in := titan.Instr{Op: op}
		switch op {
		case titan.OpLdi:
			in.Rd, in.Imm = ireg(), int64(next()-128)
		case titan.OpFldi:
			in.Rd, in.FImm = freg(), float64(next()-128)/4
		case titan.OpAddi, titan.OpMuli:
			in.Rd, in.Rs1, in.Imm = ireg(), ireg(), int64(next()%16-8)
		case titan.OpLd1, titan.OpLd2, titan.OpLd4:
			in.Rd, in.Rs1, in.Imm = ireg(), 20, offset(op)
		case titan.OpSt1, titan.OpSt2, titan.OpSt4:
			in.Rs1, in.Rs2, in.Imm = 20, ireg(), offset(op)
		case titan.OpFld4, titan.OpFld8:
			in.Rd, in.Rs1, in.Imm = freg(), 20, offset(op)
		case titan.OpFst4, titan.OpFst8:
			in.Rs1, in.Rs2, in.Imm = 20, freg(), offset(op)
		case titan.OpCvtIF:
			in.Rd, in.Rs1 = freg(), ireg()
		case titan.OpCvtFI, titan.OpFcmpLt, titan.OpFcmpEq, titan.OpFcmpGe:
			in.Rd, in.Rs1, in.Rs2 = ireg(), freg(), freg()
		case titan.OpFadd, titan.OpFsub, titan.OpFmul, titan.OpFdiv, titan.OpFneg, titan.OpFmov:
			in.Rd, in.Rs1, in.Rs2 = freg(), freg(), freg()
		case titan.OpVld, titan.OpVst, titan.OpVldm, titan.OpVstm:
			in.Rd, in.Rs1, in.Rs2, in.Imm = vreg(), base(), 22, []int64{titan.ElemF32, titan.ElemI32}[next()%2]
		case titan.OpVadds, titan.OpVmuls, titan.OpVbcast:
			in.Rd, in.Rs1, in.Rs2 = vreg(), vreg(), freg()
			if op == titan.OpVbcast {
				in.Rs1 = in.Rs2
			}
		case titan.OpVcmpLt, titan.OpVcmpEq:
			in.Rd, in.Rs1, in.Rs2 = mreg(), vreg(), vreg()
		case titan.OpVcmpLes:
			in.Rd, in.Rs1, in.Rs2 = mreg(), vreg(), freg()
		case titan.OpMand, titan.OpMor, titan.OpMnot:
			in.Rd, in.Rs1, in.Rs2 = mreg(), mreg(), mreg()
		case titan.OpVadd, titan.OpVmul, titan.OpVaddm, titan.OpVmulm:
			in.Rd, in.Rs1, in.Rs2 = vreg(), vreg(), vreg()
		default: // integer register-register
			in.Rd, in.Rs1, in.Rs2 = ireg(), ireg(), ireg()
		}
		switch op {
		case titan.OpVldm, titan.OpVstm, titan.OpVaddm, titan.OpVmulm:
			in.Imm |= int64(mreg()) << 8
		}
		block = append(block, in)
	}
	return append(block, titan.Instr{Op: titan.OpRet})
}

// fuzzOps is what fuzzBlock draws from: every class of the opcode table
// that straight-line code outside a parallel region can hold, bar integer
// division, which faults on zero.
var fuzzOps = []titan.Op{
	titan.OpLdi, titan.OpMov, titan.OpAdd, titan.OpSub, titan.OpMul, titan.OpAnd,
	titan.OpXor, titan.OpShl, titan.OpAddi, titan.OpMuli, titan.OpNeg, titan.OpCmpLt,
	titan.OpLd1, titan.OpLd2, titan.OpLd4, titan.OpSt1, titan.OpSt2, titan.OpSt4,
	titan.OpFld4, titan.OpFld8, titan.OpFst4, titan.OpFst8,
	titan.OpFldi, titan.OpFmov, titan.OpFadd, titan.OpFsub, titan.OpFmul, titan.OpFdiv,
	titan.OpFneg, titan.OpFcmpLt, titan.OpFcmpEq, titan.OpFcmpGe, titan.OpCvtIF, titan.OpCvtFI,
	titan.OpVld, titan.OpVst, titan.OpVadd, titan.OpVmul, titan.OpVadds, titan.OpVmuls,
	titan.OpVbcast, titan.OpVcmpLt, titan.OpVcmpEq, titan.OpVcmpLes,
	titan.OpMand, titan.OpMor, titan.OpMnot,
	titan.OpVldm, titan.OpVstm, titan.OpVaddm, titan.OpVmulm,
}

// positions maps each instruction of block to its index in sched, failing
// unless sched holds exactly block's instructions. The k-th copy of an
// instruction maps to its k-th copy: two equal instructions write the same
// register or memory, so they never swap.
func positions(t *testing.T, block, sched []titan.Instr) []int {
	t.Helper()
	at := map[titan.Instr][]int{}
	for k, in := range sched {
		at[in] = append(at[in], k)
	}
	pos := make([]int, len(block))
	for i, in := range block {
		if len(at[in]) == 0 {
			t.Fatalf("%v (at %d) is missing from the scheduled block:\n%s", in, i, listing(sched))
		}
		pos[i], at[in] = at[in][0], at[in][1:]
	}
	for in, left := range at {
		if len(left) > 0 {
			t.Fatalf("the scheduled block has %d more of %v:\n%s", len(left), in, listing(sched))
		}
	}
	return pos
}

// depends reports whether b, later in the block than a, must stay after
// it: b reads what a writes, writes what a reads or writes, or the two
// touch memory and one of them is a store or a fence.
func depends(a, b titan.Instr) bool {
	ra, rb := a.Refs(), b.Refs()
	for _, d := range ra.Defs() {
		if slices.Contains(rb.Uses(), d) || slices.Contains(rb.Defs(), d) {
			return true
		}
	}
	for _, u := range ra.Uses() {
		if slices.Contains(rb.Defs(), u) {
			return true
		}
	}
	ma, mb := a.Op.Mem(), b.Op.Mem()
	orders := func(m titan.MemClass) bool { return m == titan.MemStore || m == titan.MemFence }
	return ma != titan.MemNone && mb != titan.MemNone && (orders(ma) || orders(mb))
}

// runBlock runs block as the function blk on the reference engine from
// entry: blk itself, or a main that calls it, then prints the window byte
// by byte and exits with blk's exit code.
func runBlock(t *testing.T, block []titan.Instr, entry string) titan.Result {
	t.Helper()
	main := []titan.Instr{
		{Op: titan.OpCall, Sym: "blk"},
		{Op: titan.OpMov, Rd: 40, Rs1: titan.RegRetInt},
		{Op: titan.OpLdi, Rd: 42, Imm: fuzzWindow},
	}
	for k := range windowSize {
		main = append(main,
			titan.Instr{Op: titan.OpLd1, Rd: 41, Rs1: 42, Imm: int64(k)},
			titan.Instr{Op: titan.OpArg, Rs1: 41},
			titan.Instr{Op: titan.OpCall, Sym: "putchar"})
	}
	main = append(main, titan.Instr{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: 40}, titan.Instr{Op: titan.OpRet})
	data := make([]byte, windowSize)
	for k := range data {
		data[k] = byte(k*37 + 11)
	}
	m := titan.NewMachine(&titan.Program{
		Funcs: map[string]*titan.Func{
			"main": {Name: "main", Instrs: main, Labels: map[string]int{}},
			"blk":  {Name: "blk", Instrs: block, Labels: map[string]int{}},
		},
		Data: data, DataBase: fuzzWindow, MemSize: 1 << 16,
	}, 1)
	defer m.Release()
	r, err := m.RunReference(entry)
	if err != nil {
		t.Fatalf("%v:\n%s", err, listing(block))
	}
	return r
}

func listing(block []titan.Instr) string {
	return (&titan.Func{Name: "blk", Instrs: block}).Disassemble()
}

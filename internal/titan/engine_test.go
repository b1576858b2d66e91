package titan

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// forceGoroutineRegions makes parallel regions fan out goroutines even
// when the test host has a single core, so the concurrent join path is
// always exercised.
func forceGoroutineRegions(t *testing.T) {
	t.Helper()
	old := engineHostParallelism
	engineHostParallelism = MaxProcessors
	t.Cleanup(func() { engineHostParallelism = old })
}

// diffRun executes the same program on the fast engine and the reference
// interpreter (fresh Machine each, identical seeding) and requires a
// bit-identical Result and final memory image.
func diffRun(t *testing.T, mk func() *Program, seed func(*Machine), procs int) Result {
	t.Helper()
	mf := NewMachine(mk(), procs)
	mr := NewMachine(mk(), procs)
	if seed != nil {
		seed(mf)
		seed(mr)
	}
	rf, errF := mf.runFastEntry("main")
	rr, errR := mr.RunReference("main")
	if (errF == nil) != (errR == nil) {
		t.Fatalf("engine err %v, reference err %v", errF, errR)
	}
	if errF != nil {
		if errF.Error() != errR.Error() {
			t.Fatalf("engine err %q, reference err %q", errF, errR)
		}
		return rf
	}
	if rf != rr {
		t.Fatalf("engine %+v != reference %+v", rf, rr)
	}
	if string(mf.mem) != string(mr.mem) {
		t.Fatal("final memory images differ")
	}
	return rf
}

// TestEngineDifferentialScalar covers the scalar ALU, control flow, and
// calls: a loop computing triangular numbers through a register-windowed
// helper, with compare+branch pairs the decoder fuses.
func TestEngineDifferentialScalar(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Funcs: map[string]*Func{
				"main": {Name: "main", Instrs: []Instr{
					{Op: OpLdi, Rd: 10, Imm: 0},  // i
					{Op: OpLdi, Rd: 11, Imm: 0},  // s
					{Op: OpLdi, Rd: 12, Imm: 50}, // n
					// L: s += add1(i); i++; if i < n goto L
					{Op: OpMov, Rd: RegArg0, Rs1: 10},
					{Op: OpCall, Sym: "add1"},
					{Op: OpAdd, Rd: 11, Rs1: 11, Rs2: RegRetInt},
					{Op: OpAddi, Rd: 10, Rs1: 10, Imm: 1},
					{Op: OpCmpLt, Rd: 13, Rs1: 10, Rs2: 12},
					{Op: OpBnez, Rs1: 13, Sym: "L"},
					{Op: OpMov, Rd: RegRetInt, Rs1: 11},
					{Op: OpRet},
				}, Labels: map[string]int{"L": 3}},
				"add1": {Name: "add1", Instrs: []Instr{
					{Op: OpAddi, Rd: RegRetInt, Rs1: RegArg0, Imm: 1},
					{Op: OpRet},
				}, Labels: map[string]int{}},
			},
			MemSize: 1 << 20,
		}
	}
	res := diffRun(t, mk, nil, 1)
	if res.ExitCode != 50*51/2 {
		t.Errorf("exit %d", res.ExitCode)
	}
}

// TestEngineDifferentialWideMemory covers ld8 and st8, which keep a whole
// 64-bit register, and their fault at the end of memory.
func TestEngineDifferentialWideMemory(t *testing.T) {
	mk := func(addr int64) func() *Program {
		return func() *Program {
			return &Program{Funcs: map[string]*Func{"main": {Name: "main", Instrs: []Instr{
				{Op: OpLdi, Rd: 10, Imm: -1 << 40},
				{Op: OpLdi, Rd: 11, Imm: addr},
				{Op: OpSt8, Rs1: 11, Rs2: 10, Imm: 8},
				{Op: OpLd8, Rd: 12, Rs1: 11, Imm: 8},
				{Op: OpAddi, Rd: 12, Rs1: 12, Imm: 3},
				{Op: OpSt8, Rs1: 11, Rs2: 12, Imm: 16},
				{Op: OpLd8, Rd: RegRetInt, Rs1: 11, Imm: 16},
				{Op: OpRet},
			}, Labels: map[string]int{}}}, MemSize: 1 << 16}
		}
	}
	if res := diffRun(t, mk(4096), nil, 1); res.ExitCode != -1<<40+3 {
		t.Errorf("exit %d, want %d", res.ExitCode, int64(-1<<40+3))
	}
	diffRun(t, mk(1<<16-12), nil, 1) // both engines fault alike
}

// TestEngineDifferentialVector covers the bulk kernels against the
// per-element reference: contiguous and strided f32/f64/i32 loads and
// stores, vector-vector and vector-scalar arithmetic, vmov/vbcast, and
// overlapping register windows (the forward-order aliasing case).
func TestEngineDifferentialVector(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: 32},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: 4096}, // f32 array
			{Op: OpLdi, Rd: 11, Imm: 8192}, // f64 array
			{Op: OpLdi, Rd: 12, Imm: 4},    // f32 stride
			{Op: OpLdi, Rd: 13, Imm: 8},    // f64 stride
			{Op: OpLdi, Rd: 14, Imm: 16},   // strided
			{Op: OpFldi, Rd: 20, FImm: 1.5},

			{Op: OpVld, Rd: 0, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpVld, Rd: 64, Rs1: 11, Rs2: 13, Imm: ElemF64},
			{Op: OpVld, Rd: 128, Rs1: 10, Rs2: 14, Imm: ElemI32},
			{Op: OpVadd, Rd: 192, Rs1: 0, Rs2: 64},
			{Op: OpVmul, Rd: 256, Rs1: 192, Rs2: 128},
			{Op: OpVdiv, Rd: 320, Rs1: 256, Rs2: 64},
			{Op: OpVadds, Rd: 384, Rs1: 320, Rs2: 20},
			{Op: OpVsubsr, Rd: 448, Rs1: 384, Rs2: 20},
			{Op: OpVdivsr, Rd: 512, Rs1: 384, Rs2: 20},
			// Overlapping windows: vmov and vadd where dst overlaps src.
			{Op: OpVmov, Rd: 8, Rs1: 0},
			{Op: OpVadd, Rd: 4, Rs1: 0, Rs2: 8},
			{Op: OpVbcast, Rd: 576, Rs1: 20},
			// Store back, contiguous and strided.
			{Op: OpVst, Rd: 448, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpVst, Rd: 512, Rs1: 11, Rs2: 13, Imm: ElemF64},
			{Op: OpVst, Rd: 4, Rs1: 10, Rs2: 14, Imm: ElemI32},
			{Op: OpRet},
		}, nil)
	}
	seed := func(m *Machine) {
		for i := int64(0); i < 130; i++ {
			putF32(m.mem, 4096+4*i, float32(i)*0.5+1)
		}
		for i := int64(0); i < 32; i++ {
			binaryPutF64(m.mem, 8192+8*i, float64(i)*1.25+2)
		}
	}
	res := diffRun(t, mk, seed, 1)
	if res.FlopCount == 0 {
		t.Error("no flops counted")
	}
}

// TestEngineDifferentialVRFWrap drives vector ops whose register windows
// wrap around the end of the register file, exercising the slow paths.
func TestEngineDifferentialVRFWrap(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: 32},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: 4096},
			{Op: OpLdi, Rd: 12, Imm: 4},
			{Op: OpFldi, Rd: 20, FImm: 0.25},
			{Op: OpVld, Rd: VRFWords - 5, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpVadds, Rd: VRFWords - 17, Rs1: VRFWords - 5, Rs2: 20},
			{Op: OpVmov, Rd: VRFWords - 9, Rs1: VRFWords - 17},
			{Op: OpVbcast, Rd: VRFWords - 3, Rs1: 20},
			{Op: OpVadd, Rd: 100, Rs1: VRFWords - 9, Rs2: VRFWords - 3},
			{Op: OpVst, Rd: 100, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpRet},
		}, nil)
	}
	seed := func(m *Machine) {
		for i := int64(0); i < 32; i++ {
			putF32(m.mem, 4096+4*i, float32(i)+1)
		}
	}
	diffRun(t, mk, seed, 1)
}

// maskedFlags is where maskedOps's lane flags live, above the data it
// seeds.
const maskedFlags = 4096 + 64<<10

// maskCmps are the compares maskedOps can set its mask with, each with
// the comparand that holds for a flag of 1 and fails for a flag of 2.
// vcmp.nes is first: the fuzz corpus's compare.
var maskCmps = []struct {
	op Op
	c  float64
}{
	{OpVcmpNes, 2}, {OpVcmpLts, 2}, {OpVcmpLes, 1}, {OpVcmpEqs, 1},
	{OpVcmpNe, 2}, {OpVcmpLt, 2}, {OpVcmpLe, 1}, {OpVcmpEq, 1},
}

// maskedOps is a masked strip of vl lanes on one processor: lane k of mask
// register 1 is bit k%64 of mask (set from flags in memory by vld and the
// compare maskCmps[cmp], against a scalar or its broadcast), then vld.m of
// element kind from base + k·stride into slot, the masked arithmetic op
// (vadd.m … vdiv.m) of it and the flags, and vst.m back — what the engine
// runs as slab kernels or, where a lane could fault or the window wraps
// the file, as the reference walk. seedMasked is its memory.
func maskedOps(kind, base, stride, vl int64, mask uint64, slot, cmp int, arith Op) func() *Program {
	const bcast = MaxVL // the broadcast comparand, past the flags
	mc := maskCmps[cmp]
	rs2 := 1
	if opTable[mc.op].rs2 == rV {
		rs2 = bcast
	}
	return func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: vl},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: maskedFlags},
			{Op: OpLdi, Rd: 11, Imm: 4},
			{Op: OpVld, Rd: 0, Rs1: 10, Rs2: 11, Imm: ElemF32},
			{Op: OpFldi, Rd: 1, FImm: mc.c},
			{Op: OpVbcast, Rd: bcast, Rs1: 1},
			{Op: mc.op, Rd: 1, Rs1: 0, Rs2: rs2},
			{Op: OpLdi, Rd: 12, Imm: base},
			{Op: OpLdi, Rd: 13, Imm: stride},
			{Op: OpVldm, Rd: slot, Rs1: 12, Rs2: 13, Imm: maskImm(kind&0xff, 1)},
			{Op: arith, Rd: slot, Rs1: slot, Rs2: 0, Imm: maskImm(0, 1)},
			{Op: OpVstm, Rd: slot, Rs1: 12, Rs2: 13, Imm: maskImm(kind&0xff, 1)},
			{Op: OpRet},
		}, nil)
	}
}

func seedMasked(mask uint64) func(*Machine) {
	return func(m *Machine) {
		for a := int64(4096); a < maskedFlags; a += 4 {
			putF32(m.mem, a, float32(a%97)-40)
		}
		for k := int64(0); k < MaxVL; k++ {
			putF32(m.mem, maskedFlags+4*k, float32(2-mask>>(k%64)&1))
		}
	}
}

// TestEngineDifferentialMasked holds the masked slab kernels to the
// reference walk: partial masks over every element kind and forward,
// backward and zero strides, set by each vector-vector and vector-scalar
// compare, strips crossing a mask word, faults at the top of memory on
// the first and on a later active lane, all-false masks over addresses no
// lane may touch, and windows wrapping the file.
func TestEngineDifferentialMasked(t *testing.T) {
	const top = 1 << 20 // mkProg's MemSize
	sparse := uint64(1)<<63 | 1<<40 | 1<<2
	arith := []Op{OpVaddm, OpVsubm, OpVmulm, OpVdivm}
	for i, kind := range []int64{ElemF32, ElemF64, ElemI32} {
		w := elemWidth(kind)
		for j, stride := range []int64{w, -w, 0, 3 * w} {
			for _, mask := range []uint64{0x5555555555555555, 1, sparse} {
				base := int64(8192)
				if stride < 0 {
					base = 40000
				}
				op := arith[(i+j)%len(arith)]
				cmp := (4*i + j) % len(maskCmps)
				diffRun(t, maskedOps(kind, base, stride, 100, mask, 64, cmp, op), seedMasked(mask), 1)
			}
		}
	}
	for _, tc := range []struct {
		name         string
		base, stride int64
		vl           int64
		mask         uint64
		slot         int
		fault        bool // at lane 3's address, the top of memory
	}{
		// Lanes 3.. are past the top of memory.
		{"fault on the first active lane", top - 12, 4, 8, 0b1000, 64, true},
		{"fault on a later active lane", top - 12, 4, 8, 0b1001, 64, true},
		{"active lanes below the top", top - 12, 4, 8, 0b0111, 64, false},
		{"all-false past the top", top + 4096, 4, 100, 0, 64, false},
		{"all-false at a negative stride", 64, -4096, 100, 0, 64, false},
		{"window wraps the file", 8192, 4, 100, 0x0f0f0f0f0f0f0f0f, VRFWords - 10, false},
	} {
		prog := maskedOps(ElemF32, tc.base, tc.stride, tc.vl, tc.mask, tc.slot, 0, OpVmulm)
		diffRun(t, prog, seedMasked(tc.mask), 1)
		m := NewMachine(prog(), 1)
		seedMasked(tc.mask)(m)
		before := string(m.mem)
		_, err := m.Run("main")
		var f *Fault
		if tc.fault && (!errors.As(err, &f) || f.Addr != top) || !tc.fault && err != nil {
			t.Errorf("%s: err %v, want a fault at %d: %v", tc.name, err, int64(top), tc.fault)
		}
		if tc.mask == 0 && string(m.mem) != before {
			t.Errorf("%s: an all-false strip changed memory", tc.name)
		}
	}
}

// FuzzMaskedOps runs maskedOps over arbitrary operands on both engines:
// the same Result and final memory, or the same error text. arith picks
// the arithmetic op, mod 4, and the mask's compare, arith/4 mod 8.
func FuzzMaskedOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, base, stride, vl int64, mask uint64, slot int, arith uint8) {
		op := OpVaddm + Op(arith%4)
		cmp := int(arith/4) % len(maskCmps)
		diffRun(t, maskedOps(kind, base, stride, vl, mask, slot, cmp, op), seedMasked(mask), 1)
	})
}

// parallelCyclicProg writes i into slot i of a 256-element array,
// iterations cyclically distributed over the processors, then each
// processor prints its pid once.
func parallelCyclicProg() *Program {
	instrs := []Instr{
		{Op: OpLdi, Rd: 20, Imm: 4096}, // fmt "%d\n" placed by seed
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpNproc, Rd: 11},
		{Op: OpMov, Rd: 12, Rs1: 10},
		// L: if i >= 256 goto E
		{Op: OpLdi, Rd: 13, Imm: 256},
		{Op: OpCmpGe, Rd: 14, Rs1: 12, Rs2: 13},
		{Op: OpBnez, Rs1: 14, Sym: "E"},
		{Op: OpMuli, Rd: 15, Rs1: 12, Imm: 4},
		{Op: OpAddi, Rd: 15, Rs1: 15, Imm: 8192},
		{Op: OpSt4, Rs1: 15, Rs2: 12},
		{Op: OpAdd, Rd: 12, Rs1: 12, Rs2: 11},
		{Op: OpJmp, Sym: "L"},
		// E: printf("%d\n", pid)
		{Op: OpArg, Rs1: 20},
		{Op: OpArg, Rs1: 10},
		{Op: OpCall, Sym: "printf"},
		{Op: OpParEnd},
		{Op: OpRet},
	}
	return mkProg(instrs, map[string]int{"L": 5, "E": 13})
}

func seedPidFmt(m *Machine) {
	copy(m.mem[4096:], "%d\n\x00")
}

// TestEngineDifferentialParallel checks the goroutine-backed regions
// against the serialized reference at every processor count: identical
// cycles (max-delta + fork overhead join), identical pooled
// instruction/flop counts, identical memory, and identical output — the
// per-pid printf lines must appear in pid order.
func TestEngineDifferentialParallel(t *testing.T) {
	// Both region execution strategies must match the reference: the
	// goroutine fan-out and the single-core serialized fallback.
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"goroutines", MaxProcessors}, {"serialized", 1}} {
		t.Run(mode.name, func(t *testing.T) {
			old := engineHostParallelism
			engineHostParallelism = mode.parallelism
			t.Cleanup(func() { engineHostParallelism = old })
			for procs := 1; procs <= MaxProcessors; procs++ {
				res := diffRun(t, parallelCyclicProg, seedPidFmt, procs)
				var want strings.Builder
				for pid := 0; pid < procs; pid++ {
					fmt.Fprintf(&want, "%d\n", pid)
				}
				if res.Output != want.String() {
					t.Errorf("procs=%d output %q, want %q", procs, res.Output, want.String())
				}
			}
		})
	}
}

// TestEngineDeterminism runs the 4-processor parallel workload many
// times and requires every Result to be identical: goroutine scheduling
// must not leak into simulated time or output.
func TestEngineDeterminism(t *testing.T) {
	forceGoroutineRegions(t)
	var first Result
	for i := 0; i < 10; i++ {
		m := NewMachine(parallelCyclicProg(), 4)
		seedPidFmt(m)
		res, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res != first {
			t.Fatalf("run %d: %+v != first %+v", i, res, first)
		}
	}
}

// TestEngineConcurrentSimulations runs many independent simulations of
// one shared Program (sharing its decode cache), each with parallel
// regions fanning out goroutines, under the race detector.
func TestEngineConcurrentSimulations(t *testing.T) {
	forceGoroutineRegions(t)
	prog := parallelCyclicProg()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	results := make([]Result, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := NewMachine(prog, 1+i%MaxProcessors)
			seedPidFmt(m)
			results[i], errs[i] = m.Run("main")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sim %d: %v", i, err)
		}
		if i >= MaxProcessors {
			if results[i] != results[i-MaxProcessors] {
				t.Errorf("sim %d result differs from sim %d at same processor count", i, i-MaxProcessors)
			}
		}
	}
}

// TestScalarFault checks the descriptive fault for out-of-range scalar
// accesses on both engines.
func TestScalarFault(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 10, Imm: -4},
			{Op: OpLd4, Rd: 11, Rs1: 10},
			{Op: OpRet},
		}, nil)
	}
	for _, run := range []struct {
		name string
		do   func(*Machine) (Result, error)
	}{
		{"engine", func(m *Machine) (Result, error) { return m.Run("main") }},
		{"reference", func(m *Machine) (Result, error) { return m.RunReference("main") }},
	} {
		_, err := run.do(NewMachine(mk(), 1))
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: got %v, want *Fault", run.name, err)
		}
		if f.Addr != -4 || f.Size != 4 || f.Kind != "load" || f.Func != "main" || f.PC != 1 {
			t.Errorf("%s: fault %+v", run.name, f)
		}
		if want := "titan: fault at addr=-4 (load, size 4) in main+1"; err.Error() != want {
			t.Errorf("%s: message %q, want %q", run.name, err, want)
		}
	}
}

// TestStridedVectorFault checks that a strided vector store running off
// the end of memory faults with the failing element's address on both
// engines, identically.
func TestStridedVectorFault(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: 32},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: 1<<20 - 64}, // near the top of memory
			{Op: OpLdi, Rd: 12, Imm: 16},
			{Op: OpVst, Rd: 0, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpRet},
		}, nil)
	}
	_, errF := NewMachine(mk(), 1).Run("main")
	_, errR := NewMachine(mk(), 1).RunReference("main")
	var f *Fault
	if !errors.As(errF, &f) {
		t.Fatalf("engine: got %v, want *Fault", errF)
	}
	if f.Kind != "vector store" || f.Func != "main" || f.PC != 4 {
		t.Errorf("fault %+v", f)
	}
	// First failing element: base + k*stride with base+4 > len.
	if wantAddr := int64(1<<20 - 64 + 4*16); f.Addr != wantAddr {
		t.Errorf("fault addr %d, want %d", f.Addr, wantAddr)
	}
	if errR == nil || errF.Error() != errR.Error() {
		t.Errorf("engine fault %q != reference fault %q", errF, errR)
	}
}

// TestCstringFault checks that printf with a bad format pointer faults
// instead of silently printing nothing, attributed to the call site.
func TestCstringFault(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 10, Imm: -1},
			{Op: OpArg, Rs1: 10},
			{Op: OpCall, Sym: "printf"},
			{Op: OpRet},
		}, nil)
	}
	_, errF := NewMachine(mk(), 1).Run("main")
	_, errR := NewMachine(mk(), 1).RunReference("main")
	var f *Fault
	if !errors.As(errF, &f) {
		t.Fatalf("engine: got %v, want *Fault", errF)
	}
	if f.Kind != "cstring" || f.Addr != -1 || f.Func != "main" || f.PC != 2 {
		t.Errorf("fault %+v", f)
	}
	if errR == nil || errF.Error() != errR.Error() {
		t.Errorf("engine fault %q != reference fault %q", errF, errR)
	}
}

// TestEngineUnknownLabelLazy mirrors the reference: an unknown branch
// label is a runtime error only when the branch is taken, so dead code
// with a bad label never fires.
func TestEngineUnknownLabelLazy(t *testing.T) {
	dead := mkProg([]Instr{
		{Op: OpLdi, Rd: 10, Imm: 1},
		{Op: OpBeqz, Rs1: 10, Sym: "nowhere"}, // never taken
		{Op: OpLdi, Rd: RegRetInt, Imm: 7},
		{Op: OpRet},
	}, nil)
	res, err := NewMachine(dead, 1).Run("main")
	if err != nil || res.ExitCode != 7 {
		t.Fatalf("dead bad label: res %+v err %v", res, err)
	}
	taken := mkProg([]Instr{
		{Op: OpJmp, Sym: "nowhere"},
		{Op: OpRet},
	}, nil)
	if _, err := NewMachine(taken, 1).Run("main"); err == nil || !strings.Contains(err.Error(), `unknown label "nowhere"`) {
		t.Fatalf("taken bad label: err %v", err)
	}
}

// maskedLoopProg runs n partially masked read-modify-write strips (vld.m,
// vadd.m, vst.m under iota < 2, two lanes of four).
func maskedLoopProg(n int64) *Program {
	return mkProg(append(iotaProgPrefix(),
		Instr{Op: OpFldi, Rd: 3, FImm: 2},
		Instr{Op: OpVcmpLts, Rd: 0, Rs1: 0, Rs2: 3},
		Instr{Op: OpLdi, Rd: 20, Imm: n},
		// L:
		Instr{Op: OpVldm, Rd: 200, Rs1: 13, Rs2: 12, Imm: maskImm(ElemF32, 0)},
		Instr{Op: OpVaddm, Rd: 200, Rs1: 200, Rs2: 0, Imm: maskImm(0, 0)},
		Instr{Op: OpVstm, Rd: 200, Rs1: 13, Rs2: 12, Imm: maskImm(ElemF32, 0)},
		Instr{Op: OpAddi, Rd: 20, Rs1: 20, Imm: -1},
		Instr{Op: OpBnez, Rs1: 20, Sym: "L"},
		Instr{Op: OpRet},
	), map[string]int{"L": len(iotaProgPrefix()) + 3})
}

// regionLoopProg enters a region n times; each processor stores its pid
// to a word of its own and posts it, so every entry resets the fabric.
func regionLoopProg(n int64) *Program {
	return mkProg([]Instr{
		{Op: OpLdi, Rd: 20, Imm: n},
		// L:
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpMuli, Rd: 11, Rs1: 10, Imm: 4},
		{Op: OpSt4, Rs1: 11, Rs2: 10, Imm: 8192},
		{Op: OpPost, Rs1: 10, Rs2: 20},
		{Op: OpParEnd},
		{Op: OpAddi, Rd: 20, Rs1: 20, Imm: -1},
		{Op: OpBnez, Rs1: 20, Sym: "L"},
		{Op: OpRet},
	}, map[string]int{"L": 1})
}

// TestEngineParallelRegionAllocs: what a run allocates is its regions'
// goroutines (one closure per go statement), their printf output and the
// Result's — the contexts, the DOACROSS fabric and the join's WaitGroup
// are the machine's, recycled with it, on both engines. So on a released
// machine a run allocates the same at n and 8n trips or region entries:
// nothing per iteration, per wait, per post, per masked lane or, on the
// reference engine, per region or per parked wait. The fast engine's
// regions are held to trips only, since each entry starts goroutines.
func TestEngineParallelRegionAllocs(t *testing.T) {
	forceGoroutineRegions(t)
	fast := func(m *Machine) (Result, error) { return m.Run("main") }
	ref := func(m *Machine) (Result, error) { return m.RunReference("main") }
	allocs := func(prog *Program, procs int, run func(*Machine) (Result, error)) float64 {
		return testing.AllocsPerRun(20, func() {
			m := NewMachine(prog, procs)
			seedPidFmt(m)
			if _, err := run(m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		})
	}
	// Three goroutines, four printf lines and their concatenation; the
	// old map-based scoreboard cost thousands.
	if a := allocs(parallelCyclicProg(), 4, fast); a > 40 {
		t.Errorf("a 4-processor region with printf allocates %v objects per run", a)
	}
	for _, tc := range []struct {
		name  string
		prog  func(n int64) *Program
		procs int
		run   func(*Machine) (Result, error)
	}{
		{"doacross", doacrossProg, 4, fast},
		{"doacross on the reference engine", doacrossProg, 4, ref},
		{"masked", maskedLoopProg, 1, fast},
		{"masked on the reference engine", maskedLoopProg, 1, ref},
		{"region entries on the reference engine", regionLoopProg, 4, ref},
	} {
		if n, n8 := allocs(tc.prog(200), tc.procs, tc.run), allocs(tc.prog(1600), tc.procs, tc.run); n != n8 {
			t.Errorf("%s: a run allocates %v objects at n=200 and %v at n=1600", tc.name, n, n8)
		}
	}
}

// binaryPutF64 stores a float64 little-endian (test helper).
func binaryPutF64(mem []byte, addr int64, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		mem[addr+int64(i)] = byte(bits >> (8 * i))
	}
}

// TestReverseRegionsOrder: every processor stores its pid to one word, a
// race the last writer wins. The reference engine's round-robin decides
// the winner — pid p-1 in ascending order, pid 0 under ReverseRegions —
// and nothing else: both orders retire the same instructions in the same
// simulated time.
func TestReverseRegionsOrder(t *testing.T) {
	prog := mkProg([]Instr{
		{Op: OpLdi, Rd: 15, Imm: 8192},
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpSt4, Rs1: 15, Rs2: 10},
		{Op: OpParEnd},
		{Op: OpLd4, Rd: RegRetInt, Rs1: 15},
		{Op: OpRet},
	}, nil)
	for procs := 2; procs <= MaxProcessors; procs++ {
		var res [2]Result
		for i, reverse := range []bool{false, true} {
			m := NewMachine(prog, procs)
			m.ReverseRegions = reverse
			r, err := m.RunReference("main")
			m.Release()
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		if res[0].ExitCode != int64(procs-1) || res[1].ExitCode != 0 {
			t.Errorf("p=%d: last writer %d ascending, %d descending; want %d and 0",
				procs, res[0].ExitCode, res[1].ExitCode, procs-1)
		}
		res[1].ExitCode = res[0].ExitCode
		if res[0] != res[1] {
			t.Errorf("p=%d: the order moved simulated time:\n ascending  %+v\n descending %+v", procs, res[0], res[1])
		}
	}
}

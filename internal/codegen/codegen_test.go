package codegen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/titan"
)

// heap is the nil arena: hand-built test IL is allocated node by node.
var heap *il.Arena

// gen compiles source to a Titan program without the IL optimizer, so the
// tests see codegen's own output.
func genProgram(t *testing.T, src string) *titan.Program {
	t.Helper()
	tp, err := Generate(lowerProgram(t, src))
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return tp
}

// lowerProgram lowers source to IL, unoptimized.
func lowerProgram(t *testing.T, src string) *il.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	prog, err := lower.File(f, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func runMain(t *testing.T, tp *titan.Program) titan.Result {
	t.Helper()
	m := titan.NewMachine(tp, 1)
	r, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGlobalLayout(t *testing.T) {
	tp := genProgram(t, `
char c1;
double d;
int i;
float arr[10];
int main(void) { return 0; }
`)
	// All globals 8-aligned, non-overlapping.
	type g struct {
		name string
		size int64
	}
	sizes := map[string]int64{"c1": 1, "d": 8, "i": 4, "arr": 40}
	for name, addr := range tp.GlobalAddr {
		if addr%8 != 0 {
			t.Errorf("%s at unaligned %d", name, addr)
		}
		for other, oaddr := range tp.GlobalAddr {
			if other == name {
				continue
			}
			if addr < oaddr+sizes[other] && oaddr < addr+sizes[name] {
				t.Errorf("%s and %s overlap", name, other)
			}
		}
	}
	_ = g{}
}

func TestGlobalInitializersMaterialize(t *testing.T) {
	tp := genProgram(t, `
int answer = 42;
float pi = 3.5;
double tau = 7.0;
int main(void) { return answer; }
`)
	if r := runMain(t, tp); r.ExitCode != 42 {
		t.Errorf("exit %d", r.ExitCode)
	}
	tp2 := genProgram(t, `
float pi = 3.5;
int main(void) { if (pi == 3.5f) return 1; return 0; }
`)
	if r := runMain(t, tp2); r.ExitCode != 1 {
		t.Errorf("float init wrong")
	}
}

func TestStringData(t *testing.T) {
	tp := genProgram(t, `
char *msg(void) { return "xyz"; }
int main(void) { char *p; p = msg(); return *p; }
`)
	if r := runMain(t, tp); r.ExitCode != 'x' {
		t.Errorf("exit %d", r.ExitCode)
	}
}

func TestParamPassing(t *testing.T) {
	tp := genProgram(t, `
int combine(int a, int b, int c, float x, float y) {
	return a * 100 + b * 10 + c + (int)(x + y);
}
int main(void) { return combine(1, 2, 3, 1.5f, 2.5f); }
`)
	if r := runMain(t, tp); r.ExitCode != 127 {
		t.Errorf("exit %d", r.ExitCode)
	}
}

func TestAddrTakenLocalOnStack(t *testing.T) {
	tp := genProgram(t, `
void bump(int *p) { *p = *p + 1; }
int main(void) {
	int x;
	x = 41;
	bump(&x);
	return x;
}
`)
	if r := runMain(t, tp); r.ExitCode != 42 {
		t.Errorf("exit %d", r.ExitCode)
	}
}

func TestManyLocalsSpill(t *testing.T) {
	// More scalar locals than variable registers: the excess lives on the
	// stack and everything still computes.
	var sb strings.Builder
	sb.WriteString("int main(void) {\n")
	for i := 0; i < 40; i++ {
		sb.WriteString("int v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(";\n")
	}
	total := 0
	for i := 0; i < 40; i++ {
		sb.WriteString("v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" = ")
		sb.WriteString(itoa(i))
		sb.WriteString(";\n")
		total += i
	}
	sb.WriteString("return ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(" + ")
		}
		sb.WriteString("v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
	}
	sb.WriteString(";\n}\n")
	tp := genProgram(t, sb.String())
	if r := runMain(t, tp); r.ExitCode != int64(total) {
		t.Errorf("exit %d want %d", r.ExitCode, total)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestDeepExpression(t *testing.T) {
	// Sethi–Ullman ordering keeps scratch pressure bounded for
	// right-leaning trees.
	tp := genProgram(t, `
int main(void) {
	int a;
	a = 1;
	return a + (a + (a + (a + (a + (a + (a + (a + a)))))));
}
`)
	if r := runMain(t, tp); r.ExitCode != 9 {
		t.Errorf("exit %d", r.ExitCode)
	}
}

func TestVectorAssignCodegen(t *testing.T) {
	// Hand-build a proc with a VectorAssign and check the emitted ops.
	p := il.NewProc("main", ctype.IntType)
	prog := &il.Program{Procs: []*il.Proc{p}}
	prog.AddGlobal(il.GlobalVar{Name: "a", Type: ctype.ArrayOf(ctype.FloatType, 64)})
	prog.AddGlobal(il.GlobalVar{Name: "b", Type: ctype.ArrayOf(ctype.FloatType, 64)})
	av := p.AddVar(il.Var{Name: "a", Type: ctype.ArrayOf(ctype.FloatType, 64), Class: il.ClassGlobal})
	bv := p.AddVar(il.Var{Name: "b", Type: ctype.ArrayOf(ctype.FloatType, 64), Class: il.ClassGlobal})
	pt := ctype.PointerTo(ctype.FloatType)
	p.Body = []il.Stmt{
		&il.VectorAssign{
			DstBase:   &il.AddrOf{ID: av, T: pt},
			DstStride: heap.Int(4),
			Len:       heap.Int(64),
			Elem:      ctype.FloatType,
			RHS: &il.Bin{Op: il.OpMul,
				L: &il.VecRef{Base: &il.AddrOf{ID: bv, T: pt}, Stride: heap.Int(4), T: ctype.FloatType},
				R: &il.ConstFloat{Val: 2, T: ctype.FloatType},
				T: ctype.FloatType},
		},
		&il.Return{Val: heap.Int(0)},
	}
	tp, err := Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	asm := tp.Funcs["main"].Disassemble()
	for _, want := range []string{"vsetl", "vld", "vmuls", "vst"} {
		if !strings.Contains(asm, want) {
			t.Errorf("missing %s:\n%s", want, asm)
		}
	}
	if r := runMain(t, tp); r.FlopCount != 64 {
		t.Errorf("flops %d", r.FlopCount)
	}
}

func TestIndirectCallRejected(t *testing.T) {
	src := `
int deref(int (*f)(int)) { return f(1); }
int main(void) { return 0; }
`
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f, info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(prog); err == nil {
		t.Error("indirect call should be a codegen error (documented limitation)")
	}
}

// ------------------------------------------------------------- scheduler

func TestScheduleHoistsLoads(t *testing.T) {
	// Block: load; long FP chain using it; an independent load at the end.
	// The scheduler should move the second load before the chain.
	f := &titan.Func{Name: "f", Labels: map[string]int{}, Instrs: []titan.Instr{
		{Op: titan.OpFld4, Rd: 20, Rs1: 32},          // load A
		{Op: titan.OpFadd, Rd: 21, Rs1: 20, Rs2: 20}, // chain
		{Op: titan.OpFadd, Rd: 22, Rs1: 21, Rs2: 21}, // chain
		{Op: titan.OpFld4, Rd: 23, Rs1: 33},          // independent load B
		{Op: titan.OpRet},
	}}
	tp := &titan.Program{Funcs: map[string]*titan.Func{"f": f}}
	Schedule(tp)
	// Load B must now appear before the second fadd.
	posB, posAdd2 := -1, -1
	for i, in := range f.Instrs {
		if in.Op == titan.OpFld4 && in.Rd == 23 {
			posB = i
		}
		if in.Op == titan.OpFadd && in.Rd == 22 {
			posAdd2 = i
		}
	}
	if posB > posAdd2 {
		t.Errorf("load not hoisted: %v", f.Instrs)
	}
}

func TestSchedulePreservesStoreOrder(t *testing.T) {
	f := &titan.Func{Name: "f", Labels: map[string]int{}, Instrs: []titan.Instr{
		{Op: titan.OpSt4, Rs1: 32, Rs2: 33},         // store 1
		{Op: titan.OpLd4, Rd: 20, Rs1: 32},          // load after store
		{Op: titan.OpSt4, Rs1: 32, Rs2: 20, Imm: 4}, // store 2 (uses load)
		{Op: titan.OpRet},
	}}
	tp := &titan.Program{Funcs: map[string]*titan.Func{"f": f}}
	Schedule(tp)
	var ops []titan.Op
	for _, in := range f.Instrs {
		ops = append(ops, in.Op)
	}
	want := []titan.Op{titan.OpSt4, titan.OpLd4, titan.OpSt4, titan.OpRet}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("memory order changed: %v", ops)
		}
	}
}

func TestScheduleKeepsLabelsCorrect(t *testing.T) {
	// A loop whose label must keep pointing at the loop top after
	// reordering.
	f := &titan.Func{Name: "f", Labels: map[string]int{"top": 2}, Instrs: []titan.Instr{
		{Op: titan.OpLdi, Rd: 32, Imm: 3},
		{Op: titan.OpLdi, Rd: 33, Imm: 0},
		// top:
		{Op: titan.OpAdd, Rd: 33, Rs1: 33, Rs2: 32},
		{Op: titan.OpAddi, Rd: 32, Rs1: 32, Imm: -1},
		{Op: titan.OpBnez, Rs1: 32, Sym: "top"},
		{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: 33},
		{Op: titan.OpRet},
	}}
	tp := &titan.Program{Funcs: map[string]*titan.Func{"main": f}}
	Schedule(tp)
	m := titan.NewMachine(&titan.Program{Funcs: map[string]*titan.Func{"main": f}, MemSize: 1 << 16}, 1)
	r, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 6 { // 3+2+1
		t.Errorf("exit %d (labels broken?)", r.ExitCode)
	}
}

// doacrossBlock is a DOACROSS iteration as one straight-line block: wait
// for the predecessor, load what it published, compute, store, post, and
// bump the counters for the next iteration.
func doacrossBlock() *titan.Func {
	return &titan.Func{Name: "f", Labels: map[string]int{}, Instrs: []titan.Instr{
		{Op: titan.OpWait, Rs1: 5, Rs2: 6},
		{Op: titan.OpFld8, Rd: 1, Rs1: 3},
		{Op: titan.OpFadd, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: titan.OpFst8, Rs1: 4, Rs2: 2},
		{Op: titan.OpPost, Rs1: 7, Rs2: 8},
		{Op: titan.OpAddi, Rd: 8, Rs1: 8, Imm: 1},
		{Op: titan.OpMul, Rd: 9, Rs1: 8, Rs2: 8},
		{Op: titan.OpRet},
	}}
}

// scheduledPos schedules f and returns where each opcode of the block
// ended up (the block's opcodes are distinct).
func scheduledPos(f *titan.Func) map[titan.Op]int {
	Schedule(&titan.Program{Funcs: map[string]*titan.Func{f.Name: f}})
	pos := map[titan.Op]int{}
	for i, in := range f.Instrs {
		pos[in.Op] = i
	}
	return pos
}

// A wait guards the accesses after it: none of them may be hoisted above.
func TestScheduleKeepsGuardedLoadBelowWait(t *testing.T) {
	f := doacrossBlock()
	pos := scheduledPos(f)
	if pos[titan.OpFld8] < pos[titan.OpWait] || pos[titan.OpFst8] < pos[titan.OpWait] {
		t.Errorf("access hoisted above the wait that guards it:\n%s", f.Disassemble())
	}
}

// A post publishes the stores before it and reads its operands where it
// stands: it stays below the store and above the redefinition of its value
// register.
func TestScheduleKeepsPostAfterStoreBeforeRedefinition(t *testing.T) {
	f := doacrossBlock()
	pos := scheduledPos(f)
	if pos[titan.OpPost] < pos[titan.OpFst8] {
		t.Errorf("post hoisted above the store it publishes:\n%s", f.Disassemble())
	}
	if pos[titan.OpAddi] < pos[titan.OpPost] {
		t.Errorf("posted register redefined before the post:\n%s", f.Disassemble())
	}
}

// blocksFunc is k copies of one block — scalar and vector loads, a
// dependent chain, stores and a mask-governed vector op — each ended by a
// branch to the next, so the scheduler sees k blocks of the same shape.
func blocksFunc(k int) *titan.Func {
	f := &titan.Func{Name: "f", Labels: map[string]int{}}
	for b := 0; b < k; b++ {
		f.Instrs = append(f.Instrs,
			titan.Instr{Op: titan.OpFld4, Rd: 20, Rs1: 32},
			titan.Instr{Op: titan.OpFadd, Rd: 21, Rs1: 20, Rs2: 20},
			titan.Instr{Op: titan.OpVld, Rd: 0, Rs1: 33, Rs2: 34, Imm: titan.ElemF32},
			titan.Instr{Op: titan.OpVaddm, Rd: 128, Rs1: 0, Rs2: 0, Imm: 1 << 8},
			titan.Instr{Op: titan.OpVst, Rd: 128, Rs1: 35, Rs2: 34, Imm: titan.ElemF32},
			titan.Instr{Op: titan.OpFld4, Rd: 22, Rs1: 36},
			titan.Instr{Op: titan.OpFst4, Rs1: 37, Rs2: 21},
			titan.Instr{Op: titan.OpAddi, Rd: 32, Rs1: 32, Imm: 4},
			titan.Instr{Op: titan.OpBnez, Rs1: 32, Sym: fmt.Sprint("b", b+1)},
		)
		f.Labels[fmt.Sprint("b", b+1)] = len(f.Instrs)
	}
	f.Instrs = append(f.Instrs, titan.Instr{Op: titan.OpRet})
	return f
}

// The scheduler's scratch grows with the largest block, not with how many
// blocks there are. A new scratch is measured each run: Schedule's pool
// would hide the growth, and under -race it drops scratches at random.
func TestScheduleAllocsIndependentOfBlocks(t *testing.T) {
	allocs := func(k int) float64 {
		f := blocksFunc(k)
		return testing.AllocsPerRun(20, func() { new(scheduler).scheduleFunc(f) })
	}
	if few, many := allocs(8), allocs(32); few != many {
		t.Errorf("Schedule allocates %v times for 8 blocks, %v for 32", few, many)
	}
}

// Every function keeps exactly the instructions the peephole left, in a
// slice of its own.
func TestGenerateSizesInstrs(t *testing.T) {
	tp := genProgram(t, `
int g;
int twice(int x) { int y; y = x + x; return y; }
void bump(int n) { int i; for (i = 0; i < n; i++) g = g + twice(i); }
int main(void) { int a, b; a = 1; b = a + 2; bump(b); return g; }
`)
	for name, f := range tp.Funcs {
		if cap(f.Instrs) != len(f.Instrs) {
			t.Errorf("%s: %d instructions in a slice of capacity %d", name, len(f.Instrs), cap(f.Instrs))
		}
	}
	if r := runMain(t, tp); r.ExitCode != 6 {
		t.Errorf("exit %d", r.ExitCode)
	}
}

// ------------------------------------------------------------- coalescing

// A register a later post or wait reads is live: coalescing its copy away
// would publish the copy's later value.
func TestCoalesceSeesPostOperand(t *testing.T) {
	v := func(k int) int { return vregBase + k }
	for _, op := range []titan.Op{titan.OpPost, titan.OpWait} {
		f := &titan.Func{Name: "f", Labels: map[string]int{}, Instrs: []titan.Instr{
			{Op: titan.OpAddi, Rd: regSP, Rs1: regSP},
			{Op: titan.OpPid, Rd: v(0)},
			{Op: titan.OpAddi, Rd: v(1), Rs1: v(0), Imm: 1},
			{Op: titan.OpMov, Rd: v(2), Rs1: v(1)},
			{Op: titan.OpAddi, Rd: v(2), Rs1: v(2), Imm: 1},
			{Op: op, Rs1: v(0), Rs2: v(1)},
			{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: v(2)},
			{Op: titan.OpRet},
		}}
		frame, a := int64(0), &regAlloc{nv: 3}
		a.load(f)
		if err := a.allocate(f, nil, &frame); err != nil {
			t.Fatal(err)
		}
		if f.Instrs[2].Op != titan.OpMov || f.Instrs[4].Rs2 == f.Instrs[3].Rd {
			t.Errorf("%v reads the register the copy bumps:\n%s", op, f.Disassemble())
		}
	}
}

func TestCoalesceMoves(t *testing.T) {
	tp := genProgram(t, `
int main(void) {
	int a, b;
	a = 1;
	b = a + 2;
	return b;
}
`)
	asm := tp.Funcs["main"].Disassemble()
	// The addi result should target the variable register directly; no
	// copy into a variable remains, and the return value goes straight to
	// r2.
	if strings.Count(asm, "mov") > 0 {
		t.Errorf("moves not coalesced:\n%s", asm)
	}
	if r := runMain(t, tp); r.ExitCode != 3 {
		t.Errorf("exit %d", r.ExitCode)
	}
}

func TestCoalesceKeepsArgMoves(t *testing.T) {
	// The register feeding ARG must not be clobbered by coalescing.
	tp := genProgram(t, `
int printf(char *fmt, ...);
int main(void) { printf("%d", 7); return 0; }
`)
	if r := runMain(t, tp); r.Output != "7" {
		t.Errorf("output %q", r.Output)
	}
}

func TestFrameRestoredAcrossCalls(t *testing.T) {
	tp := genProgram(t, `
int helper(int x) {
	int arr[4];
	arr[0] = x;
	arr[1] = x + 1;
	return arr[0] + arr[1];
}
int main(void) {
	int a[4];
	a[0] = 10;
	a[1] = helper(5);
	return a[0] + a[1];
}
`)
	if r := runMain(t, tp); r.ExitCode != 21 {
		t.Errorf("exit %d", r.ExitCode)
	}
}

// A constant address term folds into the load's displacement: a[i+3] of
// a global is one muli of i and one fld4 at &a+12, and a[i-3] is the same
// at &a-12.
func TestAddressFoldsIntoDisplacement(t *testing.T) {
	tp := genProgram(t, `
float a[100];
float f(int i) { return a[i+3]; }
float g(int i) { return a[i-3]; }
int main(void) { return 0; }
`)
	base := tp.GlobalAddr["a"]
	for _, tc := range []struct {
		fn   string
		disp int64
	}{{"f", base + 12}, {"g", base - 12}} {
		var muls, loads []titan.Instr
		for _, in := range tp.Funcs[tc.fn].Instrs {
			switch in.Op {
			case titan.OpMuli:
				muls = append(muls, in)
			case titan.OpFld4:
				loads = append(loads, in)
			case titan.OpMov, titan.OpRet: // the parameter copy and the return
			default:
				t.Errorf("%s: address arithmetic left in %s", tc.fn, in)
			}
		}
		if len(muls) != 1 || muls[0].Imm != 4 || len(loads) != 1 ||
			loads[0].Rs1 != muls[0].Rd || loads[0].Imm != tc.disp {
			t.Errorf("%s: want muli r, i, 4 and fld4 at %d(r):\n%s", tc.fn, tc.disp, tp.Funcs[tc.fn].Disassemble())
		}
	}
}

// A constant on either side of + or * is an immediate: 4*x is a muli and
// 3+x an addi, with no ldi of the constant.
func TestConstantOperandIsImmediate(t *testing.T) {
	tp := genProgram(t, `
int h(int x) { return 4*x + (3+x); }
int main(void) { return h(5); }
`)
	ops := map[titan.Op]int64{}
	for _, in := range tp.Funcs["h"].Instrs {
		if in.Op == titan.OpLdi {
			t.Errorf("constant materialized: %s", in)
		}
		ops[in.Op] = in.Imm
	}
	if ops[titan.OpMuli] != 4 || ops[titan.OpAddi] != 3 {
		t.Errorf("want muli by 4 and addi of 3:\n%s", tp.Funcs["h"].Disassemble())
	}
	if r := runMain(t, tp); r.ExitCode != 28 {
		t.Errorf("exit %d, want 28", r.ExitCode)
	}
}

// Stack arrays and pointer parameters take displacements from a register
// base too, stores and loads alike, and read back what they wrote.
func TestDisplacementOffStackAndPointer(t *testing.T) {
	tp := genProgram(t, `
float buf[16];
float s(int i) {
	float t[8];
	int k;
	for (k = 0; k < 8; k++)
		t[k] = k;
	t[i+1] = 20.0f;
	return t[i+1] + t[i-1] + t[7];
}
float q(float *p, int i) { p[i+2] = 5.0f; return p[i+2] + p[i-1]; }
int main(void) {
	int k;
	for (k = 0; k < 16; k++)
		buf[k] = k;
	return (int)s(3) * 100 + (int)q(buf + 4, 3);
}
`)
	for _, fn := range []string{"s", "q"} {
		folded := false
		for _, in := range tp.Funcs[fn].Instrs {
			folded = folded || in.Op == titan.OpFst4 && in.Imm != 0
		}
		if !folded {
			t.Errorf("%s: no store takes a displacement:\n%s", fn, tp.Funcs[fn].Disassemble())
		}
	}
	if r := runMain(t, tp); r.ExitCode != 2911 {
		t.Errorf("exit %d, want 2911", r.ExitCode)
	}
}

// Vector memory ops have no displacement (their immediate is the element
// kind), so a vector base keeps its constant terms in the register.
func TestVectorBaseKeepsItsOffset(t *testing.T) {
	p := il.NewProc("main", ctype.IntType)
	prog := &il.Program{Procs: []*il.Proc{p}}
	ft := ctype.ArrayOf(ctype.FloatType, 16)
	prog.AddGlobal(il.GlobalVar{Name: "a", Type: ft})
	prog.AddGlobal(il.GlobalVar{Name: "b", Type: ft})
	av := p.AddVar(il.Var{Name: "a", Type: ft, Class: il.ClassGlobal})
	bv := p.AddVar(il.Var{Name: "b", Type: ft, Class: il.ClassGlobal})
	pt := ctype.PointerTo(ctype.FloatType)
	at := func(v il.VarID, off int64) il.Expr {
		return heap.Add(&il.AddrOf{ID: v, T: pt}, heap.Int(off), pt)
	}
	p.Body = []il.Stmt{
		// b[2..9] = 3; a[3..10] = b[2..9] * 2
		&il.VectorAssign{DstBase: at(bv, 8), DstStride: heap.Int(4), Len: heap.Int(8), Elem: ctype.FloatType,
			RHS: &il.ConstFloat{Val: 3, T: ctype.FloatType}},
		&il.VectorAssign{DstBase: at(av, 12), DstStride: heap.Int(4), Len: heap.Int(8), Elem: ctype.FloatType,
			RHS: &il.Bin{Op: il.OpMul,
				L: &il.VecRef{Base: at(bv, 8), Stride: heap.Int(4), T: ctype.FloatType},
				R: &il.ConstFloat{Val: 2, T: ctype.FloatType},
				T: ctype.FloatType}},
		// a[10] * 10 + a[2]: 60 when both bases kept their offsets.
		&il.Return{Val: &il.Cast{T: ctype.IntType, X: heap.Add(
			heap.Mul(heap.Load(at(av, 40), ctype.FloatType, false), &il.ConstFloat{Val: 10, T: ctype.FloatType}, ctype.FloatType),
			heap.Load(at(av, 8), ctype.FloatType, false), ctype.FloatType)}},
	}
	tp, err := Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range tp.Funcs["main"].Instrs {
		if (in.Op == titan.OpVld || in.Op == titan.OpVst) && in.Imm != elemKind(ctype.FloatType) {
			t.Errorf("%s: immediate %d is not the element kind", in, in.Imm)
		}
	}
	if r := runMain(t, tp); r.ExitCode != 60 {
		t.Errorf("exit %d, want 60:\n%s", r.ExitCode, tp.Funcs["main"].Disassemble())
	}
}

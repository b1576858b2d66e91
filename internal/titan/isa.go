// Package titan models the Ardent Titan: a multiprocessor whose every
// processor couples a RISC integer unit, a deeply pipelined floating-point
// unit that also executes all vector instructions, a large vector register
// file, and a pipelined path to memory shared by up to four processors
// (§2).
//
// The simulator is functional plus a scoreboard timing model: each
// register carries a ready-time, each unit (integer, floating point,
// memory) an issue-time, and instructions dispatch in order, one per
// cycle at best, stalling on operand or unit availability. Independent
// integer and floating-point instructions therefore overlap — the §6
// effect dependence-informed scheduling exploits — and vector instructions
// cost startup + length on their unit, keeping the pipeline full (§2).
package titan

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
)

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	// Integer unit.
	OpNop Op = iota
	OpLdi    // rd ← imm
	OpMov    // rd ← rs1
	OpAdd    // rd ← rs1 + rs2
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpAddi // rd ← rs1 + imm
	OpMuli // rd ← rs1 * imm
	OpNeg
	OpNot  // logical not (0/1)
	OpBnot // bitwise complement
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe
	OpPid   // rd ← processor id (within a parallel region)
	OpNproc // rd ← processor count

	// Memory.
	OpLd1 // rd ← sext(mem1[rs1+imm])
	OpLd2
	OpLd4
	OpSt1 // mem[rs1+imm] ← rs2
	OpSt2
	OpSt4
	OpFld4 // fd ← mem.f32[rs1+imm]
	OpFld8
	OpFst4 // mem.f32[rs1+imm] ← fs2
	OpFst8

	// Floating point unit (scalar).
	OpFldi // fd ← fimm
	OpFmov
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFneg
	OpFcmpEq // rd ← fs1 cmp fs2
	OpFcmpNe
	OpFcmpLt
	OpFcmpLe
	OpFcmpGt
	OpFcmpGe
	OpCvtIF // fd ← float(rs1)
	OpCvtFI // rd ← int(fs1)

	// Vector unit (executed by the FP unit, §2). Vd/Vs are vector
	// register file slot indices; the active length comes from the VL
	// register (OpVsetl).
	OpVsetl // VL ← rs1 (clamped to MaxVL)
	OpVld   // vrf[vd..] ← mem[rs1 + k·rs2], element kind in Imm
	OpVst   // mem[rs1 + k·rs2] ← vrf[vd..]
	OpVadd  // vd ← vs1 + vs2
	OpVsub
	OpVmul
	OpVdiv
	OpVadds // vd ← vs1 + fs2 (scalar broadcast)
	OpVsubs
	OpVsubsr // vd ← fs2 - vs1
	OpVmuls
	OpVdivs
	OpVdivsr
	OpVmov
	OpVbcast // vd[k] ← fs1 for all lanes

	// Control.
	OpJmp  // pc ← label
	OpBeqz // if rs1 == 0 branch
	OpBnez
	OpCall // call function (register-windowed)
	OpRet
	OpArg // append rs1/fs1 to the outgoing argument list
	OpFarg
	OpHalt

	// Parallel region markers (§2: spreading loop iterations among
	// processors). The enclosed code reads OpPid/OpNproc to pick its
	// share of iterations.
	OpParBegin
	OpParEnd

	// DOACROSS synchronization (arXiv:1211.4101): post publishes r[rs2]
	// into sync cell r[rs1] (monotone max), wait blocks until cell r[rs1]
	// reaches at least r[rs2]. Valid only inside a parallel region; the
	// cells live per region and reset at par.begin.
	OpPost
	OpWait

	// Vector mask unit: compares produce per-lane predicates into one of
	// NumMaskRegs mask registers; masked memory and arithmetic variants
	// suppress the effects of inactive lanes but charge the same
	// timing-table cycles as their dense forms (the pipeline still streams
	// every lane — masking gates the write-back, not the issue).
	OpVcmpLt  // mk[rd] ← vs1 < vs2, per lane
	OpVcmpLe  // mk[rd] ← vs1 <= vs2
	OpVcmpEq  // mk[rd] ← vs1 == vs2
	OpVcmpNe  // mk[rd] ← vs1 != vs2
	OpVcmpLts // mk[rd] ← vs1 < fs2 (scalar broadcast compare)
	OpVcmpLes // mk[rd] ← vs1 <= fs2
	OpVcmpEqs // mk[rd] ← vs1 == fs2
	OpVcmpNes // mk[rd] ← vs1 != fs2
	OpMand    // mk[rd] ← mk[rs1] & mk[rs2]
	OpMor     // mk[rd] ← mk[rs1] | mk[rs2]
	OpMnot    // mk[rd] ← ~mk[rs1] (over the active VL lanes)
	// Masked memory and arithmetic: the governing mask register index
	// rides in Imm bits 8.. (Imm>>8); Imm's low 8 bits keep whatever the
	// dense form used there (the element kind for vld.m/vst.m, zero for
	// arithmetic). Inactive lanes load nothing, store nothing, and keep
	// the destination slot's prior contents.
	OpVldm  // vrf[vd..] ←(mask) mem[rs1 + k·rs2]
	OpVstm  // mem[rs1 + k·rs2] ←(mask) vrf[vd..]
	OpVaddm // vd ←(mask) vs1 + vs2
	OpVsubm
	OpVmulm
	OpVdivm
)

// NumMaskRegs is the size of the vector-mask register file: each mask
// register holds one predicate bit per vector lane (MaxVL lanes).
const NumMaskRegs = 8

// maskWords is the per-register bitset length (MaxVL lanes / 64).
const maskWords = MaxVL / 64

// NumSyncCells is the number of per-region synchronization cells post and
// wait may address (r[rs1] must be in [0, NumSyncCells)).
const NumSyncCells = 256

// Element kinds for vector memory operations (Instr.Imm).
const (
	ElemF32 = 4
	ElemF64 = 8
	ElemI32 = 1 // int32 elements, width 4
)

// MaxVL is the hardware strip length: the vector register file holds 8192
// words addressable as vectors of any length and stride; the compiler's
// strips use 32-element sections.
const MaxVL = 2048

// VRFWords is the vector register file size in words.
const VRFWords = 8192

// Instr is one instruction.
type Instr struct {
	Op   Op
	Rd   int // destination register / vector slot
	Rs1  int
	Rs2  int
	Imm  int64
	FImm float64
	Sym  string // label or callee
}

var opNames = map[Op]string{
	OpNop: "nop", OpLdi: "ldi", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpAddi: "addi", OpMuli: "muli",
	OpNeg: "neg", OpNot: "not", OpBnot: "bnot",
	OpCmpEq: "cmpeq", OpCmpNe: "cmpne", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpCmpGt: "cmpgt", OpCmpGe: "cmpge", OpPid: "pid", OpNproc: "nproc",
	OpLd1: "ld1", OpLd2: "ld2", OpLd4: "ld4",
	OpSt1: "st1", OpSt2: "st2", OpSt4: "st4",
	OpFld4: "fld4", OpFld8: "fld8", OpFst4: "fst4", OpFst8: "fst8",
	OpFldi: "fldi", OpFmov: "fmov", OpFadd: "fadd", OpFsub: "fsub",
	OpFmul: "fmul", OpFdiv: "fdiv", OpFneg: "fneg",
	OpFcmpEq: "fcmpeq", OpFcmpNe: "fcmpne", OpFcmpLt: "fcmplt",
	OpFcmpLe: "fcmple", OpFcmpGt: "fcmpgt", OpFcmpGe: "fcmpge",
	OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpVsetl: "vsetl", OpVld: "vld", OpVst: "vst",
	OpVadd: "vadd", OpVsub: "vsub", OpVmul: "vmul", OpVdiv: "vdiv",
	OpVadds: "vadds", OpVsubs: "vsubs", OpVsubsr: "vsubsr",
	OpVmuls: "vmuls", OpVdivs: "vdivs", OpVdivsr: "vdivsr", OpVmov: "vmov",
	OpVbcast: "vbcast",
	OpJmp:    "jmp", OpBeqz: "beqz", OpBnez: "bnez", OpCall: "call",
	OpRet: "ret", OpArg: "arg", OpFarg: "farg", OpHalt: "halt",
	OpParBegin: "par.begin", OpParEnd: "par.end",
	OpPost: "post", OpWait: "wait",
	OpVcmpLt: "vcmp.lt", OpVcmpLe: "vcmp.le", OpVcmpEq: "vcmp.eq",
	OpVcmpNe: "vcmp.ne", OpVcmpLts: "vcmp.lts", OpVcmpLes: "vcmp.les",
	OpVcmpEqs: "vcmp.eqs", OpVcmpNes: "vcmp.nes",
	OpMand: "mand", OpMor: "mor", OpMnot: "mnot",
	OpVldm: "vld.m", OpVstm: "vst.m",
	OpVaddm: "vadd.m", OpVsubm: "vsub.m", OpVmulm: "vmul.m", OpVdivm: "vdiv.m",
}

// String disassembles one instruction.
func (in Instr) String() string {
	n := opNames[in.Op]
	switch in.Op {
	case OpNop, OpRet, OpHalt, OpParBegin, OpParEnd:
		return n
	case OpLdi:
		return fmt.Sprintf("%s r%d, %d", n, in.Rd, in.Imm)
	case OpFldi:
		return fmt.Sprintf("%s f%d, %g", n, in.Rd, in.FImm)
	case OpMov, OpNeg, OpNot, OpBnot:
		return fmt.Sprintf("%s r%d, r%d", n, in.Rd, in.Rs1)
	case OpFmov, OpFneg:
		return fmt.Sprintf("%s f%d, f%d", n, in.Rd, in.Rs1)
	case OpAddi, OpMuli:
		return fmt.Sprintf("%s r%d, r%d, %d", n, in.Rd, in.Rs1, in.Imm)
	case OpLd1, OpLd2, OpLd4:
		return fmt.Sprintf("%s r%d, %d(r%d)", n, in.Rd, in.Imm, in.Rs1)
	case OpSt1, OpSt2, OpSt4:
		return fmt.Sprintf("%s r%d, %d(r%d)", n, in.Rs2, in.Imm, in.Rs1)
	case OpFld4, OpFld8:
		return fmt.Sprintf("%s f%d, %d(r%d)", n, in.Rd, in.Imm, in.Rs1)
	case OpFst4, OpFst8:
		return fmt.Sprintf("%s f%d, %d(r%d)", n, in.Rs2, in.Imm, in.Rs1)
	case OpFadd, OpFsub, OpFmul, OpFdiv:
		return fmt.Sprintf("%s f%d, f%d, f%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpFcmpEq, OpFcmpNe, OpFcmpLt, OpFcmpLe, OpFcmpGt, OpFcmpGe:
		return fmt.Sprintf("%s r%d, f%d, f%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpCvtIF:
		return fmt.Sprintf("%s f%d, r%d", n, in.Rd, in.Rs1)
	case OpCvtFI:
		return fmt.Sprintf("%s r%d, f%d", n, in.Rd, in.Rs1)
	case OpVsetl:
		return fmt.Sprintf("%s r%d", n, in.Rs1)
	case OpPost, OpWait:
		return fmt.Sprintf("%s r%d, r%d", n, in.Rs1, in.Rs2)
	case OpVld, OpVst:
		return fmt.Sprintf("%s v%d, (r%d), r%d, ek%d", n, in.Rd, in.Rs1, in.Rs2, in.Imm)
	case OpVldm, OpVstm:
		return fmt.Sprintf("%s v%d, (r%d), r%d, ek%d, m%d", n, in.Rd, in.Rs1, in.Rs2, in.Imm&0xff, in.Imm>>8)
	case OpVadd, OpVsub, OpVmul, OpVdiv:
		return fmt.Sprintf("%s v%d, v%d, v%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpVaddm, OpVsubm, OpVmulm, OpVdivm:
		return fmt.Sprintf("%s v%d, v%d, v%d, m%d", n, in.Rd, in.Rs1, in.Rs2, in.Imm>>8)
	case OpVadds, OpVsubs, OpVsubsr, OpVmuls, OpVdivs, OpVdivsr:
		return fmt.Sprintf("%s v%d, v%d, f%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpVcmpLt, OpVcmpLe, OpVcmpEq, OpVcmpNe:
		return fmt.Sprintf("%s m%d, v%d, v%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpVcmpLts, OpVcmpLes, OpVcmpEqs, OpVcmpNes:
		return fmt.Sprintf("%s m%d, v%d, f%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpMand, OpMor:
		return fmt.Sprintf("%s m%d, m%d, m%d", n, in.Rd, in.Rs1, in.Rs2)
	case OpMnot:
		return fmt.Sprintf("%s m%d, m%d", n, in.Rd, in.Rs1)
	case OpVmov:
		return fmt.Sprintf("%s v%d, v%d", n, in.Rd, in.Rs1)
	case OpVbcast:
		return fmt.Sprintf("%s v%d, f%d", n, in.Rd, in.Rs1)
	case OpJmp:
		return fmt.Sprintf("%s %s", n, in.Sym)
	case OpBeqz, OpBnez:
		return fmt.Sprintf("%s r%d, %s", n, in.Rs1, in.Sym)
	case OpCall:
		return fmt.Sprintf("%s %s", n, in.Sym)
	case OpArg:
		return fmt.Sprintf("%s r%d", n, in.Rs1)
	case OpFarg:
		return fmt.Sprintf("%s f%d", n, in.Rs1)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", n, in.Rd, in.Rs1, in.Rs2)
	}
}

// Func is one compiled function.
type Func struct {
	Name   string
	Instrs []Instr
	Labels map[string]int // label → instruction index
	// Frame is the stack the function's prologue reserves, in bytes: what
	// a call checks against the machine's stack limit before entering it.
	Frame int64
}

// PageSize is the granule of the memory layout: the data segment is
// rounded up to it, and the boundary is the stack limit.
const PageSize = 4096

// PageAlign rounds n up to a whole number of pages.
func PageAlign(n int64) int64 { return (n + PageSize - 1) / PageSize * PageSize }

// Program is a linked executable image.
type Program struct {
	Funcs map[string]*Func
	// Data is the initial memory image for globals.
	Data []byte
	// DataBase is the address where Data is loaded.
	DataBase int64
	// GlobalAddr maps global names to addresses (for tests and loaders).
	GlobalAddr map[string]int64
	// MemSize is the total memory to allocate: data from DataBase, then
	// the stack, growing down from the top towards the page-rounded end
	// of Data (the stack limit, see Machine).
	MemSize int64

	// Decoded form for the fast engine (engine.go), built once on first
	// Run and then shared read-only by every Machine simulating this
	// program — Programs are always handled by pointer. Mutating Funcs
	// after a Run is not supported.
	decOnce sync.Once
	decoded map[string]*dfunc
}

// Equal reports whether two programs are the same code over the same
// memory image: the same functions with the same instructions (float
// immediates by bit pattern), labels and frames, the same Data, DataBase
// and MemSize. That is everything a Machine reads, so — the simulator being
// deterministic — equal programs run to equal Results. GlobalAddr is a
// loader convenience no execution path consults and is not compared.
func (p *Program) Equal(q *Program) bool {
	if p.DataBase != q.DataBase || p.MemSize != q.MemSize ||
		len(p.Funcs) != len(q.Funcs) || !bytes.Equal(p.Data, q.Data) {
		return false
	}
	for name, f := range p.Funcs {
		g, ok := q.Funcs[name]
		if !ok || f.Frame != g.Frame || len(f.Instrs) != len(g.Instrs) || len(f.Labels) != len(g.Labels) {
			return false
		}
		for i, a := range f.Instrs {
			b := g.Instrs[i]
			if math.Float64bits(a.FImm) != math.Float64bits(b.FImm) {
				return false
			}
			a.FImm, b.FImm = 0, 0
			if a != b {
				return false
			}
		}
		for l, at := range f.Labels {
			if gat, ok := g.Labels[l]; !ok || gat != at {
				return false
			}
		}
	}
	return true
}

// Disassemble renders a function listing.
func (f *Func) Disassemble() string {
	var sb strings.Builder
	rev := map[int][]string{}
	for l, i := range f.Labels {
		rev[i] = append(rev[i], l)
	}
	fmt.Fprintf(&sb, "%s:\n", f.Name)
	for i, in := range f.Instrs {
		for _, l := range rev[i] {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "    %s\n", in)
	}
	for _, l := range rev[len(f.Instrs)] {
		fmt.Fprintf(&sb, "%s:\n", l)
	}
	return sb.String()
}

// Calling convention: arguments in r8.. / f8.., results in r2 / f2. The
// hardware provides register windows: CALL snapshots the register file and
// RET restores everything except the result registers.
const (
	RegSP     = 1 // stack pointer
	RegRetInt = 2
	RegRetFlt = 2
	RegArg0   = 8 // first integer argument register
	FRegArg0  = 8 // first float argument register
	// The Titan's register set is unusually large (§2: the vector register
	// file doubles as 8192 scalar registers); the model exposes 64 of
	// each kind to the compiler.
	NumIntRegs = 64
	NumFltRegs = 64
)

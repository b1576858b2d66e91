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
	"slices"
	"strconv"
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

	// 64-bit integer memory: the whole register, as register allocation
	// spills and reloads it.
	OpLd8
	OpSt8

	numOps // one past the last opcode: the length of opTable
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

// elemWidth returns the byte width of a vector element kind, or 0 if the
// kind is invalid.
func elemWidth(kind int64) int64 {
	switch kind {
	case ElemF32, ElemI32:
		return 4
	case ElemF64:
		return 8
	}
	return 0
}

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

// opTable is the Titan's instruction set, one row per opcode: every
// per-instruction fact is stated here and nowhere else. Instr.String reads
// name and syntax; the reference dispatch (machine.go) and the fast
// engine's decoder (engine.go) read the operand files and roles, the
// governing mask and the timing, the latter through Scoreboard; Refs,
// Mem, IsControl and Transfers give the compiler's list scheduler and
// peephole their def/use, memory-order and block-boundary classes, and
// Writes and RenameUses its loop-values pass the same operand roles.
// What an instruction computes is not here: it is the semantic switch of
// each engine, written twice on purpose so that one checks the other.
var opTable = [numOps]opInfo{
	OpNop:   {name: "nop", time: tALU},
	OpLdi:   {name: "ldi", syn: synRdImm, rd: wI, time: tALU},
	OpMov:   {name: "mov", syn: synRdRs1, rd: wI, rs1: rI, time: tALU},
	OpAdd:   {name: "add", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpSub:   {name: "sub", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpMul:   {name: "mul", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tMul},
	OpDiv:   {name: "div", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tDiv},
	OpRem:   {name: "rem", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tDiv},
	OpAnd:   {name: "and", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpOr:    {name: "or", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpXor:   {name: "xor", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpShl:   {name: "shl", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpShr:   {name: "shr", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpAddi:  {name: "addi", syn: synRdRs1Imm, rd: wI, rs1: rI, time: tALU},
	OpMuli:  {name: "muli", syn: synRdRs1Imm, rd: wI, rs1: rI, time: tMul},
	OpNeg:   {name: "neg", syn: synRdRs1, rd: wI, rs1: rI, time: tALU},
	OpNot:   {name: "not", syn: synRdRs1, rd: wI, rs1: rI, time: tALU},
	OpBnot:  {name: "bnot", syn: synRdRs1, rd: wI, rs1: rI, time: tALU},
	OpCmpEq: {name: "cmpeq", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpCmpNe: {name: "cmpne", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpCmpLt: {name: "cmplt", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpCmpLe: {name: "cmple", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpCmpGt: {name: "cmpgt", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	OpCmpGe: {name: "cmpge", syn: synRdRs1Rs2, rd: wI, rs1: rI, rs2: rI, time: tALU},
	// pid and nproc read nothing; they disassemble in the three-register
	// form, unused fields and all ("pid r5, r0, r0"), which listings and
	// testdata/titan.golden.json have always shown.
	OpPid:   {name: "pid", syn: synRdRs1Rs2, rd: wI, time: tALU},
	OpNproc: {name: "nproc", syn: synRdRs1Rs2, rd: wI, time: tALU},

	OpLd1:  {name: "ld1", syn: synLoad, rd: wI, rs1: rI, time: tLoad, mem: MemLoad},
	OpLd2:  {name: "ld2", syn: synLoad, rd: wI, rs1: rI, time: tLoad, mem: MemLoad},
	OpLd4:  {name: "ld4", syn: synLoad, rd: wI, rs1: rI, time: tLoad, mem: MemLoad},
	OpSt1:  {name: "st1", syn: synStore, rs1: rI, rs2: dI, time: tStore, mem: MemStore},
	OpSt2:  {name: "st2", syn: synStore, rs1: rI, rs2: dI, time: tStore, mem: MemStore},
	OpSt4:  {name: "st4", syn: synStore, rs1: rI, rs2: dI, time: tStore, mem: MemStore},
	OpFld4: {name: "fld4", syn: synLoad, rd: wF, rs1: rI, time: tLoad, mem: MemLoad},
	OpFld8: {name: "fld8", syn: synLoad, rd: wF, rs1: rI, time: tLoad, mem: MemLoad},
	OpFst4: {name: "fst4", syn: synStore, rs1: rI, rs2: dF, time: tStore, mem: MemStore},
	OpFst8: {name: "fst8", syn: synStore, rs1: rI, rs2: dF, time: tStore, mem: MemStore},

	OpFldi:   {name: "fldi", syn: synRdFImm, rd: wF, time: tFP},
	OpFmov:   {name: "fmov", syn: synRdRs1, rd: wF, rs1: rF, time: tFP},
	OpFadd:   {name: "fadd", syn: synRdRs1Rs2, rd: wF, rs1: rF, rs2: rF, time: tFP, flops: flopOne},
	OpFsub:   {name: "fsub", syn: synRdRs1Rs2, rd: wF, rs1: rF, rs2: rF, time: tFP, flops: flopOne},
	OpFmul:   {name: "fmul", syn: synRdRs1Rs2, rd: wF, rs1: rF, rs2: rF, time: tFP, flops: flopOne},
	OpFdiv:   {name: "fdiv", syn: synRdRs1Rs2, rd: wF, rs1: rF, rs2: rF, time: tFdiv, flops: flopOne},
	OpFneg:   {name: "fneg", syn: synRdRs1, rd: wF, rs1: rF, time: tFP},
	OpFcmpEq: {name: "fcmpeq", syn: synRdRs1Rs2, rd: wI, rs1: rF, rs2: rF, time: tFP},
	OpFcmpNe: {name: "fcmpne", syn: synRdRs1Rs2, rd: wI, rs1: rF, rs2: rF, time: tFP},
	OpFcmpLt: {name: "fcmplt", syn: synRdRs1Rs2, rd: wI, rs1: rF, rs2: rF, time: tFP},
	OpFcmpLe: {name: "fcmple", syn: synRdRs1Rs2, rd: wI, rs1: rF, rs2: rF, time: tFP},
	OpFcmpGt: {name: "fcmpgt", syn: synRdRs1Rs2, rd: wI, rs1: rF, rs2: rF, time: tFP},
	OpFcmpGe: {name: "fcmpge", syn: synRdRs1Rs2, rd: wI, rs1: rF, rs2: rF, time: tFP},
	OpCvtIF:  {name: "cvtif", syn: synRdRs1, rd: wF, rs1: rI, time: tFP},
	OpCvtFI:  {name: "cvtfi", syn: synRdRs1, rd: wI, rs1: rF, time: tFP},

	OpVsetl:  {name: "vsetl", syn: synRs1, rs1: rI, time: tALU, vl: vlWrite},
	OpVld:    {name: "vld", syn: synVecMem, rd: wV, rs1: rI, rs2: rI, time: tVecMem, vl: vlRead, mem: MemLoad},
	OpVst:    {name: "vst", syn: synVecMem, rd: dV, rs1: rI, rs2: rI, time: tVecMem, vl: vlRead, mem: MemStore},
	OpVadd:   {name: "vadd", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVsub:   {name: "vsub", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVmul:   {name: "vmul", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVdiv:   {name: "vdiv", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, time: tVdiv, vl: vlRead, flops: flopPerLane},
	OpVadds:  {name: "vadds", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rF, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVsubs:  {name: "vsubs", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rF, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVsubsr: {name: "vsubsr", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rF, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVmuls:  {name: "vmuls", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rF, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVdivs:  {name: "vdivs", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rF, time: tVdiv, vl: vlRead, flops: flopPerLane},
	OpVdivsr: {name: "vdivsr", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rF, time: tVdiv, vl: vlRead, flops: flopPerLane},
	OpVmov:   {name: "vmov", syn: synRdRs1, rd: wV, rs1: rV, time: tVec, vl: vlRead},
	OpVbcast: {name: "vbcast", syn: synRdRs1, rd: wV, rs1: rF, time: tVec, vl: vlRead},

	OpJmp:  {name: "jmp", syn: synSym, time: tBranch, ctl: ctlTransfer},
	OpBeqz: {name: "beqz", syn: synRs1Sym, rs1: rI, time: tBranch, ctl: ctlTransfer},
	OpBnez: {name: "bnez", syn: synRs1Sym, rs1: rI, time: tBranch, ctl: ctlTransfer},
	OpCall: {name: "call", syn: synSym, time: tCall, ctl: ctlTransfer},
	OpRet:  {name: "ret", time: tRet, ctl: ctlTransfer},
	OpArg:  {name: "arg", syn: synRs1, rs1: rI, time: tALU, ctl: ctlPinned},
	OpFarg: {name: "farg", syn: synRs1, rs1: rF, time: tALU, ctl: ctlPinned},
	OpHalt: {name: "halt", time: tALU, ctl: ctlTransfer},

	OpParBegin: {name: "par.begin", time: tALU, ctl: ctlTransfer},
	OpParEnd:   {name: "par.end", time: tALU, ctl: ctlTransfer},

	// A post completes like a store and a wait like a load of the cell
	// (sync.go); both fence every access of the block they sit in.
	OpPost: {name: "post", syn: synRs1Rs2, rs1: rI, rs2: rI, time: tStore, mem: MemFence},
	OpWait: {name: "wait", syn: synRs1Rs2, rs1: rI, rs2: rI, time: tWait, mem: MemFence},

	OpVcmpLt:  {name: "vcmp.lt", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rV, time: tVec, vl: vlRead},
	OpVcmpLe:  {name: "vcmp.le", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rV, time: tVec, vl: vlRead},
	OpVcmpEq:  {name: "vcmp.eq", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rV, time: tVec, vl: vlRead},
	OpVcmpNe:  {name: "vcmp.ne", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rV, time: tVec, vl: vlRead},
	OpVcmpLts: {name: "vcmp.lts", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rF, time: tVec, vl: vlRead},
	OpVcmpLes: {name: "vcmp.les", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rF, time: tVec, vl: vlRead},
	OpVcmpEqs: {name: "vcmp.eqs", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rF, time: tVec, vl: vlRead},
	OpVcmpNes: {name: "vcmp.nes", syn: synRdRs1Rs2, rd: wM, rs1: rV, rs2: rF, time: tVec, vl: vlRead},
	OpMand:    {name: "mand", syn: synRdRs1Rs2, rd: wM, rs1: rM, rs2: rM, time: tMask, vl: vlRead},
	OpMor:     {name: "mor", syn: synRdRs1Rs2, rd: wM, rs1: rM, rs2: rM, time: tMask, vl: vlRead},
	OpMnot:    {name: "mnot", syn: synRdRs1, rd: wM, rs1: rM, time: tMask, vl: vlRead},
	// Masked forms stream every lane through the pipe and drop the inactive
	// ones at write-back: same timing and FLOPs as their dense twins.
	OpVldm:  {name: "vld.m", syn: synVecMem, rd: wV, rs1: rI, rs2: rI, masked: true, time: tVecMem, vl: vlRead, mem: MemLoad},
	OpVstm:  {name: "vst.m", syn: synVecMem, rd: dV, rs1: rI, rs2: rI, masked: true, time: tVecMem, vl: vlRead, mem: MemStore},
	OpVaddm: {name: "vadd.m", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, masked: true, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVsubm: {name: "vsub.m", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, masked: true, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVmulm: {name: "vmul.m", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, masked: true, time: tVec, vl: vlRead, flops: flopPerLane},
	OpVdivm: {name: "vdiv.m", syn: synRdRs1Rs2, rd: wV, rs1: rV, rs2: rV, masked: true, time: tVdiv, vl: vlRead, flops: flopPerLane},

	OpLd8: {name: "ld8", syn: synLoad, rd: wI, rs1: rI, time: tLoad, mem: MemLoad},
	OpSt8: {name: "st8", syn: synStore, rs1: rI, rs2: dI, time: tStore, mem: MemStore},
}

// opInfo is one row of opTable.
type opInfo struct {
	name string
	syn  syntax // operand syntax of the disassembly
	// What each Instr field names: a register file and whether the
	// instruction writes it, reads it, or reads it as store data.
	rd, rs1, rs2 operand
	// masked: a governing mask register, read, rides in Imm bits 8 and up.
	masked bool
	time   timing
	vl     vlUse
	flops  flopKind
	mem    MemClass
	ctl    ctlKind
}

// RegFile names a register file.
type RegFile uint8

const (
	NoReg   RegFile = iota
	IntReg          // r0..r63
	FltReg          // f0..f63
	VecReg          // a slot of the vector register file, where a vector starts
	MaskReg         // m0..m7
	VLReg           // the vector length register (there is one: number 0)
)

// role is what an instruction does with an operand.
type role uint8

const (
	roleNone role = iota
	roleDef
	roleUse
	// roleData is a store's data operand: read, so the compiler must keep
	// it ordered, but drained through the store buffer, so dispatch waits
	// for the address operands only and not for it.
	roleData
)

type operand struct {
	file RegFile
	role role
}

// reads reports whether the operand is a read of a register of file f.
func (o operand) reads(f RegFile) bool {
	return o.file == f && (o.role == roleUse || o.role == roleData)
}

var (
	wI, rI, dI = operand{IntReg, roleDef}, operand{IntReg, roleUse}, operand{IntReg, roleData}
	wF, rF, dF = operand{FltReg, roleDef}, operand{FltReg, roleUse}, operand{FltReg, roleData}
	wV, rV, dV = operand{VecReg, roleDef}, operand{VecReg, roleUse}, operand{VecReg, roleData}
	wM, rM     = operand{MaskReg, roleDef}, operand{MaskReg, roleUse}
)

// Unit selects the functional unit that executes an op.
type Unit uint8

const (
	UnitInt Unit = iota
	UnitFlt
	UnitMem
	NumUnits
)

// timing is an op's cost on the Scoreboard: it occupies Unit for
// Occ + VScale·VL cycles and its result is ready Lat + VScale·VL cycles
// after issue (VL counted as at least 1).
type timing struct {
	Unit     Unit
	Lat, Occ int32
	VScale   int32
}

var (
	tALU    = timing{UnitInt, 1, 1, 0}
	tMul    = timing{UnitInt, 4, 1, 0}
	tDiv    = timing{UnitInt, 12, 8, 0}
	tMask   = timing{UnitInt, 2, 1, 0}
	tBranch = timing{UnitInt, 2, 1, 0}
	tCall   = timing{UnitInt, 10, 10, 0}
	tRet    = timing{UnitInt, 8, 8, 0}
	tLoad   = timing{UnitMem, 6, 1, 0}
	tStore  = timing{UnitMem, 1, 1, 0}
	tWait   = timing{UnitMem, waitLatency, 1, 0}
	tFP     = timing{UnitFlt, 6, 1, 0}
	tFdiv   = timing{UnitFlt, 18, 12, 0}
	// The per-processor memory path is highly pipelined (§2): one element
	// per cycle after a short set-up.
	tVecMem = timing{UnitMem, 6, 2, 1}
	tVec    = timing{UnitFlt, 8, 4, 1}
	tVdiv   = timing{UnitFlt, 12, 8, 2}
)

// vlUse says whether an op reads the vector length (every lane-wise op,
// the mask combinators included) or sets it (vsetl).
type vlUse uint8

const (
	vlNone vlUse = iota
	vlRead
	vlWrite
)

// flopKind is the op's contribution to the FLOP count.
type flopKind uint8

const (
	flopNone    flopKind = iota
	flopOne              // one per retirement
	flopPerLane          // one per lane of the active vector length
)

// MemClass is how an op orders against memory accesses.
type MemClass uint8

const (
	MemNone  MemClass = iota
	MemLoad           // reorders freely with other loads
	MemStore          // ordered against every load and store
	// MemFence is post and wait: they touch no memory themselves, but the
	// accesses around them are what they synchronize, so none may cross.
	MemFence
)

// ctlKind is how an op bounds the straight-line code around it.
type ctlKind uint8

const (
	ctlNone ctlKind = iota
	// ctlPinned is arg and farg: they fall through, but each appends to the
	// outgoing argument list, so they keep their place.
	ctlPinned
	// ctlTransfer leaves the instruction sequence or marks where another
	// processor's begins and ends.
	ctlTransfer
)

// syntax is an op's operand syntax in the disassembly.
type syntax uint8

const (
	synNone     syntax = iota // nop
	synRdImm                  // ldi r1, 5
	synRdFImm                 // fldi f2, 1.5
	synRdRs1                  // mov r1, r2
	synRdRs1Imm               // addi r1, r2, -4
	synRdRs1Rs2               // add r1, r2, r3
	synRs1                    // arg r2
	synRs1Rs2                 // post r1, r2
	synLoad                   // ld4 r1, 12(r2)
	synStore                  // st2 r3, 6(r2): the data register first
	synVecMem                 // vld v0, (r1), r2, ek4
	synSym                    // jmp L
	synRs1Sym                 // beqz r1, L
)

// asm is a line of disassembly under construction; its methods append one
// piece each, after a separator.
type asm []byte

// reg appends register n of the operand's file; a field the instruction
// does not use prints as an integer register, as it always has.
func (a asm) reg(sep string, o operand, n int) asm {
	a = append(append(a, sep...), "rrfvm"[o.file])
	return strconv.AppendInt(a, int64(n), 10)
}

func (a asm) int(sep string, v int64) asm {
	return strconv.AppendInt(append(a, sep...), v, 10)
}

// String disassembles one instruction. A masked op's governing mask
// register comes last.
func (in Instr) String() string {
	if in.Op < 0 || in.Op >= numOps {
		return "op" + strconv.Itoa(int(in.Op))
	}
	info := &opTable[in.Op]
	a := append(make(asm, 0, 48), info.name...)
	switch info.syn {
	case synRdImm:
		a = a.reg(" ", info.rd, in.Rd).int(", ", in.Imm)
	case synRdFImm:
		a = fmt.Appendf(a.reg(" ", info.rd, in.Rd), ", %g", in.FImm)
	case synRdRs1:
		a = a.reg(" ", info.rd, in.Rd).reg(", ", info.rs1, in.Rs1)
	case synRdRs1Imm:
		a = a.reg(" ", info.rd, in.Rd).reg(", ", info.rs1, in.Rs1).int(", ", in.Imm)
	case synRdRs1Rs2:
		a = a.reg(" ", info.rd, in.Rd).reg(", ", info.rs1, in.Rs1).reg(", ", info.rs2, in.Rs2)
	case synRs1:
		a = a.reg(" ", info.rs1, in.Rs1)
	case synRs1Rs2:
		a = a.reg(" ", info.rs1, in.Rs1).reg(", ", info.rs2, in.Rs2)
	case synLoad:
		a = append(a.reg(" ", info.rd, in.Rd).int(", ", in.Imm).reg("(", info.rs1, in.Rs1), ')')
	case synStore:
		a = append(a.reg(" ", info.rs2, in.Rs2).int(", ", in.Imm).reg("(", info.rs1, in.Rs1), ')')
	case synVecMem:
		kind := in.Imm
		if info.masked {
			kind &= 0xff
		}
		a = a.reg(" ", info.rd, in.Rd).reg(", (", info.rs1, in.Rs1).reg("), ", info.rs2, in.Rs2).int(", ek", kind)
	case synSym:
		a = append(append(a, ' '), in.Sym...)
	case synRs1Sym:
		a = append(a.reg(" ", info.rs1, in.Rs1), ", "...)
		a = append(a, in.Sym...)
	}
	if info.masked {
		a = a.int(", m", in.Imm>>8)
	}
	return string(a)
}

// Ref names one register. Num is 32 bits wide so that a Refs, which the
// register allocator keeps for every instruction of a function, is 52
// bytes rather than 120.
type Ref struct {
	File RegFile
	Num  int32
}

// Refs is the registers an instruction writes and reads, in fixed-size
// storage (no instruction writes more than one register or reads more than
// five — vst.m reads a vector, base, stride, mask and VL), so taking them
// never allocates.
type Refs struct {
	defs [1]Ref
	uses [5]Ref
	nDef uint8
	nUse uint8
	data uint8 // bit k: uses[k] is store data
}

// Defs is the registers written.
func (r *Refs) Defs() []Ref { return r.defs[:r.nDef] }

// Uses is the registers read, store data included.
func (r *Refs) Uses() []Ref { return r.uses[:r.nUse] }

// IsData reports whether Uses()[k] is store data, which dispatch does not
// wait for.
func (r *Refs) IsData(k int) bool { return r.data>>k&1 != 0 }

func (r *Refs) add(o operand, n int) {
	switch o.role {
	case roleDef:
		r.defs[r.nDef] = Ref{o.file, int32(n)}
		r.nDef++
	case roleUse, roleData:
		if o.role == roleData {
			r.data |= 1 << r.nUse
		}
		r.uses[r.nUse] = Ref{o.file, int32(n)}
		r.nUse++
	}
}

// Refs returns the registers the instruction writes and reads, numbered as
// the instruction numbers them (a vector by its first slot).
func (in Instr) Refs() (r Refs) {
	info := &opTable[in.Op]
	r.add(info.rd, in.Rd)
	r.add(info.rs1, in.Rs1)
	r.add(info.rs2, in.Rs2)
	if info.masked {
		r.add(rM, int(in.Imm>>8))
	}
	switch info.vl {
	case vlRead:
		r.add(operand{VLReg, roleUse}, 0)
	case vlWrite:
		r.add(operand{VLReg, roleDef}, 0)
	}
	return r
}

// RenameUses makes every operand that reads register from read register
// to of the same file instead; what the instruction writes is unchanged.
func (in *Instr) RenameUses(from Ref, to int) {
	info := &opTable[in.Op]
	if in.Rd == int(from.Num) && info.rd.reads(from.File) {
		in.Rd = to
	}
	if in.Rs1 == int(from.Num) && info.rs1.reads(from.File) {
		in.Rs1 = to
	}
	if in.Rs2 == int(from.Num) && info.rs2.reads(from.File) {
		in.Rs2 = to
	}
}

// Writes reports whether the instruction writes register r of the integer
// or the float file.
func (in *Instr) Writes(r Ref) bool {
	rd := opTable[in.Op].rd
	return in.Rd == int(r.Num) && rd.role == roleDef && rd.file == r.File
}

// Mem is how the op orders against memory accesses.
func (op Op) Mem() MemClass { return opTable[op].mem }

// IsControl reports whether the op ends a basic block: a scheduler moves
// nothing across it.
func (op Op) IsControl() bool { return opTable[op].ctl != ctlNone }

// Transfers reports whether control leaves the instruction sequence at the
// op (or another processor's sequence begins or ends there): arg and farg,
// which only fall through, are control but do not transfer.
func (op Op) Transfers() bool { return opTable[op].ctl == ctlTransfer }

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
	// run and then shared read-only by every Machine simulating this
	// program — Programs are always handled by pointer. Mutating Funcs
	// after a run is not supported. vregs, built with it for both engines,
	// is one past the highest vector-register slot any instruction names,
	// the base of every context's live extent (see cpuState.vhi).
	decOnce sync.Once
	decoded map[string]*dfunc
	vregs   int
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

// Disassemble renders a function listing. Labels that share an address
// print in name order.
func (f *Func) Disassemble() string {
	var sb strings.Builder
	rev := map[int][]string{}
	for l, i := range f.Labels {
		rev[i] = append(rev[i], l)
	}
	for _, ls := range rev {
		slices.Sort(ls)
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

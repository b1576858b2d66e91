package titan

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// The fast engine. Run executes the same programs as RunReference with a
// bit-identical Result, but restructured for host throughput:
//
//   - every Func is pre-decoded once per Program into a dense []dinstr
//     with its opTable row (unit, latency, occupancy, vl scaling,
//     operand and destination scoreboard slots) and branch targets
//     folded into each instruction, so the hot loop runs one branch-free
//     charge plus one semantic switch instead of the reference's table
//     walk and switch per retired instruction;
//   - Trace and per-instruction budget checks are hoisted out of the
//     straight-line path (budget is re-checked at every control
//     transfer, which every loop must make);
//   - common pairs execute as superinstructions: ALU/compare + Beqz/Bnez
//     and Fld4/Fld8 + float arithmetic retire in one loop iteration
//     (both instructions still charge the scoreboard individually, so
//     simulated timing is unchanged);
//   - vector memory and arithmetic run as bulk kernels over the memory
//     slab and register file with the element-kind switch, bounds
//     checks, and slot wrap-around hoisted out of the per-element loop
//     (stride-1 loads/stores of float64 reinterpret the slab directly);
//   - parallel regions fan out one goroutine per simulated processor
//     over the shared slab, joined with the reference's max-delta +
//     fork-overhead cycle model.

// fuseKind marks a superinstruction: this op and its successor retire
// together in one loop iteration.
type fuseKind uint8

const (
	fuseNone   fuseKind = iota
	fuseBranch          // ALU/compare + Beqz/Bnez
	fuseFltBin          // Fld4/Fld8 + Fadd/Fsub/Fmul/Fdiv
)

// dinstr is one pre-decoded instruction: the Instr operands plus
// everything dispatch looks up in opTable per retirement, resolved to
// where it lives — scoreboard slots and unit as byte offsets into cpu,
// latency/occupancy and their vl scaling, FLOP contribution — and
// resolved control-flow targets. Vector and mask register indices are
// pre-wrapped into their files.
type dinstr struct {
	// Hot fields first: the dispatch loop and the inlined charge touch
	// only these, keeping the per-instruction working set to about one
	// cache line of the decoded stream.
	op  Op
	rd  int32
	rs1 int32
	rs2 int32
	tgt int32 // branch target pc, or par.end index; -1 if unresolved
	// Byte offsets into the cpu struct of the operand ready-times,
	// the destination ready-time, and the issuing unit, so charge runs
	// branch-free: absent operands point at cpu.sbZero (always zero)
	// and absent destinations at cpu.sbSink (never read). s3off is the
	// governing mask register of masked vector ops (sbZero otherwise).
	s1off   int32
	s2off   int32
	s3off   int32
	doff    int32
	unitOff int32
	lat     int32
	occ     int32
	vsc     int32 // latency/occupancy grow by vsc·vl (0, 1, or 2)
	flc     int32 // constant FLOP contribution per retirement
	flv     int32 // per-vector-lane FLOP contribution (× clamped vl)
	imm     int64
	fimm    float64

	fuse   fuseKind
	sym    string
	errMsg string // decode-time diagnosis, raised only if executed
}

// dfunc is a pre-decoded function.
type dfunc struct {
	name  string
	frame int64
	code  []dinstr
}

// Byte offsets of the scoreboard arrays and unit clocks within cpu,
// the basis of the decoded charge offsets.
var (
	offIntReady  = int32(unsafe.Offsetof(cpu{}.intReady))
	offFltReady  = int32(unsafe.Offsetof(cpu{}.fltReady))
	offVecReady  = int32(unsafe.Offsetof(cpu{}.vecReady))
	offMaskReady = int32(unsafe.Offsetof(cpu{}.maskReady))
	offSbZero    = int32(unsafe.Offsetof(cpu{}.sbZero))
	offSbSink    = int32(unsafe.Offsetof(cpu{}.sbSink))
	offUnit      = [...]int32{
		uInt: int32(unsafe.Offsetof(cpu{}.intUnit)),
		uFlt: int32(unsafe.Offsetof(cpu{}.fltUnit)),
		uMem: int32(unsafe.Offsetof(cpu{}.memUnit)),
	}
)

// wrapReg maps a vector or mask register index into its file, the way the
// reference wraps it at every access; other files' indices pass through.
func wrapReg(file RegFile, n int) int32 {
	switch file {
	case VecReg:
		return int32(vslot(n))
	case MaskReg:
		return int32(mslot(n))
	}
	return int32(n)
}

// sbOff resolves the scoreboard slot of register r (already wrapped) of a
// file to its byte offset in cpu. Register indexes are validated here so
// the unchecked pointer arithmetic in charge can never stray: the
// reference would panic on the same malformed instruction at execution
// time, the decoder simply reports it up front.
func sbOff(file RegFile, r int32) int32 {
	switch file {
	case IntReg:
		if r < 0 || r >= NumIntRegs {
			panic(fmt.Sprintf("titan: decode: integer register r%d out of range", r))
		}
		return offIntReady + 8*r
	case FltReg:
		if r < 0 || r >= NumFltRegs {
			panic(fmt.Sprintf("titan: decode: float register f%d out of range", r))
		}
		return offFltReady + 8*r
	case VecReg:
		return offVecReady + 8*r
	default:
		return offMaskReady + 8*r
	}
}

// srcOff is the slot charge waits on for an operand: the register's when
// the op reads it at dispatch, else the always-zero one.
func srcOff(o operand, r int32) int32 {
	if o.role == roleUse {
		return sbOff(o.file, r)
	}
	return offSbZero
}

// decode builds the decoded form of every function and the program's
// vector-slot bound, once. Concurrent Machines sharing a Program race
// here only through the sync.Once.
func (p *Program) decode() {
	p.decOnce.Do(func() {
		p.decoded = make(map[string]*dfunc, len(p.Funcs))
		for name, f := range p.Funcs {
			p.decoded[name] = decodeFunc(f)
			p.vregs = max(p.vregs, vecSlots(f))
		}
	})
}

// vecSlots is one past the highest vector-register slot, wrapped into the
// file, that an instruction of f names; 0 when f has no vector operand.
func vecSlots(f *Func) int {
	n := 0
	slot := func(o operand, r int) {
		if o.file == VecReg {
			n = max(n, vslot(r)+1)
		}
	}
	for _, in := range f.Instrs {
		info := &opTable[in.Op]
		slot(info.rd, in.Rd)
		slot(info.rs1, in.Rs1)
		slot(info.rs2, in.Rs2)
	}
	return n
}

// fusableALU ops may lead a fuseBranch pair: register-only, no faults,
// no control flow.
func fusableALU(op Op) bool {
	switch op {
	case OpLdi, OpMov, OpAdd, OpSub, OpAddi, OpAnd, OpOr, OpXor, OpNeg, OpNot,
		OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe,
		OpFcmpEq, OpFcmpNe, OpFcmpLt, OpFcmpLe, OpFcmpGt, OpFcmpGe:
		return true
	}
	return false
}

func isFltBin(op Op) bool {
	switch op {
	case OpFadd, OpFsub, OpFmul, OpFdiv:
		return true
	}
	return false
}

func decodeFunc(f *Func) *dfunc {
	n := len(f.Instrs)
	df := &dfunc{name: f.Name, frame: f.Frame, code: make([]dinstr, n)}
	isTarget := make([]bool, n+1)
	for _, t := range f.Labels {
		if t >= 0 && t <= n {
			isTarget[t] = true
		}
	}
	for pc, in := range f.Instrs {
		d := &df.code[pc]
		d.op = in.Op
		d.imm, d.fimm, d.sym = in.Imm, in.FImm, in.Sym
		// The row's facts, resolved: file indices wrapped so the hot path
		// indexes the ready arrays and kernel fast paths directly, slots and
		// unit as offsets, timing and FLOPs as plain numbers.
		info := &opTable[in.Op]
		d.rd = wrapReg(info.rd.file, in.Rd)
		d.rs1 = wrapReg(info.rs1.file, in.Rs1)
		d.rs2 = wrapReg(info.rs2.file, in.Rs2)
		d.s1off = srcOff(info.rs1, d.rs1)
		d.s2off = srcOff(info.rs2, d.rs2)
		d.s3off = offSbZero
		if info.masked {
			d.s3off = sbOff(MaskReg, int32(maskReg(in)))
		}
		d.doff = offSbSink
		if info.rd.role == roleDef {
			d.doff = sbOff(info.rd.file, d.rd)
		}
		d.unitOff = offUnit[info.time.unit]
		d.lat, d.occ, d.vsc = info.time.lat, info.time.occ, info.time.vscale
		switch info.flops {
		case flopOne:
			d.flc = 1
		case flopPerLane:
			d.flv = 1
		}
		switch in.Op {
		case OpJmp, OpBeqz, OpBnez:
			if t, ok := f.Labels[in.Sym]; ok {
				d.tgt = int32(t)
			} else {
				// The reference faults only when the branch is actually
				// taken; keep a lazy error so dead code stays dead.
				d.tgt = -1
				d.errMsg = fmt.Sprintf("titan: unknown label %q in %s", in.Sym, f.Name)
			}
		case OpParBegin:
			end := matchParEnd(f.Instrs, pc)
			d.tgt = int32(end)
			// Flag regions containing post/wait (imm is unused by
			// par.begin): they need the synchronization fabric and the
			// truly concurrent execution path.
			if end >= 0 && hasSyncOps(f.Instrs, pc+1, end) {
				d.imm = 1
			}
		}
	}
	// Fusion pass: pair an eligible op with its successor unless the
	// successor is a jump target (it must stay independently reachable).
	// Par markers can never appear in a pair, so pairs never straddle a
	// region boundary or its stop point.
	for pc := 0; pc+1 < n; pc++ {
		d := &df.code[pc]
		if isTarget[pc+1] {
			continue
		}
		d2 := &df.code[pc+1]
		switch {
		case fusableALU(d.op) && (d2.op == OpBeqz || d2.op == OpBnez):
			d.fuse = fuseBranch
			pc++
		case (d.op == OpFld4 || d.op == OpFld8) && isFltBin(d2.op):
			d.fuse = fuseFltBin
			pc++
		}
	}
	return df
}

// charge advances the scoreboard for one decoded instruction: the
// reference dispatch with its opTable lookups replaced by decoded byte
// offsets into the cpu struct, so the hot path is branch-free — operand
// and destination slots, the issuing unit, the vl scaling, and the FLOP
// contribution are all straight loads through pre-validated offsets.
func (c *cpu) charge(d *dinstr) {
	base := unsafe.Pointer(c)
	ready := c.clock
	if t := *(*int64)(unsafe.Add(base, uintptr(d.s1off))); t > ready {
		ready = t
	}
	if t := *(*int64)(unsafe.Add(base, uintptr(d.s2off))); t > ready {
		ready = t
	}
	if t := *(*int64)(unsafe.Add(base, uintptr(d.s3off))); t > ready {
		ready = t
	}

	vl := c.vlc
	scale := int64(d.vsc) * vl

	unit := (*int64)(unsafe.Add(base, uintptr(d.unitOff)))
	issue := ready
	if *unit > issue {
		issue = *unit
	}
	*unit = issue + int64(d.occ) + scale
	done := issue + int64(d.lat) + scale
	c.clock = issue + 1
	if done > c.cycles {
		c.cycles = done
	}
	*(*int64)(unsafe.Add(base, uintptr(d.doff))) = done
	c.flops += int64(d.flc) + int64(d.flv)*vl
}

// runFastEntry is Run's engine path.
func (m *Machine) runFastEntry(entry string) (Result, error) {
	m.prog.decode()
	df, ok := m.prog.decoded[entry]
	if !ok {
		return Result{}, fmt.Errorf("titan: no function %q", entry)
	}
	c := m.root
	if m.rootUsed {
		c = new(cpu)
	}
	m.rootUsed = true
	maxInstrs, err := m.begin(c, entry, df.frame)
	if err != nil {
		return Result{}, err
	}
	if err := c.runFast(df, 0, -1, maxInstrs); err != nil {
		return Result{}, err
	}
	return m.result(c), nil
}

func (c *cpu) budgetErr(df *dfunc) error {
	return fmt.Errorf("titan: instruction budget exhausted in %s (possible infinite loop)", df.name)
}

// runFast executes decoded instructions from pc until RET/HALT
// (stop == -1) or instruction index stop (parallel regions). The
// instruction budget is enforced at control transfers only — every loop
// must make one — so straight-line code pays no per-instruction check.
func (c *cpu) runFast(df *dfunc, pc, stop int, maxInstrs int64) error {
	code := df.code
	mem := c.m.mem
	memLen := int64(len(mem))
	for pc < len(code) {
		if pc == stop {
			return nil
		}
		d := &code[pc]
		c.icount++
		// charge(d), inlined by hand: the compiler judges the method
		// too large to inline and this is the single hottest call in
		// the engine (see charge for the commented version).
		{
			cb := unsafe.Pointer(c)
			ready := c.clock
			if t := *(*int64)(unsafe.Add(cb, uintptr(d.s1off))); t > ready {
				ready = t
			}
			if t := *(*int64)(unsafe.Add(cb, uintptr(d.s2off))); t > ready {
				ready = t
			}
			if t := *(*int64)(unsafe.Add(cb, uintptr(d.s3off))); t > ready {
				ready = t
			}
			vl := c.vlc
			scale := int64(d.vsc) * vl
			unit := (*int64)(unsafe.Add(cb, uintptr(d.unitOff)))
			issue := ready
			if *unit > issue {
				issue = *unit
			}
			*unit = issue + int64(d.occ) + scale
			done := issue + int64(d.lat) + scale
			c.clock = issue + 1
			if done > c.cycles {
				c.cycles = done
			}
			*(*int64)(unsafe.Add(cb, uintptr(d.doff))) = done
			c.flops += int64(d.flc) + int64(d.flv)*vl
		}
		switch d.op {
		case OpNop:
		case OpLdi:
			c.r[d.rd] = d.imm
		case OpMov:
			c.r[d.rd] = c.r[d.rs1]
		case OpAdd:
			c.r[d.rd] = c.r[d.rs1] + c.r[d.rs2]
		case OpSub:
			c.r[d.rd] = c.r[d.rs1] - c.r[d.rs2]
		case OpMul:
			c.r[d.rd] = c.r[d.rs1] * c.r[d.rs2]
		case OpDiv:
			if c.r[d.rs2] == 0 {
				return fmt.Errorf("titan: integer division by zero in %s", df.name)
			}
			c.r[d.rd] = c.r[d.rs1] / c.r[d.rs2]
		case OpRem:
			if c.r[d.rs2] == 0 {
				return fmt.Errorf("titan: integer remainder by zero in %s", df.name)
			}
			c.r[d.rd] = c.r[d.rs1] % c.r[d.rs2]
		case OpAnd:
			c.r[d.rd] = c.r[d.rs1] & c.r[d.rs2]
		case OpOr:
			c.r[d.rd] = c.r[d.rs1] | c.r[d.rs2]
		case OpXor:
			c.r[d.rd] = c.r[d.rs1] ^ c.r[d.rs2]
		case OpShl:
			c.r[d.rd] = c.r[d.rs1] << uint(c.r[d.rs2]&63)
		case OpShr:
			c.r[d.rd] = c.r[d.rs1] >> uint(c.r[d.rs2]&63)
		case OpAddi:
			c.r[d.rd] = c.r[d.rs1] + d.imm
		case OpMuli:
			c.r[d.rd] = c.r[d.rs1] * d.imm
		case OpNeg:
			c.r[d.rd] = -c.r[d.rs1]
		case OpNot:
			c.r[d.rd] = b2i(c.r[d.rs1] == 0)
		case OpBnot:
			c.r[d.rd] = ^c.r[d.rs1]
		case OpCmpEq:
			c.r[d.rd] = b2i(c.r[d.rs1] == c.r[d.rs2])
		case OpCmpNe:
			c.r[d.rd] = b2i(c.r[d.rs1] != c.r[d.rs2])
		case OpCmpLt:
			c.r[d.rd] = b2i(c.r[d.rs1] < c.r[d.rs2])
		case OpCmpLe:
			c.r[d.rd] = b2i(c.r[d.rs1] <= c.r[d.rs2])
		case OpCmpGt:
			c.r[d.rd] = b2i(c.r[d.rs1] > c.r[d.rs2])
		case OpCmpGe:
			c.r[d.rd] = b2i(c.r[d.rs1] >= c.r[d.rs2])
		case OpPid:
			c.r[d.rd] = c.pid
		case OpNproc:
			c.r[d.rd] = int64(c.m.Processors)

		case OpLd1:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-1) {
				return &Fault{Addr: a, Size: 1, Kind: "load", Func: df.name, PC: pc}
			}
			c.r[d.rd] = int64(int8(mem[a]))
		case OpLd2:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-2) {
				return &Fault{Addr: a, Size: 2, Kind: "load", Func: df.name, PC: pc}
			}
			c.r[d.rd] = int64(int16(binary.LittleEndian.Uint16(mem[a:])))
		case OpLd4:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-4) {
				return &Fault{Addr: a, Size: 4, Kind: "load", Func: df.name, PC: pc}
			}
			c.r[d.rd] = int64(int32(binary.LittleEndian.Uint32(mem[a:])))
		case OpSt1:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-1) {
				return &Fault{Addr: a, Size: 1, Kind: "store", Func: df.name, PC: pc}
			}
			mem[a] = byte(c.r[d.rs2])
		case OpSt2:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-2) {
				return &Fault{Addr: a, Size: 2, Kind: "store", Func: df.name, PC: pc}
			}
			binary.LittleEndian.PutUint16(mem[a:], uint16(c.r[d.rs2]))
		case OpSt4:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-4) {
				return &Fault{Addr: a, Size: 4, Kind: "store", Func: df.name, PC: pc}
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(c.r[d.rs2]))
		case OpFld4:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-4) {
				return &Fault{Addr: a, Size: 4, Kind: "load", Func: df.name, PC: pc}
			}
			c.f[d.rd] = float64(math.Float32frombits(binary.LittleEndian.Uint32(mem[a:])))
		case OpFld8:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-8) {
				return &Fault{Addr: a, Size: 8, Kind: "load", Func: df.name, PC: pc}
			}
			c.f[d.rd] = math.Float64frombits(binary.LittleEndian.Uint64(mem[a:]))
		case OpFst4:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-4) {
				return &Fault{Addr: a, Size: 4, Kind: "store", Func: df.name, PC: pc}
			}
			binary.LittleEndian.PutUint32(mem[a:], math.Float32bits(float32(c.f[d.rs2])))
		case OpFst8:
			a := c.r[d.rs1] + d.imm
			if uint64(a) > uint64(memLen-8) {
				return &Fault{Addr: a, Size: 8, Kind: "store", Func: df.name, PC: pc}
			}
			binary.LittleEndian.PutUint64(mem[a:], math.Float64bits(c.f[d.rs2]))

		case OpFldi:
			c.f[d.rd] = d.fimm
		case OpFmov:
			c.f[d.rd] = c.f[d.rs1]
		case OpFadd:
			c.f[d.rd] = c.f[d.rs1] + c.f[d.rs2]
		case OpFsub:
			c.f[d.rd] = c.f[d.rs1] - c.f[d.rs2]
		case OpFmul:
			c.f[d.rd] = c.f[d.rs1] * c.f[d.rs2]
		case OpFdiv:
			c.f[d.rd] = c.f[d.rs1] / c.f[d.rs2]
		case OpFneg:
			c.f[d.rd] = -c.f[d.rs1]
		case OpFcmpEq:
			c.r[d.rd] = b2i(c.f[d.rs1] == c.f[d.rs2])
		case OpFcmpNe:
			c.r[d.rd] = b2i(c.f[d.rs1] != c.f[d.rs2])
		case OpFcmpLt:
			c.r[d.rd] = b2i(c.f[d.rs1] < c.f[d.rs2])
		case OpFcmpLe:
			c.r[d.rd] = b2i(c.f[d.rs1] <= c.f[d.rs2])
		case OpFcmpGt:
			c.r[d.rd] = b2i(c.f[d.rs1] > c.f[d.rs2])
		case OpFcmpGe:
			c.r[d.rd] = b2i(c.f[d.rs1] >= c.f[d.rs2])
		case OpCvtIF:
			c.f[d.rd] = float64(c.r[d.rs1])
		case OpCvtFI:
			c.r[d.rd] = int64(c.f[d.rs1])

		case OpVsetl:
			c.setVL(c.r[d.rs1])
			c.vlc = max(c.vl, 1)
		case OpVld:
			if err := c.vldFast(d, df.name, pc); err != nil {
				return err
			}
		case OpVst:
			if err := c.vstFast(d, df.name, pc); err != nil {
				return err
			}
		case OpVadd, OpVsub, OpVmul, OpVdiv:
			c.vbinFast(d)
		case OpVadds, OpVsubs, OpVsubsr, OpVmuls, OpVdivs, OpVdivsr:
			c.vscalarFast(d)
		case OpVmov:
			c.vmovFast(d)
		case OpVbcast:
			c.vbcastFast(d)

		case OpVcmpLt:
			c.vcmpVVFast(d, func(a, b float64) bool { return a < b })
		case OpVcmpLe:
			c.vcmpVVFast(d, func(a, b float64) bool { return a <= b })
		case OpVcmpEq:
			c.vcmpVVFast(d, func(a, b float64) bool { return a == b })
		case OpVcmpNe:
			c.vcmpVVFast(d, func(a, b float64) bool { return a != b })
		case OpVcmpLts:
			c.vcmpVSFast(d, func(a, s float64) bool { return a < s })
		case OpVcmpLes:
			c.vcmpVSFast(d, func(a, s float64) bool { return a <= s })
		case OpVcmpEqs:
			c.vcmpVSFast(d, func(a, s float64) bool { return a == s })
		case OpVcmpNes:
			c.vcmpVSFast(d, func(a, s float64) bool { return a != s })
		case OpMand:
			c.maskCombine(Instr{Rd: int(d.rd), Rs1: int(d.rs1), Rs2: int(d.rs2)},
				func(a, b uint64) uint64 { return a & b })
		case OpMor:
			c.maskCombine(Instr{Rd: int(d.rd), Rs1: int(d.rs1), Rs2: int(d.rs2)},
				func(a, b uint64) uint64 { return a | b })
		case OpMnot:
			c.maskCombine(Instr{Rd: int(d.rd), Rs1: int(d.rs1), Rs2: int(d.rs2)},
				func(a, _ uint64) uint64 { return ^a })
		case OpVldm:
			if err := c.vldmFast(d, df.name, pc); err != nil {
				return err
			}
		case OpVstm:
			if err := c.vstmFast(d, df.name, pc); err != nil {
				return err
			}
		case OpVaddm:
			c.vbinmFast(d, OpVadd, func(a, b float64) float64 { return a + b })
		case OpVsubm:
			c.vbinmFast(d, OpVsub, func(a, b float64) float64 { return a - b })
		case OpVmulm:
			c.vbinmFast(d, OpVmul, func(a, b float64) float64 { return a * b })
		case OpVdivm:
			c.vbinmFast(d, OpVdiv, func(a, b float64) float64 { return a / b })

		case OpJmp:
			if c.icount >= maxInstrs {
				return c.budgetErr(df)
			}
			if d.tgt < 0 {
				return fmt.Errorf("%s", d.errMsg)
			}
			pc = int(d.tgt)
			continue
		case OpBeqz:
			if c.icount >= maxInstrs {
				return c.budgetErr(df)
			}
			if c.r[d.rs1] == 0 {
				if d.tgt < 0 {
					return fmt.Errorf("%s", d.errMsg)
				}
				pc = int(d.tgt)
				continue
			}
		case OpBnez:
			if c.icount >= maxInstrs {
				return c.budgetErr(df)
			}
			if c.r[d.rs1] != 0 {
				if d.tgt < 0 {
					return fmt.Errorf("%s", d.errMsg)
				}
				pc = int(d.tgt)
				continue
			}
		case OpArg:
			c.args = append(c.args, argval{i: c.r[d.rs1]})
		case OpFarg:
			c.args = append(c.args, argval{f: c.f[d.rs1], isFlt: true})
		case OpCall:
			if c.icount >= maxInstrs {
				return c.budgetErr(df)
			}
			if err := c.callFast(d, df, pc, maxInstrs); err != nil {
				return err
			}
		case OpRet, OpHalt:
			return nil

		case OpParBegin:
			if c.icount >= maxInstrs {
				return c.budgetErr(df)
			}
			if d.tgt < 0 {
				return fmt.Errorf("titan: unmatched par.begin in %s", df.name)
			}
			end := int(d.tgt)
			if err := c.parallelRegionFast(df, pc+1, end, maxInstrs, d.imm == 1); err != nil {
				return err
			}
			pc = end + 1
			continue
		case OpParEnd:
			return fmt.Errorf("titan: stray par.end in %s", df.name)

		case OpPost:
			if c.sync == nil || !c.inRegionFrame {
				return fmt.Errorf("titan: post outside parallel region in %s", df.name)
			}
			cell := c.r[d.rs1]
			if cell < 0 || cell >= NumSyncCells {
				return &Fault{Addr: cell, Size: 8, Kind: "sync post", Func: df.name, PC: pc}
			}
			// The inlined charge left clock = issue+1; the post's value
			// becomes visible at issue+lat, the store-like completion.
			c.sync.post(int(cell), c.r[d.rs2], c.clock-1+int64(d.lat))
		case OpWait:
			if c.sync == nil || !c.inRegionFrame {
				return fmt.Errorf("titan: wait outside parallel region in %s", df.name)
			}
			cell := c.r[d.rs1]
			if cell < 0 || cell >= NumSyncCells {
				return &Fault{Addr: cell, Size: 8, Kind: "sync wait", Func: df.name, PC: pc}
			}
			t, err := c.sync.waitFast(int(c.pid), int(cell), c.r[d.rs2], df.name)
			if err != nil {
				return err
			}
			done := c.clock - 1 + int64(d.lat)
			if eff := t + waitLatency; eff > done {
				c.syncStall += eff - done
				c.clock = eff
				if eff > c.cycles {
					c.cycles = eff
				}
			}

		default:
			return fmt.Errorf("titan: unimplemented op %v", d.op)
		}

		if d.fuse != fuseNone {
			d2 := &code[pc+1]
			c.icount++
			// charge(d2), inlined by hand like the dispatch site above.
			{
				cb := unsafe.Pointer(c)
				ready := c.clock
				if t := *(*int64)(unsafe.Add(cb, uintptr(d2.s1off))); t > ready {
					ready = t
				}
				if t := *(*int64)(unsafe.Add(cb, uintptr(d2.s2off))); t > ready {
					ready = t
				}
				if t := *(*int64)(unsafe.Add(cb, uintptr(d2.s3off))); t > ready {
					ready = t
				}
				vl := c.vlc
				scale := int64(d2.vsc) * vl
				unit := (*int64)(unsafe.Add(cb, uintptr(d2.unitOff)))
				issue := ready
				if *unit > issue {
					issue = *unit
				}
				*unit = issue + int64(d2.occ) + scale
				done := issue + int64(d2.lat) + scale
				c.clock = issue + 1
				if done > c.cycles {
					c.cycles = done
				}
				*(*int64)(unsafe.Add(cb, uintptr(d2.doff))) = done
				c.flops += int64(d2.flc) + int64(d2.flv)*vl
			}
			if d.fuse == fuseBranch {
				if c.icount >= maxInstrs {
					return c.budgetErr(df)
				}
				if (d2.op == OpBeqz) == (c.r[d2.rs1] == 0) {
					if d2.tgt < 0 {
						return fmt.Errorf("%s", d2.errMsg)
					}
					pc = int(d2.tgt)
					continue
				}
			} else { // fuseFltBin
				switch d2.op {
				case OpFadd:
					c.f[d2.rd] = c.f[d2.rs1] + c.f[d2.rs2]
				case OpFsub:
					c.f[d2.rd] = c.f[d2.rs1] - c.f[d2.rs2]
				case OpFmul:
					c.f[d2.rd] = c.f[d2.rs1] * c.f[d2.rs2]
				case OpFdiv:
					c.f[d2.rd] = c.f[d2.rs1] / c.f[d2.rs2]
				}
			}
			pc += 2
			continue
		}
		pc++
	}
	return nil
}

// callFast is call over decoded functions.
func (c *cpu) callFast(d *dinstr, df *dfunc, pc int, maxInstrs int64) error {
	if handled, err := c.intrinsic(d.sym, df.name, pc); handled {
		return err
	}
	callee, ok := c.m.prog.decoded[d.sym]
	if !ok {
		return fmt.Errorf("titan: call to undefined function %q", d.sym)
	}
	var w window
	if err := c.pushWindow(&w, callee.frame, df.name, pc); err != nil {
		return err
	}
	if err := c.runFast(callee, 0, -1, maxInstrs); err != nil {
		return err
	}
	c.popWindow(&w)
	return nil
}

// parallelRegionFast runs [start, end) once per processor, one goroutine
// each, over the shared memory slab. Registers, the VRF, and the
// scoreboard are private per processor (forkTo copies them); output
// goes to a private builder per processor and is concatenated in pid
// order at the join, which makes it byte-identical to the reference's
// serialized pid-order execution. Memory is genuinely shared and
// unsynchronized — safe because the compiler only builds parallel
// regions from loops its dependence analysis proved iteration-disjoint
// (see DESIGN.md, "Execution engine").
//
// Cycle accounting is regionJoin's, like the reference.
func (c *cpu) parallelRegionFast(df *dfunc, start, end int, maxInstrs int64, hasSync bool) error {
	procs := c.m.Processors
	join := c.fork()
	parentOut := c.out
	savedSync, savedFrame := c.sync, c.inRegionFrame
	// Pids 1.. fork copies of the cpu's live state into the Machine's
	// reusable scratch block, which also holds the region's fabric and
	// WaitGroup, so a region allocates nothing but its goroutines.
	var scr *regionScratch
	if procs > 1 || hasSync {
		scr = c.m.claimScratch()
		defer c.m.releaseScratch(scr)
	}
	// A sync region gets its fabric even on one processor: posts must land
	// somewhere, and a wait that nothing could satisfy must deadlock
	// (procs == 1 trips the all-blocked detection immediately).
	var ss *syncState
	if hasSync {
		ss = &scr.fabric
		ss.reset(procs)
	}
	// Pid 0 executes on c itself: its state is the one the join adopts
	// anyway, so a P-processor region costs P-1 struct copies.
	c.pid = 0
	c.sync, c.inRegionFrame = ss, hasSync
	if procs == 1 {
		// Nothing to fork, and no other processor's output to order this
		// one's against: run in place, straight to the parent's sink.
		if err := c.runFast(df, start, end, maxInstrs); err != nil {
			return err
		}
		c.sync, c.inRegionFrame = savedSync, savedFrame
		join.add(0, c)
		join.finish(c, 1)
		return nil
	}
	// Every processor writes output to its own builder and the join
	// concatenates them in pid order, byte-identical to the reference's
	// serialized pid-order run.
	//
	// Sync regions must fan out for real even on a single-core host:
	// their processors block on each other mid-region, which the
	// serialized fallback cannot express (goroutines still interleave
	// at the blocking points under GOMAXPROCS=1).
	concurrent := engineHostParallelism > 1 || hasSync
	if concurrent {
		for pid := 1; pid < procs; pid++ {
			sub := &scr.subs[pid-1]
			c.forkTo(sub, pid, &scr.outs[pid])
			scr.wg.Add(1)
			// ss and the WaitGroup go in as arguments: captured, they
			// would live on the heap, one allocation per region even on
			// the paths above.
			go func(sub *cpu, err *error, ss *syncState, wg *sync.WaitGroup) {
				defer wg.Done()
				*err = sub.runForked(df, start, end, maxInstrs, ss)
			}(sub, &scr.errs[pid], ss, &scr.wg)
		}
	} else {
		// Single host core: goroutines cannot overlap, so fan-out is
		// pure overhead — run the extra processors serialized instead,
		// one reused scratch context. The join math is
		// order-independent and a region's memory writes are
		// iteration-disjoint by construction, so executing pids 1..
		// before pid 0 changes nothing observable.
		sub := &scr.subs[0]
		for pid := 1; pid < procs; pid++ {
			c.forkTo(sub, pid, &scr.outs[pid])
			if scr.errs[pid] = sub.runForked(df, start, end, maxInstrs, nil); scr.errs[pid] == nil {
				join.add(pid, sub)
			}
		}
	}
	scr.outs[0].Reset()
	c.out = &scr.outs[0]
	err := c.runFast(df, start, end, maxInstrs)
	if ss != nil {
		ss.finish()
	}
	c.out = parentOut
	c.sync, c.inRegionFrame = savedSync, savedFrame
	if concurrent {
		scr.wg.Wait()
		for pid := 1; pid < procs; pid++ {
			if scr.errs[pid] == nil {
				join.add(pid, &scr.subs[pid-1])
			}
		}
	}
	// Pid 0's error wins, then the lowest erroring pid — the order the
	// reference, which runs pids serially from 0, reports them in.
	for pid := 1; pid < procs && err == nil; pid++ {
		err = scr.errs[pid]
	}
	if err != nil {
		return err
	}
	for pid := 0; pid < procs; pid++ {
		parentOut.WriteString(scr.outs[pid].String())
	}
	join.add(0, c)
	join.finish(c, procs)
	return nil
}

// runForked is runFast for a forked processor, pid 1 and up. A panic,
// which only an engine bug or a malformed program can raise, becomes that
// processor's error instead of ending the process from a goroutine nobody
// recovers; the region's lowest-erroring-pid rule then reports it. Either
// way the processor leaves the sync fabric, so a sync region's other
// processors see it gone and cannot wait on it forever.
func (c *cpu) runForked(df *dfunc, start, end int, maxInstrs int64, ss *syncState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("titan: processor %d panicked in parallel region in %s: %v", c.pid, df.name, r)
		}
		if ss != nil {
			ss.finish()
		}
	}()
	return c.runFast(df, start, end, maxInstrs)
}

// hostLE reports whether the host is little-endian, gating the slab
// reinterpretation fast paths (the simulated machine is little-endian).
var hostLE = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// engineHostParallelism gates the goroutine fan-out for parallel
// regions. On a single-core host goroutines cannot overlap and fork
// cost is pure loss, so regions run serialized instead (same join math,
// bit-identical Result either way). Tests override this to force the
// concurrent path.
var engineHostParallelism = runtime.GOMAXPROCS(0)

// vecRangeOK reports whether every element address base+k·stride,
// k ∈ [0, vl), lies in [0, memLen-width]. It is conservative: for
// magnitudes where the arithmetic could overflow it reports false and
// the caller takes the per-element reference path, which reproduces the
// reference's exact fault behavior.
func vecRangeOK(base, stride, vl, width, memLen int64) bool {
	const lim = int64(1) << 40
	if base < -lim || base > lim || stride < -lim || stride > lim {
		return false
	}
	lo, hi := base, base+(vl-1)*stride
	if stride < 0 {
		lo, hi = hi, lo
	}
	return lo >= 0 && hi+width <= memLen
}

// slabOK is the condition under which the vector-memory kernels run on
// the slab: a non-empty strip of a valid element kind whose register
// window at slot does not wrap the file and whose every lane address is
// in memory (vecRangeOK), so that no lane, masked off or not, can fault.
// Elsewhere the reference per-lane walk runs, and faults, with the lane
// address they name, are its own.
func (c *cpu) slabOK(slot int32, base, stride, kind int64) bool {
	width := elemWidth(kind)
	return c.vl > 0 && width != 0 && int64(slot)+c.vl <= VRFWords &&
		vecRangeOK(base, stride, c.vl, width, int64(len(c.m.mem)))
}

// laneWord is word w of mask register mr clipped to the lanes below vl:
// bit j is set when lane 64·w+j is active.
func (c *cpu) laneWord(mr, w int) uint64 {
	on := c.mk[mr][w]
	if rem := c.vl - int64(w)*64; rem < 64 {
		on &= 1<<uint(rem) - 1
	}
	return on
}

// vldFast is the engine's OpVld: one element-kind switch and one bounds
// check per instruction instead of per element, a contiguous float64
// fast path that reinterprets the slab, and a strided fallback with the
// switch hoisted.
func (c *cpu) vldFast(d *dinstr, fn string, pc int) error {
	vl := c.vl
	base := c.r[d.rs1]
	stride := c.r[d.rs2]
	slot := int(d.rd)
	if !c.slabOK(d.rd, base, stride, d.imm) {
		return c.vecMem(Instr{Op: OpVld, Rd: slot, Rs1: int(d.rs1), Rs2: int(d.rs2), Imm: d.imm}, fn, pc)
	}
	dst := c.vrf[slot : slot+int(vl)]
	mem := c.m.mem
	switch d.imm {
	case ElemF64:
		if stride == 8 && hostLE && base%8 == 0 {
			copy(dst, unsafe.Slice((*float64)(unsafe.Pointer(&mem[base])), vl))
			return nil
		}
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(mem[base:]))
			base += stride
		}
	case ElemF32:
		if stride == 4 && hostLE && base%4 == 0 {
			src := unsafe.Slice((*float32)(unsafe.Pointer(&mem[base])), vl)
			for k := range dst {
				dst[k] = float64(src[k])
			}
			return nil
		}
		for k := range dst {
			dst[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(mem[base:])))
			base += stride
		}
	case ElemI32:
		for k := range dst {
			dst[k] = float64(int32(binary.LittleEndian.Uint32(mem[base:])))
			base += stride
		}
	}
	return nil
}

// vstFast is the engine's OpVst, mirroring vldFast.
func (c *cpu) vstFast(d *dinstr, fn string, pc int) error {
	vl := c.vl
	base := c.r[d.rs1]
	stride := c.r[d.rs2]
	slot := int(d.rd)
	if !c.slabOK(d.rd, base, stride, d.imm) {
		return c.vecMem(Instr{Op: OpVst, Rd: slot, Rs1: int(d.rs1), Rs2: int(d.rs2), Imm: d.imm}, fn, pc)
	}
	src := c.vrf[slot : slot+int(vl)]
	mem := c.m.mem
	switch d.imm {
	case ElemF64:
		if stride == 8 && hostLE && base%8 == 0 {
			copy(unsafe.Slice((*float64)(unsafe.Pointer(&mem[base])), vl), src)
			return nil
		}
		for k := range src {
			binary.LittleEndian.PutUint64(mem[base:], math.Float64bits(src[k]))
			base += stride
		}
	case ElemF32:
		if stride == 4 && hostLE && base%4 == 0 {
			dst := unsafe.Slice((*float32)(unsafe.Pointer(&mem[base])), vl)
			for k := range src {
				dst[k] = float32(src[k])
			}
			return nil
		}
		for k := range src {
			binary.LittleEndian.PutUint32(mem[base:], math.Float32bits(float32(src[k])))
			base += stride
		}
	case ElemI32:
		for k := range src {
			binary.LittleEndian.PutUint32(mem[base:], uint32(int32(src[k])))
			base += stride
		}
	}
	return nil
}

// vbinFast is the engine's vector-vector arithmetic: per-op forward
// loops over register-file slices (forward order preserves the
// reference's semantics when slots overlap), with a vslot fallback when
// a window wraps the file.
func (c *cpu) vbinFast(d *dinstr) {
	vl := int(c.vl)
	rd, r1, r2 := int(d.rd), int(d.rs1), int(d.rs2)
	if rd+vl > VRFWords || r1+vl > VRFWords || r2+vl > VRFWords {
		for k := 0; k < vl; k++ {
			a, b := c.vrf[vslot(r1+k)], c.vrf[vslot(r2+k)]
			switch d.op {
			case OpVadd:
				c.vrf[vslot(rd+k)] = a + b
			case OpVsub:
				c.vrf[vslot(rd+k)] = a - b
			case OpVmul:
				c.vrf[vslot(rd+k)] = a * b
			case OpVdiv:
				c.vrf[vslot(rd+k)] = a / b
			}
		}
		return
	}
	dst := c.vrf[rd : rd+vl]
	a := c.vrf[r1 : r1+vl]
	b := c.vrf[r2 : r2+vl]
	switch d.op {
	case OpVadd:
		for k := range dst {
			dst[k] = a[k] + b[k]
		}
	case OpVsub:
		for k := range dst {
			dst[k] = a[k] - b[k]
		}
	case OpVmul:
		for k := range dst {
			dst[k] = a[k] * b[k]
		}
	case OpVdiv:
		for k := range dst {
			dst[k] = a[k] / b[k]
		}
	}
}

// vscalarFast is the engine's vector-scalar arithmetic.
func (c *cpu) vscalarFast(d *dinstr) {
	vl := int(c.vl)
	rd, r1 := int(d.rd), int(d.rs1)
	s := c.f[d.rs2]
	if rd+vl > VRFWords || r1+vl > VRFWords {
		for k := 0; k < vl; k++ {
			a := c.vrf[vslot(r1+k)]
			switch d.op {
			case OpVadds:
				c.vrf[vslot(rd+k)] = a + s
			case OpVsubs:
				c.vrf[vslot(rd+k)] = a - s
			case OpVsubsr:
				c.vrf[vslot(rd+k)] = s - a
			case OpVmuls:
				c.vrf[vslot(rd+k)] = a * s
			case OpVdivs:
				c.vrf[vslot(rd+k)] = a / s
			case OpVdivsr:
				c.vrf[vslot(rd+k)] = s / a
			}
		}
		return
	}
	dst := c.vrf[rd : rd+vl]
	a := c.vrf[r1 : r1+vl]
	switch d.op {
	case OpVadds:
		for k := range dst {
			dst[k] = a[k] + s
		}
	case OpVsubs:
		for k := range dst {
			dst[k] = a[k] - s
		}
	case OpVsubsr:
		for k := range dst {
			dst[k] = s - a[k]
		}
	case OpVmuls:
		for k := range dst {
			dst[k] = a[k] * s
		}
	case OpVdivs:
		for k := range dst {
			dst[k] = a[k] / s
		}
	case OpVdivsr:
		for k := range dst {
			dst[k] = s / a[k]
		}
	}
}

func (c *cpu) vmovFast(d *dinstr) {
	vl := int(c.vl)
	rd, r1 := int(d.rd), int(d.rs1)
	if rd+vl > VRFWords || r1+vl > VRFWords {
		for k := 0; k < vl; k++ {
			c.vrf[vslot(rd+k)] = c.vrf[vslot(r1+k)]
		}
		return
	}
	// Forward element order, not copy(): overlapping windows must behave
	// like the reference's element loop.
	dst := c.vrf[rd : rd+vl]
	src := c.vrf[r1 : r1+vl]
	for k := range dst {
		dst[k] = src[k]
	}
}

func (c *cpu) vbcastFast(d *dinstr) {
	vl := int(c.vl)
	rd := int(d.rd)
	v := c.f[d.rs1]
	if rd+vl > VRFWords {
		for k := 0; k < vl; k++ {
			c.vrf[vslot(rd+k)] = v
		}
		return
	}
	dst := c.vrf[rd : rd+vl]
	for k := range dst {
		dst[k] = v
	}
}

// vcmpVVFast computes a vector-vector compare mask over register-file
// slices, falling back to the reference walk when a window wraps the
// file. d.rd is the pre-wrapped destination mask slot.
func (c *cpu) vcmpVVFast(d *dinstr, f func(a, b float64) bool) {
	vl := int(c.vl)
	r1, r2 := int(d.rs1), int(d.rs2)
	if r1+vl > VRFWords || r2+vl > VRFWords {
		c.vecCmpVV(Instr{Rd: int(d.rd), Rs1: r1, Rs2: r2}, f)
		return
	}
	var out [maskWords]uint64
	a := c.vrf[r1 : r1+vl]
	b := c.vrf[r2 : r2+vl]
	for k := range a {
		if f(a[k], b[k]) {
			out[k>>6] |= 1 << uint(k&63)
		}
	}
	c.mk[d.rd] = out
}

// vcmpVSFast is vcmpVVFast's scalar-broadcast form.
func (c *cpu) vcmpVSFast(d *dinstr, f func(a, s float64) bool) {
	vl := int(c.vl)
	r1 := int(d.rs1)
	if r1+vl > VRFWords {
		c.vecCmpVS(Instr{Rd: int(d.rd), Rs1: r1, Rs2: int(d.rs2)}, f)
		return
	}
	var out [maskWords]uint64
	s := c.f[d.rs2]
	a := c.vrf[r1 : r1+vl]
	for k := range a {
		if f(a[k], s) {
			out[k>>6] |= 1 << uint(k&63)
		}
	}
	c.mk[d.rd] = out
}

// vldmFast is the engine's vld.m. Where the dense kernels run (slabOK:
// no lane, active or not, can fault) an all-true mask takes vldFast and
// any other mask a slab kernel over its active lanes, read off the packed
// mask words, the element-kind switch hoisted out of the lane loop.
// Everything else runs the reference per-lane walk, so lane suppression
// and masked fault naming are identical by construction.
func (c *cpu) vldmFast(d *dinstr, fn string, pc int) error {
	mr := mslot(int(d.imm >> 8))
	kind := d.imm & 0xff
	base, stride := c.r[d.rs1], c.r[d.rs2]
	if !c.slabOK(d.rd, base, stride, kind) {
		return c.vecMem(Instr{Op: OpVldm, Rd: int(d.rd), Rs1: int(d.rs1), Rs2: int(d.rs2), Imm: d.imm}, fn, pc)
	}
	c.countMask(mr)
	if c.maskAllTrue(mr) {
		dd := *d
		dd.op = OpVld
		dd.imm = kind
		return c.vldFast(&dd, fn, pc)
	}
	dst := c.vrf[d.rd : int64(d.rd)+c.vl]
	mem := c.m.mem
	for w := 0; w*64 < len(dst); w++ {
		on := c.laneWord(mr, w)
		switch kind {
		case ElemF64:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(mem[base+int64(k)*stride:]))
			}
		case ElemF32:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(mem[base+int64(k)*stride:])))
			}
		case ElemI32:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = float64(int32(binary.LittleEndian.Uint32(mem[base+int64(k)*stride:])))
			}
		}
	}
	return nil
}

// vstmFast is the engine's vst.m, mirroring vldmFast.
func (c *cpu) vstmFast(d *dinstr, fn string, pc int) error {
	mr := mslot(int(d.imm >> 8))
	kind := d.imm & 0xff
	base, stride := c.r[d.rs1], c.r[d.rs2]
	if !c.slabOK(d.rd, base, stride, kind) {
		return c.vecMem(Instr{Op: OpVstm, Rd: int(d.rd), Rs1: int(d.rs1), Rs2: int(d.rs2), Imm: d.imm}, fn, pc)
	}
	c.countMask(mr)
	if c.maskAllTrue(mr) {
		dd := *d
		dd.op = OpVst
		dd.imm = kind
		return c.vstFast(&dd, fn, pc)
	}
	src := c.vrf[d.rd : int64(d.rd)+c.vl]
	mem := c.m.mem
	for w := 0; w*64 < len(src); w++ {
		on := c.laneWord(mr, w)
		switch kind {
		case ElemF64:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				binary.LittleEndian.PutUint64(mem[base+int64(k)*stride:], math.Float64bits(src[k]))
			}
		case ElemF32:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				binary.LittleEndian.PutUint32(mem[base+int64(k)*stride:], math.Float32bits(float32(src[k])))
			}
		case ElemI32:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				binary.LittleEndian.PutUint32(mem[base+int64(k)*stride:], uint32(int32(src[k])))
			}
		}
	}
	return nil
}

// vbinmFast is the engine's masked vector arithmetic: all-true masks
// take the dense vbinFast kernels (denseOp is the op's dense twin), other
// masks a slab kernel over their active lanes, and windows that wrap the
// file the reference per-lane walk.
func (c *cpu) vbinmFast(d *dinstr, denseOp Op, f func(a, b float64) float64) {
	vl := int(c.vl)
	mr := mslot(int(d.imm >> 8))
	rd, r1, r2 := int(d.rd), int(d.rs1), int(d.rs2)
	if rd+vl > VRFWords || r1+vl > VRFWords || r2+vl > VRFWords {
		c.vecBin(Instr{Op: d.op, Rd: rd, Rs1: r1, Rs2: r2, Imm: d.imm}, f)
		return
	}
	c.countMask(mr)
	if c.maskAllTrue(mr) {
		dd := *d
		dd.op = denseOp
		c.vbinFast(&dd)
		return
	}
	// Lanes in increasing order, like the reference, for overlapping
	// windows.
	dst, a, b := c.vrf[rd:rd+vl], c.vrf[r1:r1+vl], c.vrf[r2:r2+vl]
	for w := 0; w*64 < vl; w++ {
		on := c.laneWord(mr, w)
		switch denseOp {
		case OpVadd:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = a[k] + b[k]
			}
		case OpVsub:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = a[k] - b[k]
			}
		case OpVmul:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = a[k] * b[k]
			}
		case OpVdiv:
			for ; on != 0; on &= on - 1 {
				k := w*64 + bits.TrailingZeros64(on)
				dst[k] = a[k] / b[k]
			}
		}
	}
}

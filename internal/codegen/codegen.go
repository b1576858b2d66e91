// Package codegen lowers optimized IL to Titan instructions.
//
// Register allocation follows the paper's plan (§3): the compiler leans on
// a large register file and "generates temporary variables with a fair
// amount of impunity", expecting them to live in registers. Codegen emits
// virtual registers — one per scalar that never has its address taken,
// and a fresh one per expression temporary — and, after the loop-values
// pass (loopvals.go), one allocator per function maps them onto r16–r63
// and f16–f63, spilling to the frame only under pressure (regalloc.go).
// Address-taken variables, arrays and aggregates live in the stack frame;
// globals and exported statics live in the data segment. Register-windowed
// calls keep the convention simple (arguments in r8../f8.., results in
// r2/f2).
//
// Vector statements lower to VSETL/VLD/arith/VST sequences over vector
// register file sections; do-parallel loops bracket their body in
// PAR.BEGIN/PAR.END markers and stride by processor count, matching the
// runtime's iteration-spreading contract (§2).
package codegen

import (
	"fmt"
	"strconv"

	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/titan"
)

// Register map (64 int + 64 float registers; the Titan's register file is
// large, §2).
const (
	regSP   = titan.RegSP
	regRet  = titan.RegRetInt
	regArg0 = titan.RegArg0
)

// vecSlotStride spaces vector register file sections; VL must not exceed
// it.
const vecSlotStride = 128

// Error is a code generation failure.
type Error struct{ Msg string }

func (e *Error) Error() string { return "codegen: " + e.Msg }

func errf(format string, args ...interface{}) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// minStackReserve is the stack every program gets on top of its own
// frames: room for recursion, which no static sum can bound.
const minStackReserve = 256 << 10

// Generate lowers a whole program. The memory image is sized to it:
// globals from DataBase, rounded up to a page (the machine's stack limit),
// then a stack of minStackReserve plus every procedure's frame, so a
// program that never recurses cannot run out however large its locals.
func Generate(prog *il.Program) (*titan.Program, error) {
	tp := layout(prog)
	// One emit buffer serves every procedure; each function keeps an
	// exactly-sized copy of what the passes over it leave there.
	var buf []titan.Instr
	ra := raPool.Get().(*regAlloc)
	defer raPool.Put(ra)
	for _, p := range prog.Procs {
		f, emitted, err := genProc(p, tp, buf[:0], ra)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		buf = emitted
		tp.Funcs[p.Name] = f
	}
	// Sized only now: a procedure naming an extern grows Data.
	stack := int64(minStackReserve)
	for _, f := range tp.Funcs {
		stack += f.Frame
	}
	tp.MemSize = titan.PageAlign(tp.DataBase+int64(len(tp.Data))) + titan.PageAlign(stack)
	return tp, nil
}

// layout starts prog's Titan program: its globals laid out from DataBase,
// with their initial data.
func layout(prog *il.Program) *titan.Program {
	tp := &titan.Program{
		Funcs:      map[string]*titan.Func{},
		DataBase:   4096,
		GlobalAddr: map[string]int64{},
	}
	// Lay out globals.
	addr := tp.DataBase
	align := func(a int64, n int64) int64 { return (a + n - 1) / n * n }
	for _, g := range prog.Globals {
		size := int64(g.Type.Size())
		if size == 0 {
			size = 4
		}
		addr = align(addr, 8)
		tp.GlobalAddr[g.Name] = addr
		addr += size
	}
	data := make([]byte, addr-tp.DataBase)
	for _, g := range prog.Globals {
		off := tp.GlobalAddr[g.Name] - tp.DataBase
		if g.Data != nil {
			copy(data[off:], g.Data)
			continue
		}
		if g.HasInit {
			writeScalar(data[off:], g.Type, g.InitInt, g.InitFloat)
		}
	}
	tp.Data = data
	return tp
}

func writeScalar(b []byte, t *ctype.Type, iv int64, fv float64) {
	switch {
	case t.Kind == ctype.Float:
		bits := f32bits(float32(pickF(t, iv, fv)))
		putU32(b, bits)
	case t.Kind == ctype.Double:
		putU64(b, f64bits(pickF(t, iv, fv)))
	case t.Size() == 1:
		b[0] = byte(iv)
	case t.Size() == 2:
		b[0], b[1] = byte(iv), byte(iv>>8)
	default:
		putU32(b, uint32(iv))
	}
}

func pickF(t *ctype.Type, iv int64, fv float64) float64 {
	if fv != 0 {
		return fv
	}
	return float64(iv)
}

// location describes where a variable lives.
type locKind int

const (
	locNone locKind = iota // an unreferenced scalar
	locIntReg
	locFltReg
	locStack  // frame offset from SP
	locGlobal // absolute address
)

type location struct {
	kind locKind
	reg  int
	off  int64 // stack offset or global address
}

// locate gives every variable its location. Globals and statics live in
// the data segment; arrays, aggregates and address-taken scalars in the
// frame. Every other scalar the body references is a virtual register,
// numbered in declaration order before any temporary.
func (g *gen) locate() {
	g.locs = make([]location, len(g.p.Vars))
	// First mark every variable the body references; a scalar left
	// unmarked gets no location.
	ref := func(id il.VarID) { g.locs[id].kind = locIntReg }
	il.WalkStmts(g.p.Body, func(s il.Stmt) bool {
		il.StmtExprs(s, func(e il.Expr) {
			il.WalkExpr(e, func(x il.Expr) bool {
				if v, ok := x.(*il.VarRef); ok {
					ref(v.ID)
				}
				return true
			})
		})
		switch n := s.(type) {
		case *il.Call:
			if n.Dst != il.NoVar {
				ref(n.Dst)
			}
		case *il.DoLoop:
			ref(n.IV)
		case *il.DoParallel:
			ref(n.IV)
		}
		return true
	})
	for i := range g.p.Vars {
		v := &g.p.Vars[i]
		switch {
		case v.Class == il.ClassGlobal || v.Class == il.ClassStatic:
			a, ok := g.tp.GlobalAddr[v.Name]
			if !ok {
				// An extern never defined in this unit: give it a fresh
				// address at the end of the data segment.
				a = g.tp.DataBase + int64(len(g.tp.Data))
				g.tp.GlobalAddr[v.Name] = a
				g.tp.Data = append(g.tp.Data, make([]byte, v.Type.Size())...)
			}
			g.locs[i] = location{kind: locGlobal, off: a}
		case v.AddrTaken || v.Type.Kind == ctype.Array || v.Type.IsAggregate():
			g.locs[i] = location{kind: locStack, off: g.frameSlot(int64(v.Type.Size()))}
		case g.locs[i].kind == locNone:
		default:
			kind := locIntReg
			if v.Type.IsFloat() {
				kind = locFltReg
			}
			g.locs[i] = location{kind: kind, reg: g.vreg()}
			g.ra.vars = append(g.ra.vars, il.VarID(i))
		}
	}
}

// frameSlot reserves an 8-aligned slot of size bytes (4 if size is 0).
func (g *gen) frameSlot(size int64) int64 {
	if size == 0 {
		size = 4
	}
	g.frame = (g.frame + 7) / 8 * 8
	off := g.frame
	g.frame += size
	return off
}

type gen struct {
	p        *il.Proc
	tp       *titan.Program
	f        *titan.Func
	locs     []location
	frame    int64
	labelSeq int
	// vecSlotNext is the vector register file section the next vector
	// operand of the current statement takes (see nextSlot).
	vecSlotNext int
	// maskNext allocates vector-mask registers within one masked vector
	// statement (reset per statement; the compare/combine tree is short).
	maskNext int
	// sync is the active DOACROSS register context; non-nil only while
	// lowering the body of a DoParallel with a Sync annotation.
	sync *syncGen
	// err is the first error, which ends code generation (see fail).
	err error
	// ra records the virtual registers, loops and regions for the
	// loop-values pass and the allocator, and is their storage.
	ra *regAlloc
}

// syncGen holds the registers doParallel sets up for a DOACROSS region so
// SyncPost/SyncWait markers in the body can lower to post/wait. Cells are
// indexed by processor id: each processor posts its own cell and waits on
// the cell of the processor running iteration iv - dist·step.
type syncGen struct {
	postCell int // r: this processor's cell (= pid)
	waitCell int // r: producer's cell ((pid - dist mod np) mod np)
	selfDiff int // r: waitCell - pid; 0 → dependence stays on-processor
	initR    int // r: loop init value, for the startup guard
	iv       int // r: induction variable
	stepC    int64
	dist     int64 // dependence distance, iterations
}

// genProc lowers one procedure, emitting into buf, and runs the
// loop-values pass and the allocator over the result with ra's storage.
// The function gets an exactly sized copy of what they leave; what was
// emitted, in buf grown, serves the next procedure.
func genProc(p *il.Proc, tp *titan.Program, buf []titan.Instr, ra *regAlloc) (f *titan.Func, emitted []titan.Instr, err error) {
	g, err := genBody(p, tp, buf, ra)
	if err != nil {
		return nil, nil, err
	}
	emitted = g.f.Instrs
	ra.load(g.f)
	g.loopValues()
	if err := ra.allocate(g.f, p, &g.frame); err != nil {
		return nil, nil, err
	}
	g.f.Frame = g.frame
	return g.f, emitted, nil
}

// genBody lowers one procedure to virtual registers.
func genBody(p *il.Proc, tp *titan.Program, buf []titan.Instr, ra *regAlloc) (*gen, error) {
	ra.reset()
	g := &gen{
		p:  p,
		tp: tp,
		f:  &titan.Func{Name: p.Name, Instrs: buf, Labels: map[string]int{}},
		ra: ra,
	}
	g.locate()
	// Prologue: reserve the frame, whose size is known after allocation,
	// and bind parameters.
	g.emit(titan.Instr{Op: titan.OpAddi, Rd: regSP, Rs1: regSP})
	intArg, fltArg := 0, 0
	for _, id := range p.Params {
		v := &p.Vars[id]
		isFlt := v.Type.IsFloat()
		var argReg int
		if isFlt {
			argReg = titan.FRegArg0 + fltArg
			fltArg++
		} else {
			argReg = regArg0 + intArg
			intArg++
		}
		if argReg > 15 {
			g.fail("too many parameters (max 8 of a kind)")
		}
		loc := g.locs[id]
		switch loc.kind {
		case locIntReg:
			g.emit(titan.Instr{Op: titan.OpMov, Rd: loc.reg, Rs1: argReg})
		case locFltReg:
			g.emit(titan.Instr{Op: titan.OpFmov, Rd: loc.reg, Rs1: argReg})
		case locStack:
			g.storeToLoc(loc, argReg, v.Type)
		}
	}
	g.stmts(p.Body)
	g.emit(titan.Instr{Op: titan.OpRet})
	return g, g.err
}

func (g *gen) emit(in titan.Instr) { g.f.Instrs = append(g.f.Instrs, in) }

func (g *gen) label(name string) { g.f.Labels[name] = len(g.f.Instrs) }

// fail records the procedure's first code generation error. Generation
// runs on to the end, with a fresh register for the value that failed,
// and genBody returns the error.
func (g *gen) fail(format string, args ...any) int {
	if g.err == nil {
		g.err = errf(format, args...)
	}
	return g.vreg()
}

func (g *gen) newLabel(hint string) string {
	g.labelSeq++
	return "." + g.p.Name + "." + hint + strconv.Itoa(g.labelSeq)
}

// isFloatType reports whether e computes in the FP unit.
func isFloatType(t *ctype.Type) bool { return t != nil && t.IsFloat() }

// ---------------------------------------------------------------- statements

func (g *gen) stmts(list []il.Stmt) {
	for _, s := range list {
		g.stmt(s)
	}
}

func (g *gen) stmt(s il.Stmt) {
	switch n := s.(type) {
	case *il.Assign:
		g.assign(n.Dst, n.Src)
	case *il.PredAssign:
		g.predAssign(n)
	case *il.Call:
		g.call(n)
	case *il.If:
		g.ifStmt(n)
	case *il.While:
		g.whileStmt(n)
	case *il.DoLoop:
		g.doLoop(n)
	case *il.DoParallel:
		g.doParallel(n)
	case *il.SyncPost:
		g.syncPost(n)
	case *il.SyncWait:
		g.syncWait(n)
	case *il.VectorAssign:
		g.vectorAssign(n)
	case *il.Goto:
		g.emit(titan.Instr{Op: titan.OpJmp, Sym: ".L" + n.Target})
	case *il.Label:
		g.label(".L" + n.Name)
	case *il.Return:
		if n.Val != nil {
			if isFloatType(n.Val.Type()) {
				r := g.evalFlt(n.Val)
				g.emit(titan.Instr{Op: titan.OpFmov, Rd: titan.RegRetFlt, Rs1: r})
			} else {
				r := g.evalInt(n.Val)
				g.emit(titan.Instr{Op: titan.OpMov, Rd: regRet, Rs1: r})
			}
		}
		g.emit(titan.Instr{Op: titan.OpRet})
	default:
		g.fail("unhandled statement %T", s)
	}
}

func (g *gen) assign(to, src il.Expr) {
	switch dst := to.(type) {
	case *il.VarRef:
		v := &g.p.Vars[dst.ID]
		loc := g.locs[dst.ID]
		if isFloatType(v.Type) {
			r := g.evalFlt(src)
			switch loc.kind {
			case locFltReg:
				g.emit(titan.Instr{Op: titan.OpFmov, Rd: loc.reg, Rs1: r})
			default:
				g.storeToLoc(loc, r, v.Type)
			}
			return
		}
		r := g.evalInt(src)
		switch loc.kind {
		case locIntReg:
			g.emit(titan.Instr{Op: titan.OpMov, Rd: loc.reg, Rs1: r})
		default:
			g.storeToLoc(loc, r, v.Type)
		}
	case *il.Load:
		addr, disp := g.evalAddr(dst.Addr)
		t := dst.T
		if isFloatType(t) {
			val := g.evalFlt(src)
			op := titan.OpFst4
			if t.Kind == ctype.Double {
				op = titan.OpFst8
			}
			g.emit(titan.Instr{Op: op, Rs1: addr, Rs2: val, Imm: disp})
		} else {
			val := g.evalInt(src)
			var op titan.Op
			switch t.Size() {
			case 1:
				op = titan.OpSt1
			case 2:
				op = titan.OpSt2
			default:
				op = titan.OpSt4
			}
			g.emit(titan.Instr{Op: op, Rs1: addr, Rs2: val, Imm: disp})
		}
	default:
		g.fail("bad assignment destination %T", to)
	}
}

// predAssign lowers a predicated store in its serial (branchy) form: the
// guard is evaluated and a branch skips the store on false lanes. Masked
// vector execution of predicated statements happens in vectorAssign; this
// path covers serial residue loops and branchy-serial schedules.
func (g *gen) predAssign(n *il.PredAssign) {
	cond := g.evalInt(n.Cond)
	skipL := g.newLabel("pskip")
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: cond, Sym: skipL})
	g.assign(n.Dst, n.Src)
	g.label(skipL)
}

// storeToLoc stores register r (of var type t) to a stack or global
// location.
func (g *gen) storeToLoc(loc location, r int, t *ctype.Type) {
	var base, off = regSP, loc.off
	if loc.kind == locGlobal {
		// Stores address rs1+imm and the Titan has no zero register, so
		// the absolute address goes into the assembler temporary.
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: asmTemp, Imm: loc.off})
		base, off = asmTemp, 0
	}
	if isFloatType(t) {
		op := titan.OpFst4
		if t.Kind == ctype.Double {
			op = titan.OpFst8
		}
		g.emit(titan.Instr{Op: op, Rs1: base, Rs2: r, Imm: off})
		return
	}
	var op titan.Op
	switch t.Size() {
	case 1:
		op = titan.OpSt1
	case 2:
		op = titan.OpSt2
	default:
		op = titan.OpSt4
	}
	g.emit(titan.Instr{Op: op, Rs1: base, Rs2: r, Imm: off})
}

// asmTemp is a register reserved for assembler-level address
// materialization: below the argument registers (r8..r15), never
// otherwise used.
const asmTemp = 7

func (g *gen) loadFromLoc(loc location, rd int, t *ctype.Type) {
	base, off := regSP, loc.off
	if loc.kind == locGlobal {
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: asmTemp, Imm: loc.off})
		base, off = asmTemp, 0
	}
	if isFloatType(t) {
		op := titan.OpFld4
		if t.Kind == ctype.Double {
			op = titan.OpFld8
		}
		g.emit(titan.Instr{Op: op, Rd: rd, Rs1: base, Imm: off})
		return
	}
	var op titan.Op
	switch t.Size() {
	case 1:
		op = titan.OpLd1
	case 2:
		op = titan.OpLd2
	default:
		op = titan.OpLd4
	}
	g.emit(titan.Instr{Op: op, Rd: rd, Rs1: base, Imm: off})
}

func (g *gen) call(n *il.Call) {
	if n.FunPtr != nil {
		g.fail("indirect calls are not supported by the code generator")
	}
	intArg, fltArg := 0, 0
	for _, a := range n.Args {
		if isFloatType(a.Type()) {
			r := g.evalFlt(a)
			g.emit(titan.Instr{Op: titan.OpFmov, Rd: titan.FRegArg0 + fltArg, Rs1: r})
			g.emit(titan.Instr{Op: titan.OpFarg, Rs1: r})
			fltArg++
		} else {
			r := g.evalInt(a)
			g.emit(titan.Instr{Op: titan.OpMov, Rd: regArg0 + intArg, Rs1: r})
			g.emit(titan.Instr{Op: titan.OpArg, Rs1: r})
			intArg++
		}
		if intArg > 7 || fltArg > 7 {
			g.fail("too many call arguments")
		}
	}
	g.emit(titan.Instr{Op: titan.OpCall, Sym: n.Callee})
	if n.Dst != il.NoVar {
		v := &g.p.Vars[n.Dst]
		loc := g.locs[n.Dst]
		if isFloatType(v.Type) {
			switch loc.kind {
			case locFltReg:
				g.emit(titan.Instr{Op: titan.OpFmov, Rd: loc.reg, Rs1: titan.RegRetFlt})
			default:
				g.storeToLoc(loc, titan.RegRetFlt, v.Type)
			}
		} else {
			switch loc.kind {
			case locIntReg:
				g.emit(titan.Instr{Op: titan.OpMov, Rd: loc.reg, Rs1: regRet})
			default:
				g.storeToLoc(loc, regRet, v.Type)
			}
		}
	}
}

func (g *gen) ifStmt(n *il.If) {
	cond := g.evalInt(n.Cond)
	elseL := g.newLabel("else")
	endL := g.newLabel("endif")
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: cond, Sym: elseL})
	g.stmts(n.Then)
	if len(n.Else) > 0 {
		g.emit(titan.Instr{Op: titan.OpJmp, Sym: endL})
		g.label(elseL)
		g.stmts(n.Else)
		g.label(endL)
	} else {
		g.label(elseL)
	}
}

func (g *gen) whileStmt(n *il.While) {
	topL := g.newLabel("wtop")
	endL := g.newLabel("wend")
	g.label(topL)
	cond := g.evalInt(n.Cond)
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: cond, Sym: endL})
	g.stmts(n.Body)
	g.emit(titan.Instr{Op: titan.OpJmp, Sym: topL})
	g.recordLoop(topL, -1)
	g.label(endL)
}

// doLoop emits a DO loop bottom-tested: the IV gets its variable's
// register and the limit one of its own. Each iteration ends in the bump and one compare-and-branch
// back to the top, so an innermost straight-line body is one scheduling
// block; the guard before the top is elided when the trip count is a
// constant of at least one.
func (g *gen) doLoop(n *il.DoLoop) {
	stepC, ok := il.IsIntConst(n.Step)
	if !ok {
		g.fail("DO loop step must be a constant after optimization")
	}
	ivLoc := g.locs[n.IV]
	if ivLoc.kind != locIntReg {
		g.fail("loop variable not in a register")
	}
	iv := ivLoc.reg
	initR := g.evalInt(n.Init)
	g.emit(titan.Instr{Op: titan.OpMov, Rd: iv, Rs1: initR})
	limR := g.evalInt(n.Limit)
	topL := g.newLabel("dtop")
	endL := g.newLabel("dend")
	if n.TripCount() < 1 {
		g.loopTest(iv, limR, stepC, titan.OpBnez, endL)
	}
	g.label(topL)
	g.stmts(n.Body)
	g.emit(titan.Instr{Op: titan.OpAddi, Rd: iv, Rs1: iv, Imm: stepC})
	g.loopTest(iv, limR, stepC, titan.OpBeqz, topL)
	g.recordLoop(topL, iv)
	g.label(endL)
}

// recordLoop records the loop whose back branch was just emitted, for the
// loop-values pass and the allocator: its top label and IV register.
func (g *gen) recordLoop(topL string, iv int) {
	g.ra.loops = append(g.ra.loops, loopSpan{top: g.f.Labels[topL], back: len(g.f.Instrs) - 1, iv: iv})
}

// loopTest emits the test of iv against the loop limit in step's
// direction, true once iv has passed it, and a br on that test to target.
func (g *gen) loopTest(iv, limR int, stepC int64, br titan.Op, target string) {
	t := g.vreg()
	cmp := titan.OpCmpGt
	if stepC < 0 {
		cmp = titan.OpCmpLt
	}
	g.emit(titan.Instr{Op: cmp, Rd: t, Rs1: iv, Rs2: limR})
	g.emit(titan.Instr{Op: br, Rs1: t, Sym: target})
}

// doParallel emits the §2 iteration-spreading shape: each processor starts
// at init + pid·step and strides by nproc·step, bottom-tested as doLoop is.
func (g *gen) doParallel(n *il.DoParallel) {
	stepC, ok := il.IsIntConst(n.Step)
	if !ok {
		g.fail("parallel loop step must be constant")
	}
	ivLoc := g.locs[n.IV]
	if ivLoc.kind != locIntReg {
		g.fail("parallel loop variable not in a register")
	}
	iv := ivLoc.reg
	initR := g.evalInt(n.Init)
	limR := g.evalInt(n.Limit)
	g.ra.regions = append(g.ra.regions, n.Pos)
	g.emit(titan.Instr{Op: titan.OpParBegin})
	pid := g.vreg()
	np := g.vreg()
	g.emit(titan.Instr{Op: titan.OpPid, Rd: pid})
	g.emit(titan.Instr{Op: titan.OpNproc, Rd: np})
	topL := g.newLabel("ptop")
	endL := g.newLabel("pend")
	prevSync := g.sync
	g.sync = nil
	var sy *syncGen
	if n.Sync != nil {
		if stepC <= 0 {
			g.fail("DOACROSS loop requires a positive constant step")
		}
		sy = &syncGen{stepC: stepC, dist: n.Sync.Distance, iv: iv, initR: initR}
		sy.postCell = g.vreg()
		// The post cell is this processor's id, and waitCell =
		// (pid - dist mod np + np) mod np is the processor that runs
		// iteration iv - dist·step under the cyclic spread.
		g.emit(titan.Instr{Op: titan.OpMov, Rd: sy.postCell, Rs1: pid})
		sy.waitCell = g.vreg()
		sy.selfDiff = g.vreg()
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: sy.waitCell, Imm: sy.dist})
		g.emit(titan.Instr{Op: titan.OpRem, Rd: sy.waitCell, Rs1: sy.waitCell, Rs2: np})
		g.emit(titan.Instr{Op: titan.OpSub, Rd: sy.waitCell, Rs1: pid, Rs2: sy.waitCell})
		g.emit(titan.Instr{Op: titan.OpAdd, Rd: sy.waitCell, Rs1: sy.waitCell, Rs2: np})
		g.emit(titan.Instr{Op: titan.OpRem, Rd: sy.waitCell, Rs1: sy.waitCell, Rs2: np})
		g.emit(titan.Instr{Op: titan.OpSub, Rd: sy.selfDiff, Rs1: sy.waitCell, Rs2: pid})
	}
	// iv = init + pid*step; stride = nproc*step (reuse np). A unit step
	// multiplies by nothing.
	if stepC != 1 {
		g.emit(titan.Instr{Op: titan.OpMuli, Rd: pid, Rs1: pid, Imm: stepC})
	}
	g.emit(titan.Instr{Op: titan.OpAdd, Rd: iv, Rs1: initR, Rs2: pid})
	if stepC != 1 {
		g.emit(titan.Instr{Op: titan.OpMuli, Rd: np, Rs1: np, Imm: stepC})
	}
	g.sync = sy

	// Every processor has pid < MaxProcessors, so a constant trip count
	// of at least that gives each a first iteration.
	if il.TripCount(n.Init, n.Limit, n.Step) < titan.MaxProcessors {
		g.loopTest(iv, limR, stepC, titan.OpBnez, endL)
	}
	g.label(topL)
	g.stmts(n.Body)
	g.emit(titan.Instr{Op: titan.OpAdd, Rd: iv, Rs1: iv, Rs2: np})
	g.loopTest(iv, limR, stepC, titan.OpBeqz, topL)
	g.recordLoop(topL, iv)
	g.label(endL)
	if sy != nil {
		// Sentinel: releases every outstanding wait on this processor's
		// cell — consumers of iterations it never started.
		t := g.vreg()
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: t, Imm: 1 << 62})
		g.emit(titan.Instr{Op: titan.OpPost, Rs1: sy.postCell, Rs2: t})
	}
	g.emit(titan.Instr{Op: titan.OpParEnd})
	g.sync = prevSync
}

// syncPost lowers a SyncPost marker: publish the current iteration to
// this processor's cell.
func (g *gen) syncPost(n *il.SyncPost) {
	sy := g.sync
	if sy == nil {
		g.fail("sync.post outside a DOACROSS parallel region")
	}
	g.emit(titan.Instr{Op: titan.OpPost, Rs1: sy.postCell, Rs2: sy.iv})
}

// syncWait lowers a SyncWait marker: block until the producer of
// iteration iv - dist·step has passed its SyncPost. Skipped when the
// dependence stays on this processor (program order already orders the
// iterations) and during pipeline startup (no producer iteration
// exists).
func (g *gen) syncWait(n *il.SyncWait) {
	sy := g.sync
	if sy == nil {
		g.fail("sync.wait outside a DOACROSS parallel region")
	}
	skipL := g.newLabel("swskip")
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: sy.selfDiff, Sym: skipL})
	th := g.vreg()
	t := g.vreg()
	g.emit(titan.Instr{Op: titan.OpAddi, Rd: th, Rs1: sy.iv, Imm: -sy.dist * sy.stepC})
	g.emit(titan.Instr{Op: titan.OpCmpLt, Rd: t, Rs1: th, Rs2: sy.initR})
	g.emit(titan.Instr{Op: titan.OpBnez, Rs1: t, Sym: skipL})
	g.emit(titan.Instr{Op: titan.OpWait, Rs1: sy.waitCell, Rs2: th})
	g.label(skipL)
}

// vectorAssign lowers one vector statement. A masked statement computes
// its guard into a mask register (vcmp/mand/mor/mnot over dense operands —
// the guard itself executes on every lane, exactly as the source program
// evaluated the condition every iteration), then rides masked loads, arith
// and the masked store so inactive lanes have no memory effects.
func (g *gen) vectorAssign(n *il.VectorAssign) {
	lenR := g.evalInt(n.Len)
	g.emit(titan.Instr{Op: titan.OpVsetl, Rs1: lenR})
	g.vecSlotNext = 0
	g.maskNext = 0
	mr := -1
	if n.Mask != nil {
		mr = g.genMask(n.Mask)
	}
	var slot int
	if containsVec(n.RHS) {
		slot = g.vecExpr(n.RHS, mr)
	} else {
		// Pure scalar right-hand side: broadcast it across the lanes
		// (register-only, so no lane suppression is needed).
		sc := g.evalFltAny(n.RHS)
		slot = g.nextSlot()
		g.emit(titan.Instr{Op: titan.OpVbcast, Rd: slot, Rs1: sc})
	}
	base := g.evalInt(n.DstBase)
	stride := g.evalInt(n.DstStride)
	if mr >= 0 {
		g.emit(titan.Instr{Op: titan.OpVstm, Rd: slot, Rs1: base, Rs2: stride,
			Imm: elemKind(n.Elem) | int64(mr)<<8})
	} else {
		g.emit(titan.Instr{Op: titan.OpVst, Rd: slot, Rs1: base, Rs2: stride, Imm: elemKind(n.Elem)})
	}
}

// nextMask allocates a mask register within the current vector statement.
func (g *gen) nextMask() int {
	if g.maskNext >= titan.NumMaskRegs {
		return g.fail("mask expression too complex (%d mask registers)", titan.NumMaskRegs)
	}
	m := g.maskNext
	g.maskNext++
	return m
}

// genMask lowers a guard expression to a mask register: comparisons become
// vcmp.{lt,le,eq,ne} (vector-vector or vector-scalar), ! becomes mnot, and
// &/| become mand/mor. Compare operands are evaluated densely — the guard
// runs on every lane.
func (g *gen) genMask(e il.Expr) int {
	switch n := e.(type) {
	case *il.Bin:
		if n.Op.IsComparison() {
			return g.genCompare(n)
		}
		switch n.Op {
		case il.OpAnd, il.OpOr:
			lm := g.genMask(n.L)
			rm := g.genMask(n.R)
			op := titan.OpMand
			if n.Op == il.OpOr {
				op = titan.OpMor
			}
			m := g.nextMask()
			g.emit(titan.Instr{Op: op, Rd: m, Rs1: lm, Rs2: rm})
			return m
		}
	case *il.Un:
		if n.Op == il.OpNot {
			xm := g.genMask(n.X)
			m := g.nextMask()
			g.emit(titan.Instr{Op: titan.OpMnot, Rd: m, Rs1: xm})
			return m
		}
	case *il.Cast:
		return g.genMask(n.X)
	}
	return g.fail("expression %s is not a mask expression", e)
}

// genCompare lowers one comparison to a vcmp. Gt/Ge normalize to Lt/Le by
// operand swap; a scalar right operand uses the vector-scalar compare
// forms, a scalar left operand flips via negation identities
// (s < v ⇔ !(v ≤ s)); two scalar operands broadcast the left one.
func (g *gen) genCompare(n *il.Bin) int {
	op, l, r := n.Op, n.L, n.R
	switch op {
	case il.OpGt:
		op, l, r = il.OpLt, r, l
	case il.OpGe:
		op, l, r = il.OpLe, r, l
	}
	lVec, rVec := containsVec(l), containsVec(r)
	// Symmetric compares canonicalize the vector operand left.
	if !lVec && rVec && (op == il.OpEq || op == il.OpNe) {
		l, r = r, l
		lVec, rVec = rVec, lVec
	}
	emitCmp := func(vvOp, vsOp titan.Op, ls int, l2 il.Expr, vec bool) int {
		m := g.nextMask()
		if vec {
			rs := g.vecExpr(l2, -1)
			g.emit(titan.Instr{Op: vvOp, Rd: m, Rs1: ls, Rs2: rs})
			return m
		}
		sc := g.evalFltAny(l2)
		g.emit(titan.Instr{Op: vsOp, Rd: m, Rs1: ls, Rs2: sc})
		return m
	}
	negate := func(m int) int {
		nm := g.nextMask()
		g.emit(titan.Instr{Op: titan.OpMnot, Rd: nm, Rs1: m})
		return nm
	}

	if !lVec {
		if rVec {
			// Scalar-left ordered compare: s < v ⇔ !(v ≤ s), s ≤ v ⇔ !(v < s).
			rs := g.vecExpr(r, -1)
			switch op {
			case il.OpLt:
				return negate(emitCmp(titan.OpVcmpLe, titan.OpVcmpLes, rs, l, false))
			case il.OpLe:
				return negate(emitCmp(titan.OpVcmpLt, titan.OpVcmpLts, rs, l, false))
			}
			return g.fail("comparison operator %v unsupported in mask", op)
		}
		// Loop-invariant guard: broadcast the left operand and compare
		// vector-scalar (the mask is uniform across lanes).
		sc := g.evalFltAny(l)
		slot := g.nextSlot()
		g.emit(titan.Instr{Op: titan.OpVbcast, Rd: slot, Rs1: sc})
		switch op {
		case il.OpLt:
			return emitCmp(titan.OpVcmpLt, titan.OpVcmpLts, slot, r, false)
		case il.OpLe:
			return emitCmp(titan.OpVcmpLe, titan.OpVcmpLes, slot, r, false)
		case il.OpEq:
			return emitCmp(titan.OpVcmpEq, titan.OpVcmpEqs, slot, r, false)
		case il.OpNe:
			return emitCmp(titan.OpVcmpNe, titan.OpVcmpNes, slot, r, false)
		}
		return g.fail("comparison operator %v unsupported in mask", op)
	}
	ls := g.vecExpr(l, -1)
	var vvOp, vsOp titan.Op
	switch op {
	case il.OpLt:
		vvOp, vsOp = titan.OpVcmpLt, titan.OpVcmpLts
	case il.OpLe:
		vvOp, vsOp = titan.OpVcmpLe, titan.OpVcmpLes
	case il.OpEq:
		vvOp, vsOp = titan.OpVcmpEq, titan.OpVcmpEqs
	case il.OpNe:
		vvOp, vsOp = titan.OpVcmpNe, titan.OpVcmpNes
	default:
		return g.fail("comparison operator %v unsupported in mask", op)
	}
	return emitCmp(vvOp, vsOp, ls, r, rVec)
}

func elemKind(t *ctype.Type) int64 {
	switch {
	case t == nil:
		return titan.ElemF32
	case t.Kind == ctype.Double:
		return titan.ElemF64
	case t.IsInteger():
		return titan.ElemI32
	default:
		return titan.ElemF32
	}
}

// vecOps is each arithmetic operator's vector-vector, masked,
// vector-scalar and reversed vector-scalar opcode.
var vecOps = map[il.Op][4]titan.Op{
	il.OpAdd: {titan.OpVadd, titan.OpVaddm, titan.OpVadds, titan.OpVadds},
	il.OpSub: {titan.OpVsub, titan.OpVsubm, titan.OpVsubs, titan.OpVsubsr},
	il.OpMul: {titan.OpVmul, titan.OpVmulm, titan.OpVmuls, titan.OpVmuls},
	il.OpDiv: {titan.OpVdiv, titan.OpVdivm, titan.OpVdivs, titan.OpVdivsr},
}

// vecExpr generates a vector expression into a VRF slot. Scalar operands
// broadcast through vector-scalar instructions. A governing mask register
// mr ≥ 0 makes memory-touching ops masked (loads suppress inactive lanes)
// and vector-vector arithmetic ride the masked forms; register-only ops
// (broadcasts, vector-scalar arith) stay dense — inactive lanes may
// compute garbage, which the masked store then never writes back.
func (g *gen) vecExpr(e il.Expr, mr int) int {
	switch n := e.(type) {
	case *il.VecRef:
		base := g.evalInt(n.Base)
		stride := g.evalInt(n.Stride)
		slot := g.nextSlot()
		if mr >= 0 {
			g.emit(titan.Instr{Op: titan.OpVldm, Rd: slot, Rs1: base, Rs2: stride,
				Imm: elemKind(n.T) | int64(mr)<<8})
		} else {
			g.emit(titan.Instr{Op: titan.OpVld, Rd: slot, Rs1: base, Rs2: stride, Imm: elemKind(n.T)})
		}
		return slot
	case *il.Cast:
		// The VRF holds float64 internally; a conversion that truncates
		// nothing is free.
		if !il.VectorOpExact(n) {
			return g.fail("vector conversion %s is not exact", n)
		}
		return g.vecExpr(n.X, mr)
	case *il.Bin:
		lVec, rVec := containsVec(n.L), containsVec(n.R)
		if !lVec && !rVec {
			break
		}
		if !il.VectorOpExact(n) {
			return g.fail("vector operator %v on %v is not exact", n.Op, n.T)
		}
		ops, ok := vecOps[n.Op]
		if !ok {
			return g.fail("vector operator %v unsupported", n.Op)
		}
		// A scalar operand is the vector-scalar form's second, so a scalar
		// left operand takes the reversed form.
		v, x, op, imm := n.L, n.R, ops[2], int64(0)
		if !lVec {
			v, x, op = n.R, n.L, ops[3]
		}
		vs := g.vecExpr(v, mr)
		var s int
		switch {
		case !lVec || !rVec:
			s = g.evalFltAny(x)
		case mr >= 0:
			s, op, imm = g.vecExpr(x, mr), ops[1], int64(mr)<<8
		default:
			s, op = g.vecExpr(x, mr), ops[0]
		}
		slot := g.nextSlot()
		g.emit(titan.Instr{Op: op, Rd: slot, Rs1: vs, Rs2: s, Imm: imm})
		return slot
	case *il.Un:
		if n.Op == il.OpNeg && containsVec(n.X) {
			xs := g.vecExpr(n.X, mr)
			// 0 - v via reversed subtract.
			sc := g.vreg()
			g.emit(titan.Instr{Op: titan.OpFldi, Rd: sc, FImm: 0})
			slot := g.nextSlot()
			g.emit(titan.Instr{Op: titan.OpVsubsr, Rd: slot, Rs1: xs, Rs2: sc})
			return slot
		}
	}
	return g.fail("expression %s is not a vector expression", e)
}

// evalFltAny evaluates a scalar operand (of any arithmetic type) into a
// float register for broadcasting.
func (g *gen) evalFltAny(e il.Expr) int {
	if isFloatType(e.Type()) {
		return g.evalFlt(e)
	}
	r := g.evalInt(e)
	fr := g.vreg()
	g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: fr, Rs1: r})
	return fr
}

func containsVec(e il.Expr) bool {
	found := false
	il.WalkExpr(e, func(x il.Expr) bool {
		if _, ok := x.(*il.VecRef); ok {
			found = true
		}
		return !found
	})
	return found
}

func (g *gen) nextSlot() int {
	s := g.vecSlotNext
	g.vecSlotNext += vecSlotStride
	if g.vecSlotNext >= titan.VRFWords {
		g.vecSlotNext = 0
	}
	return s
}

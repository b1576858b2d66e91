// Package codegen lowers optimized IL to Titan instructions.
//
// Register allocation follows the paper's plan (§3): the compiler leans on
// a large register file and "generates temporary variables with a fair
// amount of impunity", expecting them to live in registers. Scalars that
// never have their address taken are candidates for r32–r63 and f32–f63.
// Each gets a weight, 8^depth summed over its references, with loop IVs
// and the scalars of a do parallel region above every weight, and a live
// interval over the statements in preorder, widened to every loop it
// overlaps. The heaviest take a register each while the file lasts; the
// rest share a register whose holders' intervals miss their own, and
// only a scalar outside every region falls back to the frame, which a
// region's processors share. Address-taken variables, arrays and
// aggregates live in the stack frame; globals and exported statics live
// in the data segment. Register-windowed calls keep the convention simple
// (arguments in r8../f8.., results in r2/f2).
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
	regSP     = titan.RegSP
	regRet    = titan.RegRetInt
	regArg0   = titan.RegArg0
	scratchLo = 16
	scratchHi = 31 // inclusive
	varLo     = 32
	varHi     = 63
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
	sc := newScan(prog)
	lv := lvPool.Get().(*loopVals)
	defer lvPool.Put(lv)
	for _, p := range prog.Procs {
		f, emitted, err := genProc(p, tp, buf[:0], sc, lv)
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

type gen struct {
	p     *il.Proc
	tp    *titan.Program
	f     *titan.Func
	locs  []location
	frame int64
	// scratch pools
	intFree  []int
	fltFree  []int
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
	// scan is the register allocator's storage, reused by every
	// procedure of the program.
	scan *scan
	// n numbers the statements in the allocator's preorder.
	n int
	// lv records the loops and held scratches for the loop-values pass,
	// and is its storage.
	lv *loopVals
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

// genProc lowers one procedure, emitting into buf and allocating with sc,
// and runs the peephole and the loop-values pass over the result with
// lv's storage. The function gets an exactly sized copy of what they
// leave; what was emitted, in buf grown, serves the next procedure.
func genProc(p *il.Proc, tp *titan.Program, buf []titan.Instr, sc *scan, lv *loopVals) (f *titan.Func, emitted []titan.Instr, err error) {
	g, err := genBody(p, tp, buf, sc, lv)
	if err != nil {
		return nil, nil, err
	}
	emitted = g.f.Instrs
	g.f.Instrs = g.loopValues()
	return g.f, emitted, nil
}

// genBody lowers one procedure and coalesces its copies.
func genBody(p *il.Proc, tp *titan.Program, buf []titan.Instr, sc *scan, lv *loopVals) (*gen, error) {
	lv.loops, lv.held = lv.loops[:0], lv.held[:0]
	g := &gen{
		p:    p,
		tp:   tp,
		f:    &titan.Func{Name: p.Name, Instrs: buf, Labels: map[string]int{}},
		scan: sc,
		lv:   lv,
	}
	for r := scratchLo; r <= scratchHi; r++ {
		g.intFree = append(g.intFree, r)
		g.fltFree = append(g.fltFree, r)
	}
	if err := g.allocate(); err != nil {
		return nil, err
	}
	// Prologue: reserve the frame and bind parameters.
	g.f.Frame = g.frame
	if g.frame > 0 {
		g.emit(titan.Instr{Op: titan.OpAddi, Rd: regSP, Rs1: regSP, Imm: -g.frame})
	}
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
			return nil, errf("too many parameters (max 8 of a kind)")
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
	if err := g.stmts(p.Body); err != nil {
		return nil, err
	}
	if g.n != sc.n {
		// The loop spans would name the wrong live intervals.
		return nil, errf("statement numbering: %d statements generated, %d allocated", g.n, sc.n)
	}
	g.emit(titan.Instr{Op: titan.OpRet})
	coalesceCopies(g.f, lv)
	return g, nil
}

func (g *gen) emit(in titan.Instr) { g.f.Instrs = append(g.f.Instrs, in) }

func (g *gen) label(name string) { g.f.Labels[name] = len(g.f.Instrs) }

func (g *gen) newLabel(hint string) string {
	g.labelSeq++
	return "." + g.p.Name + "." + hint + strconv.Itoa(g.labelSeq)
}

// scratch register management.
func (g *gen) getInt() (int, error) {
	if len(g.intFree) == 0 {
		return 0, errf("integer expression too complex (scratch exhausted)")
	}
	r := g.intFree[len(g.intFree)-1]
	g.intFree = g.intFree[:len(g.intFree)-1]
	return r, nil
}

func (g *gen) getFlt() (int, error) {
	if len(g.fltFree) == 0 {
		return 0, errf("float expression too complex (scratch exhausted)")
	}
	r := g.fltFree[len(g.fltFree)-1]
	g.fltFree = g.fltFree[:len(g.fltFree)-1]
	return r, nil
}

func (g *gen) putInt(r int) {
	if r >= scratchLo && r <= scratchHi {
		g.intFree = append(g.intFree, r)
	}
}

func (g *gen) putFlt(r int) {
	if r >= scratchLo && r <= scratchHi {
		g.fltFree = append(g.fltFree, r)
	}
}

// isFloatType reports whether e computes in the FP unit.
func isFloatType(t *ctype.Type) bool { return t != nil && t.IsFloat() }

// ---------------------------------------------------------------- statements

func (g *gen) stmts(list []il.Stmt) error {
	for _, s := range list {
		g.n++
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s il.Stmt) error {
	switch n := s.(type) {
	case *il.Assign:
		return g.assign(n.Dst, n.Src)
	case *il.PredAssign:
		return g.predAssign(n)
	case *il.Call:
		return g.call(n)
	case *il.If:
		return g.ifStmt(n)
	case *il.While:
		return g.whileStmt(n)
	case *il.DoLoop:
		return g.doLoop(n)
	case *il.DoParallel:
		return g.doParallel(n)
	case *il.SyncPost:
		return g.syncPost(n)
	case *il.SyncWait:
		return g.syncWait(n)
	case *il.VectorAssign:
		return g.vectorAssign(n)
	case *il.Goto:
		g.emit(titan.Instr{Op: titan.OpJmp, Sym: ".L" + n.Target})
		return nil
	case *il.Label:
		g.label(".L" + n.Name)
		return nil
	case *il.Return:
		if n.Val != nil {
			if isFloatType(n.Val.Type()) {
				r, err := g.evalFlt(n.Val)
				if err != nil {
					return err
				}
				g.emit(titan.Instr{Op: titan.OpFmov, Rd: titan.RegRetFlt, Rs1: r})
				g.putFlt(r)
			} else {
				r, err := g.evalInt(n.Val)
				if err != nil {
					return err
				}
				g.emit(titan.Instr{Op: titan.OpMov, Rd: regRet, Rs1: r})
				g.putInt(r)
			}
		}
		g.emit(titan.Instr{Op: titan.OpRet})
		return nil
	}
	return errf("unhandled statement %T", s)
}

func (g *gen) assign(to, src il.Expr) error {
	switch dst := to.(type) {
	case *il.VarRef:
		v := &g.p.Vars[dst.ID]
		loc := g.locs[dst.ID]
		if isFloatType(v.Type) {
			r, err := g.evalFlt(src)
			if err != nil {
				return err
			}
			switch loc.kind {
			case locFltReg:
				g.emit(titan.Instr{Op: titan.OpFmov, Rd: loc.reg, Rs1: r})
			default:
				g.storeToLoc(loc, r, v.Type)
			}
			g.putFlt(r)
			return nil
		}
		r, err := g.evalInt(src)
		if err != nil {
			return err
		}
		switch loc.kind {
		case locIntReg:
			g.emit(titan.Instr{Op: titan.OpMov, Rd: loc.reg, Rs1: r})
		default:
			g.storeToLoc(loc, r, v.Type)
		}
		g.putInt(r)
		return nil
	case *il.Load:
		addr, disp, err := g.evalAddr(dst.Addr)
		if err != nil {
			return err
		}
		t := dst.T
		if isFloatType(t) {
			val, err := g.evalFlt(src)
			if err != nil {
				return err
			}
			op := titan.OpFst4
			if t.Kind == ctype.Double {
				op = titan.OpFst8
			}
			g.emit(titan.Instr{Op: op, Rs1: addr, Rs2: val, Imm: disp})
			g.putFlt(val)
		} else {
			val, err := g.evalInt(src)
			if err != nil {
				return err
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
			g.emit(titan.Instr{Op: op, Rs1: addr, Rs2: val, Imm: disp})
			g.putInt(val)
		}
		g.putInt(addr)
		return nil
	}
	return errf("bad assignment destination %T", to)
}

// predAssign lowers a predicated store in its serial (branchy) form: the
// guard is evaluated and a branch skips the store on false lanes. Masked
// vector execution of predicated statements happens in vectorAssign; this
// path covers serial residue loops and branchy-serial schedules.
func (g *gen) predAssign(n *il.PredAssign) error {
	cond, err := g.evalInt(n.Cond)
	if err != nil {
		return err
	}
	skipL := g.newLabel("pskip")
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: cond, Sym: skipL})
	g.putInt(cond)
	if err := g.assign(n.Dst, n.Src); err != nil {
		return err
	}
	g.label(skipL)
	return nil
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

func (g *gen) call(n *il.Call) error {
	if n.FunPtr != nil {
		return errf("indirect calls are not supported by the code generator")
	}
	intArg, fltArg := 0, 0
	for _, a := range n.Args {
		if isFloatType(a.Type()) {
			r, err := g.evalFlt(a)
			if err != nil {
				return err
			}
			g.emit(titan.Instr{Op: titan.OpFmov, Rd: titan.FRegArg0 + fltArg, Rs1: r})
			g.emit(titan.Instr{Op: titan.OpFarg, Rs1: r})
			g.putFlt(r)
			fltArg++
		} else {
			r, err := g.evalInt(a)
			if err != nil {
				return err
			}
			g.emit(titan.Instr{Op: titan.OpMov, Rd: regArg0 + intArg, Rs1: r})
			g.emit(titan.Instr{Op: titan.OpArg, Rs1: r})
			g.putInt(r)
			intArg++
		}
		if intArg > 7 || fltArg > 7 {
			return errf("too many call arguments")
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
	return nil
}

func (g *gen) ifStmt(n *il.If) error {
	cond, err := g.evalInt(n.Cond)
	if err != nil {
		return err
	}
	elseL := g.newLabel("else")
	endL := g.newLabel("endif")
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: cond, Sym: elseL})
	g.putInt(cond)
	if err := g.stmts(n.Then); err != nil {
		return err
	}
	if len(n.Else) > 0 {
		g.emit(titan.Instr{Op: titan.OpJmp, Sym: endL})
		g.label(elseL)
		if err := g.stmts(n.Else); err != nil {
			return err
		}
		g.label(endL)
	} else {
		g.label(elseL)
	}
	return nil
}

func (g *gen) whileStmt(n *il.While) error {
	topL := g.newLabel("wtop")
	endL := g.newLabel("wend")
	g.label(topL)
	cond, err := g.evalInt(n.Cond)
	if err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: cond, Sym: endL})
	g.putInt(cond)
	if err := g.stmts(n.Body); err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpJmp, Sym: topL})
	g.label(endL)
	return nil
}

// doLoop emits a DO loop bottom-tested: the IV gets its allocated
// variable register and the limit a scratch register held for the loop's
// duration. Each iteration ends in the bump and one compare-and-branch
// back to the top, so an innermost straight-line body is one scheduling
// block; the guard before the top is elided when the trip count is a
// constant of at least one.
func (g *gen) doLoop(n *il.DoLoop) error {
	stepC, ok := il.IsIntConst(n.Step)
	if !ok {
		return errf("DO loop step must be a constant after optimization")
	}
	ivLoc := g.locs[n.IV]
	if ivLoc.kind != locIntReg {
		return errf("loop variable not in a register")
	}
	iv := ivLoc.reg
	at := g.n
	initR, err := g.evalInt(n.Init)
	if err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpMov, Rd: iv, Rs1: initR})
	g.putInt(initR)
	limR, err := g.evalInt(n.Limit)
	if err != nil {
		return err
	}
	g.hold(limR)
	topL := g.newLabel("dtop")
	endL := g.newLabel("dend")
	if n.TripCount() < 1 {
		if err := g.loopTest(iv, limR, stepC, titan.OpBnez, endL); err != nil {
			return err
		}
	}
	g.label(topL)
	if err := g.stmts(n.Body); err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpAddi, Rd: iv, Rs1: iv, Imm: stepC})
	if err := g.loopTest(iv, limR, stepC, titan.OpBeqz, topL); err != nil {
		return err
	}
	g.recordLoop(topL, iv, at)
	g.label(endL)
	g.putInt(limR)
	return nil
}

// recordLoop records the loop whose back branch was just emitted, for the
// loop-values pass: its top label, IV register and statement number.
func (g *gen) recordLoop(topL string, iv, at int) {
	g.lv.loops = append(g.lv.loops, loopSpan{
		top: g.f.Labels[topL], back: len(g.f.Instrs) - 1, iv: iv, at: at, end: g.n,
	})
}

// loopTest emits the test of iv against the loop limit in step's
// direction, true once iv has passed it, and a br on that test to target.
func (g *gen) loopTest(iv, limR int, stepC int64, br titan.Op, target string) error {
	t, err := g.getInt()
	if err != nil {
		return err
	}
	cmp := titan.OpCmpGt
	if stepC < 0 {
		cmp = titan.OpCmpLt
	}
	g.emit(titan.Instr{Op: cmp, Rd: t, Rs1: iv, Rs2: limR})
	g.emit(titan.Instr{Op: br, Rs1: t, Sym: target})
	g.putInt(t)
	return nil
}

// doParallel emits the §2 iteration-spreading shape: each processor starts
// at init + pid·step and strides by nproc·step, bottom-tested as doLoop is.
func (g *gen) doParallel(n *il.DoParallel) error {
	stepC, ok := il.IsIntConst(n.Step)
	if !ok {
		return errf("parallel loop step must be constant")
	}
	ivLoc := g.locs[n.IV]
	if ivLoc.kind != locIntReg {
		return errf("parallel loop variable not in a register")
	}
	iv := ivLoc.reg
	at := g.n
	initR, err := g.evalInt(n.Init)
	if err != nil {
		return err
	}
	g.hold(initR)
	limR, err := g.evalInt(n.Limit)
	if err != nil {
		return err
	}
	g.hold(limR)
	g.emit(titan.Instr{Op: titan.OpParBegin})
	pid, err := g.getInt()
	if err != nil {
		return err
	}
	np, err := g.getInt()
	if err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpPid, Rd: pid})
	g.emit(titan.Instr{Op: titan.OpNproc, Rd: np})
	topL := g.newLabel("ptop")
	endL := g.newLabel("pend")
	prevSync := g.sync
	g.sync = nil
	var sy *syncGen
	if n.Sync != nil {
		if stepC <= 0 {
			return errf("DOACROSS loop requires a positive constant step")
		}
		sy = &syncGen{stepC: stepC, dist: n.Sync.Distance, iv: iv, initR: initR}
		if sy.postCell, err = g.getInt(); err != nil {
			return err
		}
		// The post cell is this processor's id, and waitCell =
		// (pid - dist mod np + np) mod np is the processor that runs
		// iteration iv - dist·step under the cyclic spread.
		g.emit(titan.Instr{Op: titan.OpMov, Rd: sy.postCell, Rs1: pid})
		if sy.waitCell, err = g.getInt(); err != nil {
			return err
		}
		if sy.selfDiff, err = g.getInt(); err != nil {
			return err
		}
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
	if sy == nil {
		g.putInt(initR)
	}
	g.putInt(pid)
	g.sync = sy

	// Every processor has pid < MaxProcessors, so a constant trip count
	// of at least that gives each a first iteration.
	if il.TripCount(n.Init, n.Limit, n.Step) < titan.MaxProcessors {
		if err := g.loopTest(iv, limR, stepC, titan.OpBnez, endL); err != nil {
			return err
		}
	}
	g.label(topL)
	if err := g.stmts(n.Body); err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpAdd, Rd: iv, Rs1: iv, Rs2: np})
	if err := g.loopTest(iv, limR, stepC, titan.OpBeqz, topL); err != nil {
		return err
	}
	g.recordLoop(topL, iv, at)
	g.label(endL)
	if sy != nil {
		// Sentinel: releases every outstanding wait on this processor's
		// cell — consumers of iterations it never started.
		t, err := g.getInt()
		if err != nil {
			return err
		}
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: t, Imm: 1 << 62})
		g.emit(titan.Instr{Op: titan.OpPost, Rs1: sy.postCell, Rs2: t})
		g.putInt(t)
	}
	g.emit(titan.Instr{Op: titan.OpParEnd})
	g.sync = prevSync
	if sy != nil {
		g.putInt(initR)
		g.putInt(sy.postCell)
		g.putInt(sy.waitCell)
		g.putInt(sy.selfDiff)
	}
	g.putInt(np)
	g.putInt(limR)
	return nil
}

// syncPost lowers a SyncPost marker: publish the current iteration to
// this processor's cell.
func (g *gen) syncPost(n *il.SyncPost) error {
	sy := g.sync
	if sy == nil {
		return errf("sync.post outside a DOACROSS parallel region")
	}
	g.emit(titan.Instr{Op: titan.OpPost, Rs1: sy.postCell, Rs2: sy.iv})
	return nil
}

// syncWait lowers a SyncWait marker: block until the producer of
// iteration iv - dist·step has passed its SyncPost. Skipped when the
// dependence stays on this processor (program order already orders the
// iterations) and during pipeline startup (no producer iteration
// exists).
func (g *gen) syncWait(n *il.SyncWait) error {
	sy := g.sync
	if sy == nil {
		return errf("sync.wait outside a DOACROSS parallel region")
	}
	skipL := g.newLabel("swskip")
	g.emit(titan.Instr{Op: titan.OpBeqz, Rs1: sy.selfDiff, Sym: skipL})
	th, err := g.getInt()
	if err != nil {
		return err
	}
	t, err := g.getInt()
	if err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpAddi, Rd: th, Rs1: sy.iv, Imm: -sy.dist * sy.stepC})
	g.emit(titan.Instr{Op: titan.OpCmpLt, Rd: t, Rs1: th, Rs2: sy.initR})
	g.emit(titan.Instr{Op: titan.OpBnez, Rs1: t, Sym: skipL})
	g.emit(titan.Instr{Op: titan.OpWait, Rs1: sy.waitCell, Rs2: th})
	g.label(skipL)
	g.putInt(th)
	g.putInt(t)
	return nil
}

// vectorAssign lowers one vector statement. A masked statement computes
// its guard into a mask register (vcmp/mand/mor/mnot over dense operands —
// the guard itself executes on every lane, exactly as the source program
// evaluated the condition every iteration), then rides masked loads, arith
// and the masked store so inactive lanes have no memory effects.
func (g *gen) vectorAssign(n *il.VectorAssign) error {
	lenR, err := g.evalInt(n.Len)
	if err != nil {
		return err
	}
	g.emit(titan.Instr{Op: titan.OpVsetl, Rs1: lenR})
	g.putInt(lenR)
	g.vecSlotNext = 0
	g.maskNext = 0
	mr := -1
	if n.Mask != nil {
		if mr, err = g.genMask(n.Mask); err != nil {
			return err
		}
	}
	var slot int
	if containsVec(n.RHS) {
		slot, err = g.vecExpr(n.RHS, mr)
		if err != nil {
			return err
		}
	} else {
		// Pure scalar right-hand side: broadcast it across the lanes
		// (register-only, so no lane suppression is needed).
		sc, err := g.evalFltAny(n.RHS)
		if err != nil {
			return err
		}
		slot = g.nextSlot()
		g.emit(titan.Instr{Op: titan.OpVbcast, Rd: slot, Rs1: sc})
		g.putFlt(sc)
	}
	base, err := g.evalInt(n.DstBase)
	if err != nil {
		return err
	}
	stride, err := g.evalInt(n.DstStride)
	if err != nil {
		return err
	}
	if mr >= 0 {
		g.emit(titan.Instr{Op: titan.OpVstm, Rd: slot, Rs1: base, Rs2: stride,
			Imm: elemKind(n.Elem) | int64(mr)<<8})
	} else {
		g.emit(titan.Instr{Op: titan.OpVst, Rd: slot, Rs1: base, Rs2: stride, Imm: elemKind(n.Elem)})
	}
	g.putInt(base)
	g.putInt(stride)
	return nil
}

// nextMask allocates a mask register within the current vector statement.
func (g *gen) nextMask() (int, error) {
	if g.maskNext >= titan.NumMaskRegs {
		return 0, errf("mask expression too complex (%d mask registers)", titan.NumMaskRegs)
	}
	m := g.maskNext
	g.maskNext++
	return m, nil
}

// genMask lowers a guard expression to a mask register: comparisons become
// vcmp.{lt,le,eq,ne} (vector-vector or vector-scalar), ! becomes mnot, and
// &/| become mand/mor. Compare operands are evaluated densely — the guard
// runs on every lane.
func (g *gen) genMask(e il.Expr) (int, error) {
	switch n := e.(type) {
	case *il.Bin:
		if n.Op.IsComparison() {
			return g.genCompare(n)
		}
		switch n.Op {
		case il.OpAnd, il.OpOr:
			lm, err := g.genMask(n.L)
			if err != nil {
				return 0, err
			}
			rm, err := g.genMask(n.R)
			if err != nil {
				return 0, err
			}
			op := titan.OpMand
			if n.Op == il.OpOr {
				op = titan.OpMor
			}
			m, err := g.nextMask()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: op, Rd: m, Rs1: lm, Rs2: rm})
			return m, nil
		}
	case *il.Un:
		if n.Op == il.OpNot {
			xm, err := g.genMask(n.X)
			if err != nil {
				return 0, err
			}
			m, err := g.nextMask()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpMnot, Rd: m, Rs1: xm})
			return m, nil
		}
	case *il.Cast:
		return g.genMask(n.X)
	}
	return 0, errf("expression %s is not a mask expression", e)
}

// genCompare lowers one comparison to a vcmp. Gt/Ge normalize to Lt/Le by
// operand swap; a scalar right operand uses the vector-scalar compare
// forms, a scalar left operand flips via negation identities
// (s < v ⇔ !(v ≤ s)); two scalar operands broadcast the left one.
func (g *gen) genCompare(n *il.Bin) (int, error) {
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
	emitCmp := func(vvOp, vsOp titan.Op, ls int, l2 il.Expr, vec bool) (int, error) {
		m, err := g.nextMask()
		if err != nil {
			return 0, err
		}
		if vec {
			rs, err := g.vecExpr(l2, -1)
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: vvOp, Rd: m, Rs1: ls, Rs2: rs})
			return m, nil
		}
		sc, err := g.evalFltAny(l2)
		if err != nil {
			return 0, err
		}
		g.emit(titan.Instr{Op: vsOp, Rd: m, Rs1: ls, Rs2: sc})
		g.putFlt(sc)
		return m, nil
	}
	negate := func(m int, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		nm, err := g.nextMask()
		if err != nil {
			return 0, err
		}
		g.emit(titan.Instr{Op: titan.OpMnot, Rd: nm, Rs1: m})
		return nm, nil
	}

	if !lVec {
		if rVec {
			// Scalar-left ordered compare: s < v ⇔ !(v ≤ s), s ≤ v ⇔ !(v < s).
			rs, err := g.vecExpr(r, -1)
			if err != nil {
				return 0, err
			}
			switch op {
			case il.OpLt:
				return negate(emitCmp(titan.OpVcmpLe, titan.OpVcmpLes, rs, l, false))
			case il.OpLe:
				return negate(emitCmp(titan.OpVcmpLt, titan.OpVcmpLts, rs, l, false))
			}
			return 0, errf("comparison operator %v unsupported in mask", op)
		}
		// Loop-invariant guard: broadcast the left operand and compare
		// vector-scalar (the mask is uniform across lanes).
		sc, err := g.evalFltAny(l)
		if err != nil {
			return 0, err
		}
		slot := g.nextSlot()
		g.emit(titan.Instr{Op: titan.OpVbcast, Rd: slot, Rs1: sc})
		g.putFlt(sc)
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
		return 0, errf("comparison operator %v unsupported in mask", op)
	}
	ls, err := g.vecExpr(l, -1)
	if err != nil {
		return 0, err
	}
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
		return 0, errf("comparison operator %v unsupported in mask", op)
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

// vecExpr generates a vector expression into a VRF slot. Scalar operands
// broadcast through vector-scalar instructions. A governing mask register
// mr ≥ 0 makes memory-touching ops masked (loads suppress inactive lanes)
// and vector-vector arithmetic ride the masked forms; register-only ops
// (broadcasts, vector-scalar arith) stay dense — inactive lanes may
// compute garbage, which the masked store then never writes back.
func (g *gen) vecExpr(e il.Expr, mr int) (int, error) {
	switch n := e.(type) {
	case *il.VecRef:
		base, err := g.evalInt(n.Base)
		if err != nil {
			return 0, err
		}
		stride, err := g.evalInt(n.Stride)
		if err != nil {
			return 0, err
		}
		slot := g.nextSlot()
		if mr >= 0 {
			g.emit(titan.Instr{Op: titan.OpVldm, Rd: slot, Rs1: base, Rs2: stride,
				Imm: elemKind(n.T) | int64(mr)<<8})
		} else {
			g.emit(titan.Instr{Op: titan.OpVld, Rd: slot, Rs1: base, Rs2: stride, Imm: elemKind(n.T)})
		}
		g.putInt(base)
		g.putInt(stride)
		return slot, nil
	case *il.Cast:
		// The VRF holds float64 internally; a conversion that truncates
		// nothing is free.
		if !il.VectorOpExact(n) {
			return 0, errf("vector conversion %s is not exact", n)
		}
		return g.vecExpr(n.X, mr)
	case *il.Bin:
		lVec := containsVec(n.L)
		rVec := containsVec(n.R)
		if (lVec || rVec) && !il.VectorOpExact(n) {
			return 0, errf("vector operator %v on %v is not exact", n.Op, n.T)
		}
		switch {
		case lVec && rVec:
			ls, err := g.vecExpr(n.L, mr)
			if err != nil {
				return 0, err
			}
			rs, err := g.vecExpr(n.R, mr)
			if err != nil {
				return 0, err
			}
			var op titan.Op
			var imm int64
			switch n.Op {
			case il.OpAdd:
				op = titan.OpVadd
			case il.OpSub:
				op = titan.OpVsub
			case il.OpMul:
				op = titan.OpVmul
			case il.OpDiv:
				op = titan.OpVdiv
			default:
				return 0, errf("vector operator %v unsupported", n.Op)
			}
			if mr >= 0 {
				switch n.Op {
				case il.OpAdd:
					op = titan.OpVaddm
				case il.OpSub:
					op = titan.OpVsubm
				case il.OpMul:
					op = titan.OpVmulm
				case il.OpDiv:
					op = titan.OpVdivm
				}
				imm = int64(mr) << 8
			}
			slot := g.nextSlot()
			g.emit(titan.Instr{Op: op, Rd: slot, Rs1: ls, Rs2: rs, Imm: imm})
			return slot, nil
		case lVec:
			ls, err := g.vecExpr(n.L, mr)
			if err != nil {
				return 0, err
			}
			sc, err := g.evalFltAny(n.R)
			if err != nil {
				return 0, err
			}
			var op titan.Op
			switch n.Op {
			case il.OpAdd:
				op = titan.OpVadds
			case il.OpSub:
				op = titan.OpVsubs
			case il.OpMul:
				op = titan.OpVmuls
			case il.OpDiv:
				op = titan.OpVdivs
			default:
				return 0, errf("vector operator %v unsupported", n.Op)
			}
			slot := g.nextSlot()
			g.emit(titan.Instr{Op: op, Rd: slot, Rs1: ls, Rs2: sc})
			g.putFlt(sc)
			return slot, nil
		case rVec:
			rs, err := g.vecExpr(n.R, mr)
			if err != nil {
				return 0, err
			}
			sc, err := g.evalFltAny(n.L)
			if err != nil {
				return 0, err
			}
			var op titan.Op
			switch n.Op {
			case il.OpAdd:
				op = titan.OpVadds
			case il.OpMul:
				op = titan.OpVmuls
			case il.OpSub:
				op = titan.OpVsubsr
			case il.OpDiv:
				op = titan.OpVdivsr
			default:
				return 0, errf("vector operator %v unsupported", n.Op)
			}
			slot := g.nextSlot()
			g.emit(titan.Instr{Op: op, Rd: slot, Rs1: rs, Rs2: sc})
			g.putFlt(sc)
			return slot, nil
		}
	case *il.Un:
		if n.Op == il.OpNeg && containsVec(n.X) {
			xs, err := g.vecExpr(n.X, mr)
			if err != nil {
				return 0, err
			}
			// 0 - v via reversed subtract.
			sc, err := g.getFlt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpFldi, Rd: sc, FImm: 0})
			slot := g.nextSlot()
			g.emit(titan.Instr{Op: titan.OpVsubsr, Rd: slot, Rs1: xs, Rs2: sc})
			g.putFlt(sc)
			return slot, nil
		}
	}
	return 0, errf("expression %s is not a vector expression", e)
}

// evalFltAny evaluates a scalar operand (of any arithmetic type) into a
// float register for broadcasting.
func (g *gen) evalFltAny(e il.Expr) (int, error) {
	if isFloatType(e.Type()) {
		return g.evalFlt(e)
	}
	r, err := g.evalInt(e)
	if err != nil {
		return 0, err
	}
	fr, err := g.getFlt()
	if err != nil {
		return 0, err
	}
	g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: fr, Rs1: r})
	g.putInt(r)
	return fr, nil
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

package codegen

import (
	"encoding/binary"
	"math"

	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/titan"
)

// This file generates scalar expressions. Evaluation is tree-walking, each
// result into a fresh virtual register, with Sethi–Ullman-style ordering
// (the deeper operand first) to bound how many are live at once.

// evalInt evaluates e into an integer virtual register: a fresh one, or a
// variable's own.
func (g *gen) evalInt(e il.Expr) int {
	switch n := e.(type) {
	case *il.ConstInt:
		r := g.vreg()
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: n.Val})
		return r
	case *il.VarRef:
		v := &g.p.Vars[n.ID]
		if isFloatType(v.Type) {
			// Implicit float→int use (rare: pointer/int context).
			fr := g.evalFlt(e)
			r := g.vreg()
			g.emit(titan.Instr{Op: titan.OpCvtFI, Rd: r, Rs1: fr})
			return r
		}
		loc := g.locs[n.ID]
		if loc.kind == locIntReg {
			// A variable's register is a read-only source here:
			// operations write fresh destinations.
			return loc.reg
		}
		r := g.vreg()
		g.loadFromLoc(loc, r, v.Type)
		return r
	case *il.AddrOf:
		loc := g.locs[n.ID]
		r := g.vreg()
		switch loc.kind {
		case locStack:
			g.emit(titan.Instr{Op: titan.OpAddi, Rd: r, Rs1: regSP, Imm: loc.off})
		case locGlobal:
			g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: loc.off})
		default:
			return g.fail("address of register variable %s", g.p.Vars[n.ID].Name)
		}
		return r
	case *il.Load:
		addr, disp := g.evalAddr(n.Addr)
		if isFloatType(n.T) {
			// Loading a float in integer context: convert.
			fr := g.vreg()
			op := titan.OpFld4
			if n.T.Kind == ctype.Double {
				op = titan.OpFld8
			}
			g.emit(titan.Instr{Op: op, Rd: fr, Rs1: addr, Imm: disp})
			r := g.vreg()
			g.emit(titan.Instr{Op: titan.OpCvtFI, Rd: r, Rs1: fr})
			return r
		}
		r := g.vreg()
		var op titan.Op
		switch n.T.Size() {
		case 1:
			op = titan.OpLd1
		case 2:
			op = titan.OpLd2
		default:
			op = titan.OpLd4
		}
		g.emit(titan.Instr{Op: op, Rd: r, Rs1: addr, Imm: disp})
		// Narrow unsigned loads zero-extend (the memory ops sign-extend).
		if n.T.Unsigned && n.T.Size() < 4 {
			mask := int64(0xff)
			if n.T.Size() == 2 {
				mask = 0xffff
			}
			m := g.vreg()
			g.emit(titan.Instr{Op: titan.OpLdi, Rd: m, Imm: mask})
			z := g.vreg()
			g.emit(titan.Instr{Op: titan.OpAnd, Rd: z, Rs1: r, Rs2: m})
			return z
		}
		return r
	case *il.Bin:
		return g.binInt(n)
	case *il.Un:
		return g.unInt(n)
	case *il.Cast:
		if isFloatType(n.X.Type()) && n.T.IsInteger() {
			fr := g.evalFlt(n.X)
			r := g.vreg()
			g.emit(titan.Instr{Op: titan.OpCvtFI, Rd: r, Rs1: fr})
			return r
		}
		return g.evalInt(n.X)
	case *il.ConstFloat:
		r := g.vreg()
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: int64(n.Val)})
		return r
	}
	return g.fail("cannot evaluate %T in integer context", e)
}

// immOperand splits an integer +, - or * with a constant operand into the
// other operand and the constant; the constant of - must be on the right.
func immOperand(n *il.Bin) (x il.Expr, c int64, ok bool) {
	if n.Op != il.OpAdd && n.Op != il.OpSub && n.Op != il.OpMul {
		return nil, 0, false
	}
	if c, ok := il.IsIntConst(n.R); ok {
		return n.L, c, true
	}
	if c, ok := il.IsIntConst(n.L); ok && n.Op != il.OpSub {
		return n.R, c, true
	}
	return nil, 0, false
}

// evalAddr evaluates the address of a load or store for the Titan's
// rs1+imm form: the returned register plus the displacement is addr. The
// constant terms and global addresses of addr fold into the displacement,
// and a constant scale distributes over a constant offset, so &a + 4*(i+3)
// is one muli of i by 4 at displacement &a+12. An address that is all
// constant is materialized whole, at displacement 0.
func (g *gen) evalAddr(addr il.Expr) (int, int64) {
	r, disp := g.addrParts(addr)
	if r >= 0 {
		return r, disp
	}
	r = g.vreg()
	g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: disp})
	return r, 0
}

// addrParts splits the integer expression e into a register (-1: none)
// plus a constant. Registers are 64 bits and so is the address
// arithmetic, so moving constants across + and * never changes the sum.
func (g *gen) addrParts(e il.Expr) (int, int64) {
	switch n := e.(type) {
	case *il.ConstInt:
		return -1, n.Val
	case *il.AddrOf:
		switch loc := g.locs[n.ID]; loc.kind {
		case locGlobal:
			return -1, loc.off
		case locStack:
			return regSP, loc.off
		}
	case *il.Cast:
		if !isFloatType(n.X.Type()) {
			return g.addrParts(n.X) // integer casts generate nothing
		}
	case *il.Bin:
		switch n.Op {
		case il.OpAdd:
			return g.addrSum(n)
		case il.OpSub:
			if c, ok := il.IsIntConst(n.R); ok {
				r, d := g.addrParts(n.L)
				return r, d - c
			}
		case il.OpMul:
			if x, c, ok := immOperand(n); ok {
				r, d := g.addrParts(x)
				if r < 0 {
					return r, c * d
				}
				m := g.vreg()
				g.emit(titan.Instr{Op: titan.OpMuli, Rd: m, Rs1: r, Imm: c})
				return m, c * d
			}
		}
	}
	return g.evalInt(e), 0
}

// addrSum is addrParts of l + r: the deeper operand first, as binInt
// orders them, and one add when both leave a register.
func (g *gen) addrSum(n *il.Bin) (int, int64) {
	first, second := n.L, n.R
	if depth(n.R) > depth(n.L) {
		first, second = n.R, n.L
	}
	a, da := g.addrParts(first)
	b, db := g.addrParts(second)
	switch {
	case a < 0:
		return b, da + db
	case b < 0:
		return a, da + db
	}
	d := g.vreg()
	g.emit(titan.Instr{Op: titan.OpAdd, Rd: d, Rs1: a, Rs2: b})
	return d, da + db
}

// isUnsigned reports whether an expression's C type is unsigned.
func isUnsigned(e il.Expr) bool {
	t := e.Type()
	return t != nil && t.Unsigned
}

// zext32 truncates a register to its unsigned-32-bit value in a fresh
// register. Registers are 64-bit; C's unsigned comparisons, divisions, and
// right shifts need the canonical zero-extended value.
func (g *gen) zext32(r int) int {
	m := g.vreg()
	g.emit(titan.Instr{Op: titan.OpLdi, Rd: m, Imm: 0xffffffff})
	d := g.vreg()
	g.emit(titan.Instr{Op: titan.OpAnd, Rd: d, Rs1: r, Rs2: m})
	return d
}

// intOps is the integer opcode of each binary operator.
var intOps = map[il.Op]titan.Op{
	il.OpAdd: titan.OpAdd, il.OpSub: titan.OpSub, il.OpMul: titan.OpMul, il.OpDiv: titan.OpDiv,
	il.OpRem: titan.OpRem, il.OpAnd: titan.OpAnd, il.OpOr: titan.OpOr, il.OpXor: titan.OpXor,
	il.OpShl: titan.OpShl, il.OpShr: titan.OpShr,
	il.OpEq: titan.OpCmpEq, il.OpNe: titan.OpCmpNe, il.OpLt: titan.OpCmpLt,
	il.OpLe: titan.OpCmpLe, il.OpGt: titan.OpCmpGt, il.OpGe: titan.OpCmpGe,
}

// fcmpOps is the FP compare of each comparison operator.
var fcmpOps = map[il.Op]titan.Op{
	il.OpEq: titan.OpFcmpEq, il.OpNe: titan.OpFcmpNe, il.OpLt: titan.OpFcmpLt,
	il.OpLe: titan.OpFcmpLe, il.OpGt: titan.OpFcmpGt, il.OpGe: titan.OpFcmpGe,
}

// float comparison produces an int; binInt dispatches.
func (g *gen) binInt(n *il.Bin) int {
	// Comparisons over float operands run in the FP unit.
	if n.Op.IsComparison() && (isFloatType(n.L.Type()) || isFloatType(n.R.Type())) {
		l := g.evalFlt(n.L)
		r := g.evalFlt(n.R)
		d := g.vreg()
		g.emit(titan.Instr{Op: fcmpOps[n.Op], Rd: d, Rs1: l, Rs2: r})
		return d
	}

	// x + const and x * const use immediate forms, and so do const + x
	// and const * x.
	x, c, ok := immOperand(n)
	if ok {
		l := g.evalInt(x)
		d := g.vreg()
		switch n.Op {
		case il.OpAdd:
			g.emit(titan.Instr{Op: titan.OpAddi, Rd: d, Rs1: l, Imm: c})
		case il.OpSub:
			g.emit(titan.Instr{Op: titan.OpAddi, Rd: d, Rs1: l, Imm: -c})
		case il.OpMul:
			g.emit(titan.Instr{Op: titan.OpMuli, Rd: d, Rs1: l, Imm: c})
		}
		return d
	}

	// Deeper operand first (Sethi–Ullman).
	first, second := n.L, n.R
	swapped := false
	if depth(n.R) > depth(n.L) {
		first, second = n.R, n.L
		swapped = true
	}
	a := g.evalInt(first)
	b := g.evalInt(second)
	l, r := a, b
	if swapped {
		l, r = b, a
	}
	// Unsigned semantics: relational comparisons, division, remainder and
	// right shift need the canonical 32-bit zero-extended operands.
	needsUnsigned := false
	switch n.Op {
	case il.OpDiv, il.OpRem, il.OpShr:
		needsUnsigned = n.T != nil && n.T.Unsigned
	case il.OpLt, il.OpLe, il.OpGt, il.OpGe:
		needsUnsigned = isUnsigned(n.L) || isUnsigned(n.R)
	}
	if needsUnsigned {
		l = g.zext32(l)
		r = g.zext32(r)
	}
	d := g.vreg()
	op, ok := intOps[n.Op]
	if !ok {
		return g.fail("integer operator %v unsupported", n.Op)
	}
	g.emit(titan.Instr{Op: op, Rd: d, Rs1: l, Rs2: r})
	return d
}

func (g *gen) unInt(n *il.Un) int {
	x := g.evalInt(n.X)
	d := g.vreg()
	var op titan.Op
	switch n.Op {
	case il.OpNeg:
		op = titan.OpNeg
	case il.OpNot:
		op = titan.OpNot
	case il.OpBitNot:
		op = titan.OpBnot
	default:
		return g.fail("integer unary %v unsupported", n.Op)
	}
	g.emit(titan.Instr{Op: op, Rd: d, Rs1: x})
	return d
}

// evalFlt evaluates e into a fresh float register.
func (g *gen) evalFlt(e il.Expr) int {
	switch n := e.(type) {
	case *il.ConstFloat:
		r := g.vreg()
		g.emit(titan.Instr{Op: titan.OpFldi, Rd: r, FImm: n.Val})
		return r
	case *il.ConstInt:
		r := g.vreg()
		g.emit(titan.Instr{Op: titan.OpFldi, Rd: r, FImm: float64(n.Val)})
		return r
	case *il.VarRef:
		v := &g.p.Vars[n.ID]
		if !isFloatType(v.Type) {
			ir := g.evalInt(e)
			r := g.vreg()
			g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: r, Rs1: ir})
			return r
		}
		loc := g.locs[n.ID]
		if loc.kind == locFltReg {
			return loc.reg
		}
		r := g.vreg()
		g.loadFromLoc(loc, r, v.Type)
		return r
	case *il.Load:
		if !isFloatType(n.T) {
			ir := g.evalInt(e)
			r := g.vreg()
			g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: r, Rs1: ir})
			return r
		}
		addr, disp := g.evalAddr(n.Addr)
		r := g.vreg()
		op := titan.OpFld4
		if n.T.Kind == ctype.Double {
			op = titan.OpFld8
		}
		g.emit(titan.Instr{Op: op, Rd: r, Rs1: addr, Imm: disp})
		return r
	case *il.Bin:
		first, second := n.L, n.R
		swapped := false
		if depth(n.R) > depth(n.L) {
			first, second = n.R, n.L
			swapped = true
		}
		a := g.evalFlt(first)
		b := g.evalFlt(second)
		l, r := a, b
		if swapped {
			l, r = b, a
		}
		d := g.vreg()
		var op titan.Op
		switch n.Op {
		case il.OpAdd:
			op = titan.OpFadd
		case il.OpSub:
			op = titan.OpFsub
		case il.OpMul:
			op = titan.OpFmul
		case il.OpDiv:
			op = titan.OpFdiv
		default:
			return g.fail("float operator %v unsupported", n.Op)
		}
		g.emit(titan.Instr{Op: op, Rd: d, Rs1: l, Rs2: r})
		return d
	case *il.Un:
		if n.Op == il.OpNeg {
			x := g.evalFlt(n.X)
			d := g.vreg()
			g.emit(titan.Instr{Op: titan.OpFneg, Rd: d, Rs1: x})
			return d
		}
		return g.fail("float unary %v unsupported", n.Op)
	case *il.Cast:
		if n.T.IsFloat() && !isFloatType(n.X.Type()) {
			ir := g.evalInt(n.X)
			r := g.vreg()
			g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: r, Rs1: ir})
			return r
		}
		return g.evalFlt(n.X)
	}
	return g.fail("cannot evaluate %T in float context", e)
}

// depth estimates register pressure for Sethi–Ullman ordering.
func depth(e il.Expr) int {
	switch n := e.(type) {
	case *il.Bin:
		l, r := depth(n.L), depth(n.R)
		if l == r {
			return l + 1
		}
		if l > r {
			return l
		}
		return r
	case *il.Un:
		return depth(n.X)
	case *il.Cast:
		return depth(n.X)
	case *il.Load:
		return depth(n.Addr) + 1
	default:
		return 1
	}
}

// ------------------------------------------------------------ data helpers

func f32bits(v float32) uint32 { return math.Float32bits(v) }
func f64bits(v float64) uint64 { return math.Float64bits(v) }

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

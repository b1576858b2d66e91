package codegen

import (
	"encoding/binary"
	"math"

	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/titan"
)

// This file generates scalar expressions. Evaluation is tree-walking into
// scratch registers with Sethi–Ullman-style ordering (the deeper operand
// first) to bound scratch pressure.

// evalInt evaluates e into a fresh integer register. The caller releases
// it with putInt.
func (g *gen) evalInt(e il.Expr) (int, error) {
	switch n := e.(type) {
	case *il.ConstInt:
		r, err := g.getInt()
		if err != nil {
			return 0, err
		}
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: n.Val})
		return r, nil
	case *il.VarRef:
		v := &g.p.Vars[n.ID]
		if isFloatType(v.Type) {
			// Implicit float→int use (rare: pointer/int context).
			fr, err := g.evalFlt(e)
			if err != nil {
				return 0, err
			}
			r, err := g.getInt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpCvtFI, Rd: r, Rs1: fr})
			g.putFlt(fr)
			return r, nil
		}
		loc := g.locs[n.ID]
		if loc.kind == locIntReg {
			// A register at or above varLo that evalInt or evalFlt
			// returns is a read-only source: operations write fresh
			// destinations, and putInt/putFlt leave it alone. The
			// loop-values pass relies on it, renaming a scratch's reads
			// to a register it keeps a loop value in.
			return loc.reg, nil
		}
		r, err := g.getInt()
		if err != nil {
			return 0, err
		}
		g.loadFromLoc(loc, r, v.Type)
		return r, nil
	case *il.AddrOf:
		loc := g.locs[n.ID]
		r, err := g.getInt()
		if err != nil {
			return 0, err
		}
		switch loc.kind {
		case locStack:
			g.emit(titan.Instr{Op: titan.OpAddi, Rd: r, Rs1: regSP, Imm: loc.off})
		case locGlobal:
			g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: loc.off})
		default:
			return 0, errf("address of register variable %s", g.p.Vars[n.ID].Name)
		}
		return r, nil
	case *il.Load:
		addr, disp, err := g.evalAddr(n.Addr)
		if err != nil {
			return 0, err
		}
		if isFloatType(n.T) {
			// Loading a float in integer context: convert.
			fr, err := g.getFlt()
			if err != nil {
				return 0, err
			}
			op := titan.OpFld4
			if n.T.Kind == ctype.Double {
				op = titan.OpFld8
			}
			g.emit(titan.Instr{Op: op, Rd: fr, Rs1: addr, Imm: disp})
			g.putInt(addr)
			r, err := g.getInt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpCvtFI, Rd: r, Rs1: fr})
			g.putFlt(fr)
			return r, nil
		}
		r, err := g.getInt()
		if err != nil {
			return 0, err
		}
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
		g.putInt(addr)
		// Narrow unsigned loads zero-extend (the memory ops sign-extend).
		if n.T.Unsigned && n.T.Size() < 4 {
			mask := int64(0xff)
			if n.T.Size() == 2 {
				mask = 0xffff
			}
			m, err := g.getInt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpLdi, Rd: m, Imm: mask})
			z, err := g.getInt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpAnd, Rd: z, Rs1: r, Rs2: m})
			g.putInt(m)
			g.putInt(r)
			return z, nil
		}
		return r, nil
	case *il.Bin:
		return g.binInt(n)
	case *il.Un:
		return g.unInt(n)
	case *il.Cast:
		if isFloatType(n.X.Type()) && n.T.IsInteger() {
			fr, err := g.evalFlt(n.X)
			if err != nil {
				return 0, err
			}
			r, err := g.getInt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpCvtFI, Rd: r, Rs1: fr})
			g.putFlt(fr)
			return r, nil
		}
		return g.evalInt(n.X)
	case *il.ConstFloat:
		r, err := g.getInt()
		if err != nil {
			return 0, err
		}
		g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: int64(n.Val)})
		return r, nil
	}
	return 0, errf("cannot evaluate %T in integer context", e)
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
func (g *gen) evalAddr(addr il.Expr) (int, int64, error) {
	r, disp, err := g.addrParts(addr)
	if err != nil || r >= 0 {
		return r, disp, err
	}
	if r, err = g.getInt(); err != nil {
		return 0, 0, err
	}
	g.emit(titan.Instr{Op: titan.OpLdi, Rd: r, Imm: disp})
	return r, 0, nil
}

// addrParts splits the integer expression e into a register (-1: none)
// plus a constant. Registers are 64 bits and so is the address
// arithmetic, so moving constants across + and * never changes the sum.
func (g *gen) addrParts(e il.Expr) (int, int64, error) {
	switch n := e.(type) {
	case *il.ConstInt:
		return -1, n.Val, nil
	case *il.AddrOf:
		switch loc := g.locs[n.ID]; loc.kind {
		case locGlobal:
			return -1, loc.off, nil
		case locStack:
			return regSP, loc.off, nil
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
				r, d, err := g.addrParts(n.L)
				return r, d - c, err
			}
		case il.OpMul:
			if x, c, ok := immOperand(n); ok {
				r, d, err := g.addrParts(x)
				if err != nil || r < 0 {
					return r, c * d, err
				}
				m, err := g.getInt()
				if err != nil {
					return 0, 0, err
				}
				g.emit(titan.Instr{Op: titan.OpMuli, Rd: m, Rs1: r, Imm: c})
				g.putInt(r)
				return m, c * d, nil
			}
		}
	}
	r, err := g.evalInt(e)
	return r, 0, err
}

// addrSum is addrParts of l + r: the deeper operand first, as binInt
// orders them, and one add when both leave a register.
func (g *gen) addrSum(n *il.Bin) (int, int64, error) {
	first, second := n.L, n.R
	if depth(n.R) > depth(n.L) {
		first, second = n.R, n.L
	}
	a, da, err := g.addrParts(first)
	if err != nil {
		return 0, 0, err
	}
	b, db, err := g.addrParts(second)
	if err != nil {
		return 0, 0, err
	}
	switch {
	case a < 0:
		return b, da + db, nil
	case b < 0:
		return a, da + db, nil
	}
	d, err := g.getInt()
	if err != nil {
		return 0, 0, err
	}
	g.emit(titan.Instr{Op: titan.OpAdd, Rd: d, Rs1: a, Rs2: b})
	g.putInt(a)
	g.putInt(b)
	return d, da + db, nil
}

// isUnsigned reports whether an expression's C type is unsigned.
func isUnsigned(e il.Expr) bool {
	t := e.Type()
	return t != nil && t.Unsigned
}

// zext32 truncates a register to its unsigned-32-bit value in a fresh
// scratch register. Registers are 64-bit; C's unsigned comparisons,
// divisions, and right shifts need the canonical zero-extended value.
func (g *gen) zext32(r int) (int, error) {
	m, err := g.getInt()
	if err != nil {
		return 0, err
	}
	g.emit(titan.Instr{Op: titan.OpLdi, Rd: m, Imm: 0xffffffff})
	d, err := g.getInt()
	if err != nil {
		return 0, err
	}
	g.emit(titan.Instr{Op: titan.OpAnd, Rd: d, Rs1: r, Rs2: m})
	g.putInt(m)
	return d, nil
}

// float comparison produces an int; binInt dispatches.
func (g *gen) binInt(n *il.Bin) (int, error) {
	// Comparisons over float operands run in the FP unit.
	if n.Op.IsComparison() && (isFloatType(n.L.Type()) || isFloatType(n.R.Type())) {
		l, err := g.evalFlt(n.L)
		if err != nil {
			return 0, err
		}
		r, err := g.evalFlt(n.R)
		if err != nil {
			return 0, err
		}
		d, err := g.getInt()
		if err != nil {
			return 0, err
		}
		var op titan.Op
		switch n.Op {
		case il.OpEq:
			op = titan.OpFcmpEq
		case il.OpNe:
			op = titan.OpFcmpNe
		case il.OpLt:
			op = titan.OpFcmpLt
		case il.OpLe:
			op = titan.OpFcmpLe
		case il.OpGt:
			op = titan.OpFcmpGt
		case il.OpGe:
			op = titan.OpFcmpGe
		}
		g.emit(titan.Instr{Op: op, Rd: d, Rs1: l, Rs2: r})
		g.putFlt(l)
		g.putFlt(r)
		return d, nil
	}

	// x + const and x * const use immediate forms, and so do const + x
	// and const * x.
	x, c, ok := immOperand(n)
	if ok {
		l, err := g.evalInt(x)
		if err != nil {
			return 0, err
		}
		d, err := g.getInt()
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case il.OpAdd:
			g.emit(titan.Instr{Op: titan.OpAddi, Rd: d, Rs1: l, Imm: c})
		case il.OpSub:
			g.emit(titan.Instr{Op: titan.OpAddi, Rd: d, Rs1: l, Imm: -c})
		case il.OpMul:
			g.emit(titan.Instr{Op: titan.OpMuli, Rd: d, Rs1: l, Imm: c})
		}
		g.putInt(l)
		return d, nil
	}

	// Deeper operand first (Sethi–Ullman).
	first, second := n.L, n.R
	swapped := false
	if depth(n.R) > depth(n.L) {
		first, second = n.R, n.L
		swapped = true
	}
	a, err := g.evalInt(first)
	if err != nil {
		return 0, err
	}
	b, err := g.evalInt(second)
	if err != nil {
		return 0, err
	}
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
		zl, err := g.zext32(l)
		if err != nil {
			return 0, err
		}
		zr, err := g.zext32(r)
		if err != nil {
			return 0, err
		}
		g.putInt(a)
		g.putInt(b)
		l, r = zl, zr
		a, b = zl, zr
	}
	d, err := g.getInt()
	if err != nil {
		return 0, err
	}
	var op titan.Op
	switch n.Op {
	case il.OpAdd:
		op = titan.OpAdd
	case il.OpSub:
		op = titan.OpSub
	case il.OpMul:
		op = titan.OpMul
	case il.OpDiv:
		op = titan.OpDiv
	case il.OpRem:
		op = titan.OpRem
	case il.OpAnd:
		op = titan.OpAnd
	case il.OpOr:
		op = titan.OpOr
	case il.OpXor:
		op = titan.OpXor
	case il.OpShl:
		op = titan.OpShl
	case il.OpShr:
		op = titan.OpShr
	case il.OpEq:
		op = titan.OpCmpEq
	case il.OpNe:
		op = titan.OpCmpNe
	case il.OpLt:
		op = titan.OpCmpLt
	case il.OpLe:
		op = titan.OpCmpLe
	case il.OpGt:
		op = titan.OpCmpGt
	case il.OpGe:
		op = titan.OpCmpGe
	default:
		return 0, errf("integer operator %v unsupported", n.Op)
	}
	g.emit(titan.Instr{Op: op, Rd: d, Rs1: l, Rs2: r})
	g.putInt(a)
	g.putInt(b)
	return d, nil
}

func (g *gen) unInt(n *il.Un) (int, error) {
	x, err := g.evalInt(n.X)
	if err != nil {
		return 0, err
	}
	d, err := g.getInt()
	if err != nil {
		return 0, err
	}
	var op titan.Op
	switch n.Op {
	case il.OpNeg:
		op = titan.OpNeg
	case il.OpNot:
		op = titan.OpNot
	case il.OpBitNot:
		op = titan.OpBnot
	default:
		return 0, errf("integer unary %v unsupported", n.Op)
	}
	g.emit(titan.Instr{Op: op, Rd: d, Rs1: x})
	g.putInt(x)
	return d, nil
}

// evalFlt evaluates e into a fresh float register.
func (g *gen) evalFlt(e il.Expr) (int, error) {
	switch n := e.(type) {
	case *il.ConstFloat:
		r, err := g.getFlt()
		if err != nil {
			return 0, err
		}
		g.emit(titan.Instr{Op: titan.OpFldi, Rd: r, FImm: n.Val})
		return r, nil
	case *il.ConstInt:
		r, err := g.getFlt()
		if err != nil {
			return 0, err
		}
		g.emit(titan.Instr{Op: titan.OpFldi, Rd: r, FImm: float64(n.Val)})
		return r, nil
	case *il.VarRef:
		v := &g.p.Vars[n.ID]
		if !isFloatType(v.Type) {
			ir, err := g.evalInt(e)
			if err != nil {
				return 0, err
			}
			r, err := g.getFlt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: r, Rs1: ir})
			g.putInt(ir)
			return r, nil
		}
		loc := g.locs[n.ID]
		if loc.kind == locFltReg {
			return loc.reg, nil
		}
		r, err := g.getFlt()
		if err != nil {
			return 0, err
		}
		g.loadFromLoc(loc, r, v.Type)
		return r, nil
	case *il.Load:
		if !isFloatType(n.T) {
			ir, err := g.evalInt(e)
			if err != nil {
				return 0, err
			}
			r, err := g.getFlt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: r, Rs1: ir})
			g.putInt(ir)
			return r, nil
		}
		addr, disp, err := g.evalAddr(n.Addr)
		if err != nil {
			return 0, err
		}
		r, err := g.getFlt()
		if err != nil {
			return 0, err
		}
		op := titan.OpFld4
		if n.T.Kind == ctype.Double {
			op = titan.OpFld8
		}
		g.emit(titan.Instr{Op: op, Rd: r, Rs1: addr, Imm: disp})
		g.putInt(addr)
		return r, nil
	case *il.Bin:
		first, second := n.L, n.R
		swapped := false
		if depth(n.R) > depth(n.L) {
			first, second = n.R, n.L
			swapped = true
		}
		a, err := g.evalFlt(first)
		if err != nil {
			return 0, err
		}
		b, err := g.evalFlt(second)
		if err != nil {
			return 0, err
		}
		l, r := a, b
		if swapped {
			l, r = b, a
		}
		d, err := g.getFlt()
		if err != nil {
			return 0, err
		}
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
			return 0, errf("float operator %v unsupported", n.Op)
		}
		g.emit(titan.Instr{Op: op, Rd: d, Rs1: l, Rs2: r})
		g.putFlt(a)
		g.putFlt(b)
		return d, nil
	case *il.Un:
		if n.Op == il.OpNeg {
			x, err := g.evalFlt(n.X)
			if err != nil {
				return 0, err
			}
			d, err := g.getFlt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpFneg, Rd: d, Rs1: x})
			g.putFlt(x)
			return d, nil
		}
		return 0, errf("float unary %v unsupported", n.Op)
	case *il.Cast:
		if n.T.IsFloat() && !isFloatType(n.X.Type()) {
			ir, err := g.evalInt(n.X)
			if err != nil {
				return 0, err
			}
			r, err := g.getFlt()
			if err != nil {
				return 0, err
			}
			g.emit(titan.Instr{Op: titan.OpCvtIF, Rd: r, Rs1: ir})
			g.putInt(ir)
			return r, nil
		}
		return g.evalFlt(n.X)
	}
	return 0, errf("cannot evaluate %T in float context", e)
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

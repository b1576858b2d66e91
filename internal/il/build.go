package il

import "repro/internal/ctype"

// This file provides smart constructors used throughout the optimizer,
// as methods on the arena the nodes come from (nil: the heap). The binary
// constructors fold constant operands and apply simple algebraic
// identities, which keeps address arithmetic built by the lowering and
// substitution passes in a canonical, readable form.

// IsIntConst reports whether e is an integer constant, returning its value.
func IsIntConst(e Expr) (int64, bool) {
	if c, ok := e.(*ConstInt); ok {
		return c.Val, true
	}
	return 0, false
}

// IsZero reports whether e is the integer or float constant zero.
func IsZero(e Expr) bool {
	switch c := e.(type) {
	case *ConstInt:
		return c.Val == 0
	case *ConstFloat:
		return c.Val == 0
	}
	return false
}

// isOne reports whether e is the integer constant one.
func isOne(e Expr) bool {
	c, ok := e.(*ConstInt)
	return ok && c.Val == 1
}

// binFold says what NewBin makes of an operator and its operands.
type binFold int

const (
	keepBin binFold = iota // a fresh Bin of the same operands
	isInt                  // the integer constant foldBin returns
	isFloat                // the float constant foldBin returns
	isLeft                 // the left operand
	isRight                // the right operand
)

// foldBin is the one folding decision: NewBin acts on it and BinFoldable
// reports it.
func foldBin(op Op, l, r Expr, t *ctype.Type) (binFold, int64, float64) {
	lc, lok := l.(*ConstInt)
	rc, rok := r.(*ConstInt)
	if lok && rok && t.IsInteger() {
		// Folding uses signed 64-bit semantics; an unsigned operand whose
		// value wrapped negative would fold wrong, so leave it to the
		// machine (which canonicalizes unsigned operands).
		unsignedHazard := (unsignedType(lc.T) && lc.Val < 0) ||
			(unsignedType(rc.T) && rc.Val < 0)
		if !unsignedHazard {
			if v, ok := foldInt(op, lc.Val, rc.Val); ok {
				return isInt, v, 0
			}
		}
	}
	lf, lfok := l.(*ConstFloat)
	rf, rfok := r.(*ConstFloat)
	if lfok && rfok && t.IsFloat() {
		if v, ok := foldFloat(op, lf.Val, rf.Val); ok {
			return isFloat, 0, v
		}
	}
	switch op {
	case OpAdd:
		if IsZero(l) {
			return isRight, 0, 0
		}
		if IsZero(r) {
			return isLeft, 0, 0
		}
	case OpSub:
		if IsZero(r) {
			return isLeft, 0, 0
		}
	case OpMul:
		if isOne(l) {
			return isRight, 0, 0
		}
		if isOne(r) {
			return isLeft, 0, 0
		}
		if t.IsInteger() && (IsZero(l) || IsZero(r)) {
			return isInt, 0, 0
		}
	case OpDiv:
		if isOne(r) {
			return isLeft, 0, 0
		}
	}
	return keepBin, 0, 0
}

// NewBin builds a binary expression, folding integer constant operands and
// applying the identities x+0, x-0, x*1, x*0, 0+x, 1*x, x/1.
func (a *Arena) NewBin(op Op, l, r Expr, t *ctype.Type) Expr {
	switch f, iv, fv := foldBin(op, l, r, t); f {
	case isInt:
		return a.ConstInt(iv, t)
	case isFloat:
		return a.ConstFloat(fv, t)
	case isLeft:
		return l
	case isRight:
		return r
	}
	return a.Bin(op, l, r, t)
}

func unsignedType(t *ctype.Type) bool { return t != nil && t.Unsigned }

// BinFoldable reports whether NewBin(op, l, r, t) would return anything
// other than a fresh Bin with the same operands — i.e. whether constant
// folding or an algebraic identity applies — letting callers skip the
// constructor (and its allocation) on the common nothing-to-fold path.
func BinFoldable(op Op, l, r Expr, t *ctype.Type) bool {
	f, _, _ := foldBin(op, l, r, t)
	return f != keepBin
}

func foldInt(op Op, a, b int64) (int64, bool) {
	b2i := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		if b < 0 || b > 63 {
			return 0, false
		}
		return a << uint(b), true
	case OpShr:
		if b < 0 || b > 63 {
			return 0, false
		}
		return a >> uint(b), true
	case OpEq:
		return b2i(a == b), true
	case OpNe:
		return b2i(a != b), true
	case OpLt:
		return b2i(a < b), true
	case OpGt:
		return b2i(a > b), true
	case OpLe:
		return b2i(a <= b), true
	case OpGe:
		return b2i(a >= b), true
	}
	return 0, false
}

func foldFloat(op Op, a, b float64) (float64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	}
	return 0, false
}

// FoldCompareFloat folds a comparison over float constants to 0/1.
func FoldCompareFloat(op Op, a, b float64) (int64, bool) {
	b2i := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case OpEq:
		return b2i(a == b), true
	case OpNe:
		return b2i(a != b), true
	case OpLt:
		return b2i(a < b), true
	case OpGt:
		return b2i(a > b), true
	case OpLe:
		return b2i(a <= b), true
	case OpGe:
		return b2i(a >= b), true
	}
	return 0, false
}

// Add builds l+r of type t with folding.
func (a *Arena) Add(l, r Expr, t *ctype.Type) Expr { return a.NewBin(OpAdd, l, r, t) }

// Sub builds l-r of type t with folding.
func (a *Arena) Sub(l, r Expr, t *ctype.Type) Expr { return a.NewBin(OpSub, l, r, t) }

// Mul builds l*r of type t with folding.
func (a *Arena) Mul(l, r Expr, t *ctype.Type) Expr { return a.NewBin(OpMul, l, r, t) }

// NewUn builds a unary expression, folding constants.
func (a *Arena) NewUn(op Op, x Expr, t *ctype.Type) Expr {
	if c, ok := x.(*ConstInt); ok {
		switch op {
		case OpNeg:
			return a.ConstInt(-c.Val, t)
		case OpBitNot:
			return a.ConstInt(^c.Val, t)
		case OpNot:
			v := int64(0)
			if c.Val == 0 {
				v = 1
			}
			return a.ConstInt(v, t)
		}
	}
	if c, ok := x.(*ConstFloat); ok && op == OpNeg {
		return a.ConstFloat(-c.Val, t)
	}
	return a.Un(op, x, t)
}

// NewCast builds a cast, folding constant operands and eliding identity
// casts between same-kind scalar types.
func (a *Arena) NewCast(x Expr, to *ctype.Type) Expr {
	if x.Type() != nil && x.Type().Kind == to.Kind && x.Type().Unsigned == to.Unsigned {
		return x
	}
	if c, ok := x.(*ConstInt); ok {
		if to.IsFloat() {
			return a.ConstFloat(float64(c.Val), to)
		}
		if to.IsInteger() || to.Kind == ctype.Pointer {
			return a.ConstInt(c.Val, to)
		}
	}
	if c, ok := x.(*ConstFloat); ok {
		if to.IsInteger() {
			return a.ConstInt(int64(c.Val), to)
		}
		if to.IsFloat() {
			return a.ConstFloat(c.Val, to)
		}
	}
	return a.Cast(x, to)
}

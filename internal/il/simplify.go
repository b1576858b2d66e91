package il

import (
	"math"

	"repro/internal/ctype"
)

// SimplifyLinear canonicalizes an integer or pointer-typed sum: it
// collects additive terms (constants, scaled variables and addresses,
// opaque subtrees), combines like terms, and rebuilds the expression.
// The pass turns the induction-variable algebra the optimizer generates —
// (a + 4·n) + (−4·n), x + 0, 2·i + 3·i — back into readable, cheap forms.
// Expressions containing volatile references are returned unchanged.
// Rebuilt nodes come from arena a.
func (a *Arena) SimplifyLinear(e Expr) Expr {
	t := e.Type()
	if t == nil || !(t.IsInteger() || t.Kind == ctype.Pointer) {
		return e
	}
	var c collector
	if !c.collect(e, 1) {
		return e
	}
	// Only rebuild when something actually combined or vanished; the
	// canonical form is idempotent, so the folding fixpoint terminates.
	zeroed := false
	for i := 0; i < c.n; i++ {
		if c.term(i).Coef == 0 {
			zeroed = true
		}
	}
	if !c.combined && !zeroed && c.constCount < 2 {
		return e
	}
	if c.n == 0 {
		return a.ConstInt(c.constant, t)
	}
	// Rebuild: terms in first-seen order, constant last.
	var out Expr
	add := func(x Expr) {
		if out == nil {
			out = x
			return
		}
		out = a.Bin(OpAdd, out, x, t)
	}
	for i := 0; i < c.n; i++ {
		tm := c.term(i)
		if tm.Coef == 0 {
			continue
		}
		switch {
		case tm.Coef == 1:
			add(tm.Expr)
		case tm.Coef == -1:
			add(a.Un(OpNeg, tm.Expr, ctype.IntType))
		default:
			add(a.Bin(OpMul, a.ConstInt(tm.Coef, ctype.IntType), tm.Expr, ctype.IntType))
		}
	}
	if out == nil {
		return a.ConstInt(c.constant, t)
	}
	if c.constant > 0 {
		return a.Bin(OpAdd, out, a.ConstInt(c.constant, t), t)
	} else if c.constant < 0 {
		return a.Bin(OpSub, out, a.ConstInt(-c.constant, t), t)
	}
	return a.withType(out, t)
}

// withType returns e at the sum's type t. A one-term sum with no
// constant is its term, which may be arithmetic of another type; that
// root is rebuilt at t, since the term is shared with the input. A leaf,
// load or cast keeps its own type.
func (a *Arena) withType(e Expr, t *ctype.Type) Expr {
	switch n := e.(type) {
	case *Bin:
		if n.T != t {
			return a.Bin(n.Op, n.L, n.R, t)
		}
	case *Un:
		if n.T != t {
			return a.Un(n.Op, n.X, t)
		}
	}
	return e
}

// collector accumulates the additive terms of a sum, in first-seen order
// and matched structurally (sameTerm). The first len(buf) terms live in
// the collector itself and only the rest in a slice: the few-term case
// then allocates nothing, where one slice over buf would have moved the
// whole collector to the heap (a store through c leaks what it stores).
type collector struct {
	// throughCasts makes a cast transparent (LinearTerms: an address is
	// the same address whatever pointer type it is viewed at);
	// SimplifyLinear rebuilds the sum and must keep each cast where it is.
	throughCasts bool
	constant     int64
	constCount   int
	combined     bool
	n            int
	buf          [8]Term
	more         []Term
}

func (c *collector) term(i int) *Term {
	if i < len(c.buf) {
		return &c.buf[i]
	}
	return &c.more[i-len(c.buf)]
}

// collect walks k·e as a sum, distributing k over +, −, negation and
// constant multiples; returns false when a term contains a volatile load.
func (c *collector) collect(e Expr, k int64) bool {
	switch n := e.(type) {
	case *ConstInt:
		c.constant += k * n.Val
		c.constCount++
		return true
	case *Bin:
		switch n.Op {
		case OpAdd:
			return c.collect(n.L, k) && c.collect(n.R, k)
		case OpSub:
			return c.collect(n.L, k) && c.collect(n.R, -k)
		case OpMul:
			if v, ok := IsIntConst(n.L); ok {
				return c.collect(n.R, k*v)
			}
			if v, ok := IsIntConst(n.R); ok {
				return c.collect(n.L, k*v)
			}
		}
	case *Un:
		if n.Op == OpNeg {
			return c.collect(n.X, -k)
		}
	case *Cast:
		if c.throughCasts {
			return c.collect(n.X, k)
		}
	}
	return c.addTerm(e, k)
}

func (c *collector) addTerm(e Expr, coef int64) bool {
	if coef == 0 {
		c.combined = true
		return true
	}
	// Volatile or impure subtrees must not be merged or duplicated.
	impure := false
	WalkExpr(e, func(x Expr) bool {
		if l, ok := x.(*Load); ok && l.Volatile {
			impure = true
		}
		return !impure
	})
	if impure {
		return false
	}
	for i := 0; i < c.n; i++ {
		if tm := c.term(i); sameTerm(tm.Expr, e) {
			tm.Coef += coef
			c.combined = true
			return true
		}
	}
	if c.n < len(c.buf) {
		c.buf[c.n] = Term{Expr: e, Coef: coef}
	} else {
		c.more = append(c.more, Term{Expr: e, Coef: coef})
	}
	c.n++
	return true
}

// sameTerm reports whether two expressions print identically — it is the
// structural mirror of String() equality, which is what term merging has
// always keyed on (so constants of different declared types merge, while
// casts to differently-spelled types do not). Keeping exactly this
// equivalence is what keeps SimplifyLinear's output bit-identical to the
// string-keyed implementation it replaced.
func sameTerm(x, y Expr) bool {
	if x == y {
		return true
	}
	if x == nil || y == nil {
		return false
	}
	switch a := x.(type) {
	case *ConstInt:
		b, ok := y.(*ConstInt)
		return ok && a.Val == b.Val
	case *ConstFloat:
		b, ok := y.(*ConstFloat)
		// %g prints a unique shortest form per value; NaNs all print "NaN".
		return ok && (math.Float64bits(a.Val) == math.Float64bits(b.Val) ||
			(math.IsNaN(a.Val) && math.IsNaN(b.Val)))
	case *VarRef:
		b, ok := y.(*VarRef)
		return ok && a.ID == b.ID
	case *AddrOf:
		b, ok := y.(*AddrOf)
		return ok && a.ID == b.ID
	case *Load:
		b, ok := y.(*Load)
		return ok && a.Volatile == b.Volatile && sameTerm(a.Addr, b.Addr)
	case *Bin:
		b, ok := y.(*Bin)
		return ok && a.Op == b.Op && sameTerm(a.L, b.L) && sameTerm(a.R, b.R)
	case *Un:
		b, ok := y.(*Un)
		return ok && a.Op == b.Op && sameTerm(a.X, b.X)
	case *Cast:
		b, ok := y.(*Cast)
		// Cast prints its full target type spelling.
		return ok && (a.T == b.T || a.T.String() == b.T.String()) && sameTerm(a.X, b.X)
	case *VecRef:
		b, ok := y.(*VecRef)
		return ok && sameTerm(a.Base, b.Base) && sameTerm(a.Stride, b.Stride)
	}
	return false
}

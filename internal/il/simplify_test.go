package il

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ctype"
)

func TestSimplifyCancellation(t *testing.T) {
	it := ctype.IntType
	a := h.VarRef(0, ctype.PointerTo(ctype.FloatType))
	n := h.VarRef(1, it)
	// (a + 4*n) + (-4*n)  →  a
	e := &Bin{Op: OpAdd,
		L: &Bin{Op: OpAdd, L: a, R: &Bin{Op: OpMul, L: h.Int(4), R: n, T: it}, T: a.T},
		R: &Bin{Op: OpMul, L: h.Int(-4), R: h.VarRef(1, it), T: it},
		T: a.T}
	got := h.SimplifyLinear(e)
	if v, ok := got.(*VarRef); !ok || v.ID != 0 {
		t.Errorf("got %s", got)
	}
}

func TestSimplifyLikeTerms(t *testing.T) {
	it := ctype.IntType
	i := h.VarRef(2, it)
	// 2*i + 3*i → 5*i
	e := &Bin{Op: OpAdd,
		L: &Bin{Op: OpMul, L: h.Int(2), R: i, T: it},
		R: &Bin{Op: OpMul, L: h.Int(3), R: h.VarRef(2, it), T: it},
		T: it}
	got := h.SimplifyLinear(e)
	b, ok := got.(*Bin)
	if !ok || b.Op != OpMul {
		t.Fatalf("got %s", got)
	}
	if v, _ := IsIntConst(b.L); v != 5 {
		t.Errorf("coef %s", b.L)
	}
}

func TestSimplifyConstantMerge(t *testing.T) {
	it := ctype.IntType
	x := h.VarRef(0, it)
	// (x + 2) + 3 → x + 5
	e := &Bin{Op: OpAdd,
		L: &Bin{Op: OpAdd, L: x, R: h.Int(2), T: it},
		R: h.Int(3), T: it}
	got := h.SimplifyLinear(e)
	b, ok := got.(*Bin)
	if !ok || b.Op != OpAdd {
		t.Fatalf("got %s", got)
	}
	if v, _ := IsIntConst(b.R); v != 5 {
		t.Errorf("constant %s", b.R)
	}
	// (x + 2) - 5 → x - 3
	e2 := &Bin{Op: OpSub,
		L: &Bin{Op: OpAdd, L: h.VarRef(0, it), R: h.Int(2), T: it},
		R: h.Int(5), T: it}
	got2 := h.SimplifyLinear(e2)
	b2, ok := got2.(*Bin)
	if !ok || b2.Op != OpSub {
		t.Fatalf("got %s", got2)
	}
	if v, _ := IsIntConst(b2.R); v != 3 {
		t.Errorf("constant %s", b2.R)
	}
}

func TestSimplifyLeavesUncombinable(t *testing.T) {
	it := ctype.IntType
	e := &Bin{Op: OpAdd, L: h.VarRef(0, it), R: h.VarRef(1, it), T: it}
	if got := h.SimplifyLinear(e); got != e {
		t.Errorf("uncombinable rebuilt: %s", got)
	}
	// Volatile loads must not be touched.
	vol := &Bin{Op: OpAdd,
		L: &Load{Addr: h.VarRef(0, ctype.PointerTo(it)), T: it, Volatile: true},
		R: &Load{Addr: h.VarRef(0, ctype.PointerTo(it)), T: it, Volatile: true},
		T: it}
	if got := h.SimplifyLinear(vol); got != vol {
		t.Errorf("volatile sum rebuilt: %s", got)
	}
	// Floats are out of scope.
	fe := &Bin{Op: OpAdd, L: h.ConstFloat(1, ctype.FloatType), R: h.ConstFloat(2, ctype.FloatType), T: ctype.FloatType}
	if got := h.SimplifyLinear(fe); got != fe {
		t.Errorf("float sum touched: %s", got)
	}
}

func TestSimplifyToZero(t *testing.T) {
	it := ctype.IntType
	x := h.VarRef(0, it)
	e := &Bin{Op: OpSub, L: x, R: h.VarRef(0, it), T: it}
	got := h.SimplifyLinear(e)
	if v, ok := IsIntConst(got); !ok || v != 0 {
		t.Errorf("x - x = %s", got)
	}
}

// evalLinear evaluates an expression over two int variables.
func evalLinear(e Expr, v0, v1 int64) int64 {
	switch n := e.(type) {
	case *ConstInt:
		return n.Val
	case *VarRef:
		if n.ID == 0 {
			return v0
		}
		return v1
	case *Bin:
		l, r := evalLinear(n.L, v0, v1), evalLinear(n.R, v0, v1)
		switch n.Op {
		case OpAdd:
			return l + r
		case OpSub:
			return l - r
		case OpMul:
			return l * r
		}
	case *Un:
		if n.Op == OpNeg {
			return -evalLinear(n.X, v0, v1)
		}
	}
	panic("evalLinear: " + e.String())
}

// randomLinear builds a random +,-,*const tree over two variables.
func randomLinear(r *rand.Rand, depth int) Expr {
	it := ctype.IntType
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return h.Int(int64(r.Intn(11) - 5))
		case 1:
			return h.VarRef(0, it)
		default:
			return h.VarRef(1, it)
		}
	}
	switch r.Intn(4) {
	case 0:
		return &Bin{Op: OpAdd, L: randomLinear(r, depth-1), R: randomLinear(r, depth-1), T: it}
	case 1:
		return &Bin{Op: OpSub, L: randomLinear(r, depth-1), R: randomLinear(r, depth-1), T: it}
	case 2:
		return &Bin{Op: OpMul, L: h.Int(int64(r.Intn(7) - 3)), R: randomLinear(r, depth-1), T: it}
	default:
		return &Un{Op: OpNeg, X: randomLinear(r, depth-1), T: it}
	}
}

// Property: SimplifyLinear preserves value and is idempotent.
func TestQuickSimplifyPreservesValue(t *testing.T) {
	f := func(seed int64, a, b int8) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomLinear(r, 5)
		s := h.SimplifyLinear(e)
		v0, v1 := int64(a), int64(b)
		if evalLinear(e, v0, v1) != evalLinear(s, v0, v1) {
			return false
		}
		s2 := h.SimplifyLinear(s)
		return evalLinear(s2, v0, v1) == evalLinear(s, v0, v1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSimplifyLinearCanonicalAllocatesNothing pins the collector to the
// stack: a sum that is already canonical comes back unchanged, and finding
// that out must not allocate (the scratch used to escape on every call).
func TestSimplifyLinearCanonicalAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	it := ctype.IntType
	pt := ctype.PointerTo(ctype.FloatType)
	// a + 4*i + j + 8: nothing combines, nothing vanishes, one constant.
	e := h.Add(h.Add(h.Add(h.VarRef(0, pt), h.Mul(h.Int(4), h.VarRef(1, it), it), pt), h.VarRef(2, it), pt), h.Int(8), pt)
	var got Expr
	allocs := testing.AllocsPerRun(100, func() { got = h.SimplifyLinear(e) })
	if got != e {
		t.Fatalf("canonical sum was rebuilt: %s -> %s", e, got)
	}
	if allocs != 0 {
		t.Errorf("SimplifyLinear of a canonical sum allocates %v objects, want 0", allocs)
	}
}

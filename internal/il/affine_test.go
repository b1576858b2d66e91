package il

import (
	"math/rand"
	"testing"

	"repro/internal/ctype"
)

// The variables of a fuzzed expression: two loop indices and three
// invariants.
const (
	fzI VarID = iota
	fzJ
	fzInv // fzInv, fzInv+1, fzInv+2
)

var fzIndices = [2]VarID{fzI, fzJ}

// affineFromBytes runs data as a little stack program and returns the
// integer expression it leaves, built from raw nodes so nothing folds.
// nonAffine reports whether the tree holds a node Affine must refuse: a
// product of two non-constants, or a shift, that mentions an index.
func affineFromBytes(data []byte) (e Expr, nonAffine bool) {
	it := ctype.IntType
	var stack []Expr
	pop := func() Expr {
		if len(stack) == 0 {
			return h.Int(1)
		}
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return x
	}
	for pc := 0; pc < len(data); pc++ {
		arg := func() int64 { // a small signed constant from the next byte
			pc++
			if pc >= len(data) {
				return 2
			}
			return int64(int8(data[pc])) % 9
		}
		var x Expr
		switch data[pc] % 12 {
		case 0:
			x = h.VarRef(fzI, it)
		case 1:
			x = h.VarRef(fzJ, it)
		case 2:
			x = h.VarRef(fzInv+VarID(arg()&1), it)
		case 3:
			x = h.VarRef(fzInv+2, it)
		case 4:
			x = h.Int(arg())
		case 5:
			r := pop()
			x = &Bin{Op: OpAdd, L: pop(), R: r, T: it}
		case 6:
			r := pop()
			x = &Bin{Op: OpSub, L: pop(), R: r, T: it}
		case 7:
			x = &Un{Op: OpNeg, X: pop(), T: it}
		case 8:
			x = &Bin{Op: OpMul, L: h.Int(arg()), R: pop(), T: it}
		case 9:
			x = &Bin{Op: OpMul, L: pop(), R: h.Int(arg()), T: it}
		case 10:
			x = &Cast{X: pop(), T: ctype.LongType}
		default:
			op := OpMul
			if arg() < 0 {
				op = OpShl
			}
			r := pop()
			b := &Bin{Op: op, L: pop(), R: r, T: it}
			_, lc := b.L.(*ConstInt)
			_, rc := b.R.(*ConstInt)
			if usesEither(b, fzIndices) && (op == OpShl || !lc && !rc) {
				nonAffine = true
			}
			x = b
		}
		stack = append(stack, x)
	}
	e = pop()
	for len(stack) > 0 {
		e = &Bin{Op: OpAdd, L: pop(), R: e, T: it}
	}
	return e, nonAffine
}

// evalAffine evaluates a fuzzed expression in wrapping 64-bit arithmetic
// (a ring, so distributing a constant is exact); a cast is the identity.
func evalAffine(e Expr, vars [5]int64) int64 {
	switch n := e.(type) {
	case *ConstInt:
		return n.Val
	case *VarRef:
		return vars[n.ID]
	case *Cast:
		return evalAffine(n.X, vars)
	case *Un:
		if n.Op == OpNeg {
			return -evalAffine(n.X, vars)
		}
	case *Bin:
		l, r := evalAffine(n.L, vars), evalAffine(n.R, vars)
		switch n.Op {
		case OpAdd:
			return l + r
		case OpSub:
			return l - r
		case OpMul:
			return l * r
		case OpShl:
			return l << uint(r&31)
		}
	}
	panic("evalAffine: " + e.String())
}

// checkAffine is the contract of Affine and LinearTerms on one expression.
func checkAffine(t *testing.T, data []byte) {
	t.Helper()
	e, nonAffine := affineFromBytes(data)
	coefs, rest, ok := h.Affine(e, fzIndices)
	if ok == nonAffine {
		t.Fatalf("%s: ok=%v, but a non-affine use of an index is %v", e, ok, nonAffine)
	}
	if !ok {
		return
	}
	if usesEither(rest, fzIndices) {
		t.Fatalf("%s: rest %s still mentions an index", e, rest)
	}
	constant, terms, flat := LinearTerms(rest)
	if !flat {
		t.Fatalf("%s: rest %s has no volatile load, yet LinearTerms failed", e, rest)
	}
	for _, ij := range [][2]int64{{0, 0}, {1, 0}, {0, 1}, {7, -3}, {-100, 1 << 40}} {
		vars := [5]int64{ij[0], ij[1], 11, -5, 1 << 33}
		want := evalAffine(e, vars)
		restVal := evalAffine(rest, vars)
		if got := restVal + coefs[0]*ij[0] + coefs[1]*ij[1]; got != want {
			t.Fatalf("%s at i=%d j=%d: %d, but %s + %d·i + %d·j = %d", e, ij[0], ij[1], want, rest, coefs[0], coefs[1], got)
		}
		sum := constant
		for _, tm := range terms {
			sum += tm.Coef * evalAffine(tm.Expr, vars)
		}
		if sum != restVal {
			t.Fatalf("%s at i=%d j=%d: rest %s = %d, but its flat terms sum to %d", e, ij[0], ij[1], rest, restVal, sum)
		}
	}
	// One index alone sees the other as an invariant.
	one, restOne, ok := h.Affine(e, [2]VarID{fzI, NoVar})
	if !ok || one != [2]int64{coefs[0], 0} || UsesVar(restOne, fzI) {
		t.Fatalf("%s over i alone: coefs %v rest %v ok %v, want coefficient %d", e, one, restOne, ok, coefs[0])
	}
}

func TestAffineIsExact(t *testing.T) {
	for _, data := range [][]byte{
		{},                            // the constant 1
		{0},                           // i
		{0, 1, 5},                     // i + j
		{0, 0, 6},                     // i − i
		{0, 0, 6, 10},                 // (long)(i − i): the cast survives in rest
		{0, 10, 8, 4, 2, 0, 5},        // 4·(long)i + n: the cast is dropped
		{2, 0, 3, 11, 1, 0, 5},        // n·m + i: an index-free product is rest
		{0, 2, 0, 11, 1},              // i·n: refused
		{0, 4, 2, 11, 255},            // i << 2: refused
		{0, 0, 6, 3, 11, 1},           // (i − i)·m: refused, the test is syntactic
		{1, 8, 3, 7, 0, 9, 253, 6, 3}, // −(3·j) − i·(−3), then m pushed
	} {
		checkAffine(t, data)
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		data := make([]byte, r.Intn(24))
		r.Read(data)
		checkAffine(t, data)
	}
}

func FuzzAffine(f *testing.F) {
	f.Add([]byte{0, 8, 4, 1, 5, 2, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		checkAffine(t, data)
	})
}

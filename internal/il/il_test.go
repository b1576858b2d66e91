package il

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ctype"
)

// h is the nil arena hand-built test IL is allocated from: the heap.
var h *Arena

func TestSmartConstructorsFold(t *testing.T) {
	cases := []struct {
		got  Expr
		want int64
	}{
		{h.NewBin(OpAdd, h.Int(2), h.Int(3), ctype.IntType), 5},
		{h.NewBin(OpSub, h.Int(2), h.Int(3), ctype.IntType), -1},
		{h.NewBin(OpMul, h.Int(4), h.Int(3), ctype.IntType), 12},
		{h.NewBin(OpDiv, h.Int(7), h.Int(2), ctype.IntType), 3},
		{h.NewBin(OpRem, h.Int(7), h.Int(2), ctype.IntType), 1},
		{h.NewBin(OpShl, h.Int(1), h.Int(4), ctype.IntType), 16},
		{h.NewBin(OpLt, h.Int(1), h.Int(2), ctype.IntType), 1},
		{h.NewBin(OpGe, h.Int(1), h.Int(2), ctype.IntType), 0},
		{h.NewUn(OpNeg, h.Int(5), ctype.IntType), -5},
		{h.NewUn(OpNot, h.Int(0), ctype.IntType), 1},
		{h.NewUn(OpBitNot, h.Int(0), ctype.IntType), -1},
	}
	for i, c := range cases {
		ci, ok := c.got.(*ConstInt)
		if !ok {
			t.Errorf("case %d: not folded: %s", i, c.got)
			continue
		}
		if ci.Val != c.want {
			t.Errorf("case %d: got %d want %d", i, ci.Val, c.want)
		}
	}
}

func TestIdentities(t *testing.T) {
	x := h.VarRef(0, ctype.IntType)
	if got := h.NewBin(OpAdd, x, h.Int(0), ctype.IntType); got != x {
		t.Errorf("x+0: %s", got)
	}
	if got := h.NewBin(OpAdd, h.Int(0), x, ctype.IntType); got != x {
		t.Errorf("0+x: %s", got)
	}
	if got := h.NewBin(OpMul, x, h.Int(1), ctype.IntType); got != x {
		t.Errorf("x*1: %s", got)
	}
	if got := h.NewBin(OpMul, h.Int(0), x, ctype.IntType); !IsZero(got) {
		t.Errorf("0*x: %s", got)
	}
	if got := h.NewBin(OpSub, x, h.Int(0), ctype.IntType); got != x {
		t.Errorf("x-0: %s", got)
	}
	if got := h.NewBin(OpDiv, x, h.Int(1), ctype.IntType); got != x {
		t.Errorf("x/1: %s", got)
	}
}

func TestNoFoldDivZero(t *testing.T) {
	e := h.NewBin(OpDiv, h.Int(1), h.Int(0), ctype.IntType)
	if _, ok := e.(*ConstInt); ok {
		t.Error("1/0 must not fold")
	}
}

func TestFloatFold(t *testing.T) {
	e := h.NewBin(OpMul, h.ConstFloat(2, ctype.FloatType), h.ConstFloat(3, ctype.FloatType), ctype.FloatType)
	if c, ok := e.(*ConstFloat); !ok || c.Val != 6 {
		t.Errorf("2.0*3.0: %s", e)
	}
}

func TestCastFold(t *testing.T) {
	if c, ok := h.NewCast(h.Int(3), ctype.FloatType).(*ConstFloat); !ok || c.Val != 3 {
		t.Error("(float)3 should fold")
	}
	if c, ok := h.NewCast(h.ConstFloat(2.7, ctype.FloatType), ctype.IntType).(*ConstInt); !ok || c.Val != 2 {
		t.Error("(int)2.7 should fold to 2")
	}
	x := h.VarRef(0, ctype.IntType)
	if h.NewCast(x, ctype.IntType) != x {
		t.Error("identity cast should be elided")
	}
}

func mkProc() *Proc {
	p := NewProc("f", ctype.VoidType)
	p.AddVar(Var{Name: "a", Type: ctype.IntType, Class: ClassLocal})
	p.AddVar(Var{Name: "b", Type: ctype.IntType, Class: ClassLocal})
	return p
}

// CloneStmt copies statements and shares expressions: the copy is a new
// node whose operands are the original's own pointers, and rewriting the
// copy's operands leaves the original printing as it did.
func TestCloneIndependence(t *testing.T) {
	orig := &Assign{
		Dst: h.VarRef(0, ctype.IntType),
		Src: &Bin{Op: OpAdd, L: h.VarRef(1, ctype.IntType), R: h.Int(1), T: ctype.IntType},
	}
	before := orig.String()
	cl := h.CloneStmt(orig).(*Assign)
	if cl == orig {
		t.Fatal("CloneStmt returned the original statement")
	}
	if cl.Dst != orig.Dst || cl.Src != orig.Src {
		t.Error("the clone's operands are not the original's expressions")
	}
	cl.Src = h.RewriteExpr(cl.Src, func(x Expr) Expr {
		if c, ok := x.(*ConstInt); ok {
			return h.Int(c.Val + 98)
		}
		return x
	})
	cl.Dst = h.VarRef(1, ctype.IntType)
	if got := orig.String(); got != before {
		t.Errorf("rewriting the clone changed the original: %s, was %s", got, before)
	}
	if got, want := cl.String(), "v1 = (v1 + 99)"; got != want {
		t.Errorf("rewritten clone prints %s, want %s", got, want)
	}
}

// RewriteStmtExprs rewrites what a statement reads: a scalar assignment's
// destination is a definition and stays, and a store's destination is a
// new load around the rewritten address, the old one left as it was.
func TestRewriteStmtExprsRewritesUses(t *testing.T) {
	it, pt := ctype.IntType, ctype.PointerTo(ctype.IntType)
	seven := func(x Expr) Expr {
		if v, ok := x.(*VarRef); ok && v.ID == 0 {
			return h.Int(7)
		}
		return x
	}
	scalar := &Assign{Dst: h.VarRef(0, it), Src: h.Bin(OpAdd, h.VarRef(0, it), h.Int(1), it)}
	h.RewriteStmtExprs(scalar, seven)
	if got, want := scalar.String(), "v0 = (7 + 1)"; got != want {
		t.Errorf("scalar assignment rewrote to %s, want %s", got, want)
	}
	dst := h.Load(h.Bin(OpAdd, h.VarRef(0, pt), h.Int(4), pt), it, false)
	store := &Assign{Dst: dst, Src: h.VarRef(0, it)}
	h.RewriteStmtExprs(store, seven)
	if got, want := store.String(), "*((7 + 4)) = 7"; got != want {
		t.Errorf("store rewrote to %s, want %s", got, want)
	}
	if store.Dst == Expr(dst) || dst.String() != "*((v0 + 4))" {
		t.Errorf("the store's old destination %s was written, not replaced", dst)
	}
}

func TestCloneLoops(t *testing.T) {
	body := []Stmt{
		&Assign{Dst: h.VarRef(0, ctype.IntType), Src: h.Int(1)},
		&If{Cond: h.VarRef(1, ctype.IntType), Then: []Stmt{&Goto{Target: "L"}}},
		&Label{Name: "L"},
	}
	loop := &DoLoop{IV: 0, Init: h.Int(0), Limit: h.Int(9), Step: h.Int(1), Body: body}
	cl := h.CloneStmt(loop).(*DoLoop)
	cl.Body[0].(*Assign).Src = h.Int(42)
	if v, _ := IsIntConst(loop.Body[0].(*Assign).Src); v != 1 {
		t.Error("loop clone shares body")
	}
	if !reflect.DeepEqual(cl.Body[2], body[2]) {
		t.Error("label not cloned equal")
	}
}

// TripCount counts the iterations of a DO loop from init through limit
// by step, brute force being the reference: a limit short of init by
// less than a step is no trip, although the truncated quotient is 0.
func TestTripCount(t *testing.T) {
	for init := int64(-6); init <= 6; init++ {
		for limit := int64(-6); limit <= 6; limit++ {
			for _, step := range []int64{-3, -2, -1, 1, 2, 3} {
				want := int64(0)
				for i := init; step > 0 && i <= limit || step < 0 && i >= limit; i += step {
					want++
				}
				if got := TripCount(h.Int(init), h.Int(limit), h.Int(step)); got != want {
					t.Errorf("TripCount(%d, %d, %d) = %d, want %d", init, limit, step, got, want)
				}
			}
		}
	}
	if got := TripCount(h.VarRef(0, ctype.IntType), h.Int(9), h.Int(1)); got != -1 {
		t.Errorf("TripCount from a variable = %d, want -1", got)
	}
}

func TestWalkStmtsVisitsNested(t *testing.T) {
	prog := []Stmt{
		&While{Cond: h.Int(1), Body: []Stmt{
			&If{Cond: h.Int(1), Then: []Stmt{&Return{}}, Else: []Stmt{&Goto{Target: "x"}}},
		}},
		&Label{Name: "x"},
	}
	var kinds []string
	WalkStmts(prog, func(s Stmt) bool {
		kinds = append(kinds, reflect.TypeOf(s).Elem().Name())
		return true
	})
	want := []string{"While", "If", "Return", "Goto", "Label"}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("visit order %v want %v", kinds, want)
	}
}

func TestWalkExprPrune(t *testing.T) {
	e := &Bin{Op: OpAdd,
		L: &Load{Addr: h.VarRef(0, ctype.PointerTo(ctype.IntType)), T: ctype.IntType},
		R: h.Int(1), T: ctype.IntType}
	count := 0
	WalkExpr(e, func(x Expr) bool {
		count++
		_, isLoad := x.(*Load)
		return !isLoad // prune below loads
	})
	if count != 3 { // Bin, Load, ConstInt — not the Load's address
		t.Errorf("visited %d nodes", count)
	}
}

func TestRewriteExpr(t *testing.T) {
	// Replace VarRef(0) with constant 7 in (v0 + v1): should fold nothing
	// but substitute correctly.
	e := &Bin{Op: OpAdd, L: h.VarRef(0, ctype.IntType), R: h.VarRef(1, ctype.IntType), T: ctype.IntType}
	out := h.RewriteExpr(e, func(x Expr) Expr {
		if v, ok := x.(*VarRef); ok && v.ID == 0 {
			return h.Int(7)
		}
		return x
	})
	b := out.(*Bin)
	if v, ok := IsIntConst(b.L); !ok || v != 7 {
		t.Errorf("substitution failed: %s", out)
	}
	// Original untouched.
	if _, ok := e.L.(*VarRef); !ok {
		t.Error("RewriteExpr mutated its input")
	}
}

func TestExprEqual(t *testing.T) {
	a := &Bin{Op: OpMul, L: h.VarRef(2, ctype.IntType), R: h.Int(4), T: ctype.IntType}
	b := &Bin{Op: OpMul, L: h.VarRef(2, ctype.IntType), R: h.Int(4), T: ctype.IntType}
	c := &Bin{Op: OpMul, L: h.VarRef(2, ctype.IntType), R: h.Int(5), T: ctype.IntType}
	if !ExprEqual(a, b) {
		t.Error("a != b")
	}
	if ExprEqual(a, c) {
		t.Error("a == c")
	}
}

func TestUsesVar(t *testing.T) {
	e := &Load{Addr: &Bin{Op: OpAdd, L: h.VarRef(3, ctype.PointerTo(ctype.FloatType)),
		R: h.VarRef(4, ctype.IntType), T: ctype.PointerTo(ctype.FloatType)}, T: ctype.FloatType}
	if !UsesVar(e, 3) || !UsesVar(e, 4) || UsesVar(e, 5) {
		t.Error("UsesVar wrong")
	}
	addr := &AddrOf{ID: 9, T: ctype.PointerTo(ctype.IntType)}
	if !UsesVar(addr, 9) {
		t.Error("AddrOf should count as a use")
	}
}

func TestHasVolatile(t *testing.T) {
	p := NewProc("f", ctype.VoidType)
	vol := p.AddVar(Var{Name: "ks", Type: ctype.Qualified(ctype.IntType, true, false), Class: ClassGlobal})
	norm := p.AddVar(Var{Name: "x", Type: ctype.IntType, Class: ClassLocal})
	if !p.HasVolatile(h.VarRef(vol, p.Vars[vol].Type)) {
		t.Error("volatile var ref not detected")
	}
	if p.HasVolatile(h.VarRef(norm, ctype.IntType)) {
		t.Error("normal var flagged volatile")
	}
	vl := &Load{Addr: h.VarRef(norm, ctype.PointerTo(ctype.IntType)), T: ctype.IntType, Volatile: true}
	if !p.HasVolatile(vl) {
		t.Error("volatile load not detected")
	}
}

func TestDefinedVarAndIsStore(t *testing.T) {
	a := &Assign{Dst: h.VarRef(2, ctype.IntType), Src: h.Int(1)}
	if DefinedVar(a) != 2 || IsStore(a) {
		t.Error("scalar assign misclassified")
	}
	st := &Assign{Dst: &Load{Addr: h.VarRef(0, ctype.PointerTo(ctype.IntType)), T: ctype.IntType}, Src: h.Int(1)}
	if DefinedVar(st) != NoVar || !IsStore(st) {
		t.Error("store misclassified")
	}
	c := &Call{Dst: 5, Callee: "f", T: ctype.IntType}
	if DefinedVar(c) != 5 {
		t.Error("call dst missed")
	}
}

func TestProcPrinting(t *testing.T) {
	p := NewProc("axpy", ctype.VoidType)
	x := p.AddVar(Var{Name: "x", Type: ctype.PointerTo(ctype.FloatType), Class: ClassParam})
	n := p.AddVar(Var{Name: "n", Type: ctype.IntType, Class: ClassParam})
	p.Params = []VarID{x, n}
	i := p.AddVar(Var{Name: "i", Type: ctype.IntType, Class: ClassLocal})
	p.Body = []Stmt{
		&DoLoop{IV: i, Init: h.Int(0), Limit: h.Sub(h.VarRef(n, ctype.IntType), h.Int(1), ctype.IntType), Step: h.Int(1),
			Body: []Stmt{
				&Assign{
					Dst: &Load{Addr: h.Add(h.VarRef(x, p.Vars[x].Type), h.Mul(h.Int(4), h.VarRef(i, ctype.IntType), ctype.IntType), p.Vars[x].Type), T: ctype.FloatType},
					Src: h.ConstFloat(0, ctype.FloatType),
				},
			}},
	}
	s := p.String()
	for _, want := range []string{"proc axpy", "do i = 0,", "*(", "= 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("printout missing %q:\n%s", want, s)
		}
	}
}

func TestNewTempAndLabelUnique(t *testing.T) {
	p := NewProc("f", ctype.VoidType)
	t1 := p.NewTemp(ctype.IntType)
	t2 := p.NewTemp(ctype.IntType)
	if t1 == t2 || p.Vars[t1].Name == p.Vars[t2].Name {
		t.Error("temps collide")
	}
	l1 := p.NewLabel("x")
	l2 := p.NewLabel("x")
	if l1 == l2 {
		t.Error("labels collide")
	}
}

func TestCountStmts(t *testing.T) {
	body := []Stmt{
		&Assign{Dst: h.VarRef(0, ctype.IntType), Src: h.Int(1)},
		&If{Cond: h.Int(1), Then: []Stmt{&Return{}, &Return{}}},
	}
	if got := CountStmts(body); got != 4 {
		t.Errorf("CountStmts = %d, want 4", got)
	}
}

// randomExpr builds a random expression tree over two int variables.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return h.Int(int64(r.Intn(100) - 50))
		case 1:
			return h.VarRef(0, ctype.IntType)
		default:
			return h.VarRef(1, ctype.IntType)
		}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpEq, OpLt}
	return &Bin{Op: ops[r.Intn(len(ops))],
		L: randomExpr(r, depth-1), R: randomExpr(r, depth-1), T: ctype.IntType}
}

// Property: RewriteExpr never mutates its input. Rewriting every constant
// of a random tree leaves the tree printing exactly as before.
func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		before := e.String()
		h.RewriteExpr(e, func(x Expr) Expr {
			if c, ok := x.(*ConstInt); ok {
				return h.Int(c.Val + 1)
			}
			return x
		})
		return e.String() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: constant folding in NewBin agrees with direct evaluation.
func TestQuickFoldCorrect(t *testing.T) {
	eval := func(op Op, a, b int64) (int64, bool) { return foldInt(op, a, b) }
	f := func(a, b int32, opIdx uint8) bool {
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe, OpLt, OpGt, OpLe, OpGe}
		op := ops[int(opIdx)%len(ops)]
		e := h.NewBin(op, h.Int(int64(a)), h.Int(int64(b)), ctype.IntType)
		want, ok := eval(op, int64(a), int64(b))
		if !ok {
			return true
		}
		c, isConst := e.(*ConstInt)
		return isConst && c.Val == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Program.Clone copies everything a pass can rewrite: the copy prints
// identically (DOACROSS regions with their sync markers, predicated
// stores and masked vector statements included), carries the label
// counter and generation over, and shares no statement, variable table
// or global table with the original. It shares every expression: each
// copied statement's operands are the original's pointers.
func TestProgramClone(t *testing.T) {
	p := NewProc("kernel", ctype.VoidType)
	p.SetArena(NewArena())
	fp := ctype.PointerTo(ctype.FloatType)
	a := p.AddVar(Var{Name: "a", Type: fp, Class: ClassParam})
	i := p.AddVar(Var{Name: "i", Type: ctype.IntType, Class: ClassLocal})
	p.Params = []VarID{a}
	elem := func() Expr {
		return &Load{Addr: h.NewBin(OpAdd, h.VarRef(a, fp), h.NewBin(OpMul, h.VarRef(i, ctype.IntType), h.Int(4), ctype.IntType), fp), T: ctype.FloatType}
	}
	p.Body = []Stmt{
		&DoParallel{IV: i, Init: h.Int(1), Limit: h.Int(99), Step: h.Int(1),
			Sync: &SyncInfo{Distance: 3, Desc: "a[i-3] -> a[i]"},
			Body: []Stmt{
				&SyncWait{Distance: 3},
				&PredAssign{Cond: h.NewBin(OpLt, elem(), h.ConstFloat(0, ctype.FloatType), ctype.IntType), Dst: elem(), Src: h.ConstFloat(0, ctype.FloatType)},
				&SyncPost{},
			}},
		&VectorAssign{DstBase: h.VarRef(a, fp), DstStride: h.Int(4), Len: h.Int(32), Elem: ctype.FloatType,
			RHS:  &VecRef{Base: h.VarRef(a, fp), Stride: h.Int(4), T: ctype.FloatType},
			Mask: h.NewBin(OpGt, &VecRef{Base: h.VarRef(a, fp), Stride: h.Int(4), T: ctype.FloatType}, h.ConstFloat(1, ctype.FloatType), ctype.IntType)},
		&Label{Name: p.NewLabel("done")},
		&Return{},
	}
	p.BumpGeneration()
	p.Rewrote(1) // the two counters now differ, so each must be carried
	prog := &Program{Procs: []*Proc{p}, Globals: []GlobalVar{{Name: "g", Type: ctype.IntType}}}

	live := ArenaBytesLive()
	c := prog.Clone()
	if got, want := c.String(), prog.String(); got != want {
		t.Fatalf("clone prints differently:\n%s\nwant:\n%s", got, want)
	}
	cp := c.Procs[0]
	if cp.Generation() != p.Generation() || cp.Shape() != p.Shape() {
		t.Errorf("clone generation/shape %d/%d, original %d/%d", cp.Generation(), cp.Shape(), p.Generation(), p.Shape())
	}
	if got, want := cp.NewLabel("x"), p.NewLabel("x"); got != want {
		t.Errorf("clone's next label %s, original's %s", got, want)
	}
	if cp.Arena() == nil || cp.Arena() == p.Arena() {
		t.Error("clone does not own a fresh arena")
	}
	var origStmts, cloneStmts []Stmt
	collect := func(out *[]Stmt) func(Stmt) bool {
		return func(s Stmt) bool { *out = append(*out, s); return true }
	}
	WalkStmts(p.Body, collect(&origStmts))
	WalkStmts(cp.Body, collect(&cloneStmts))
	if len(cloneStmts) != len(origStmts) || len(origStmts) != 7 {
		t.Fatalf("clone has %d statements, original %d, want 7", len(cloneStmts), len(origStmts))
	}
	for k, s := range origStmts {
		if cloneStmts[k] == s {
			t.Errorf("statement %d (%s) is shared with the original", k, s)
		}
		var want, got []Expr
		StmtExprs(s, func(e Expr) { want = append(want, e) })
		StmtExprs(cloneStmts[k], func(e Expr) { got = append(got, e) })
		if !slices.Equal(got, want) {
			t.Errorf("statement %d (%s): operands %p, want the original's %p", k, s, got, want)
		}
	}
	if cp.Body[0].(*DoParallel).Sync == p.Body[0].(*DoParallel).Sync {
		t.Error("a DOACROSS region's sync info is shared with the original")
	}

	// Rewriting the clone leaves the original alone.
	before := prog.String()
	par := cp.Body[0].(*DoParallel)
	par.Sync.Distance = 7
	par.Body[1].(*PredAssign).Src = h.ConstFloat(5, ctype.FloatType)
	cp.Body[1].(*VectorAssign).Mask = nil
	cp.NewTemp(ctype.IntType)
	cp.Params[0] = i
	c.AddGlobal(GlobalVar{Name: "h", Type: ctype.IntType})
	if prog.String() != before || len(p.Vars) != 2 || p.Params[0] != a || len(prog.Globals) != 1 {
		t.Errorf("mutating the clone changed the original:\n%s", prog.String())
	}

	c.Release()
	if ArenaBytesLive() != live {
		t.Errorf("arena bytes live %d after releasing the clone, %d before cloning", ArenaBytesLive(), live)
	}
}

// TestBinFoldableIsNewBin: BinFoldable is true exactly when NewBin returns
// something other than a fresh Bin of the same operands, over every
// operator, operand shape and result type.
func TestBinFoldableIsNewBin(t *testing.T) {
	types := []*ctype.Type{ctype.IntType, ctype.UIntType, ctype.DoubleType, ctype.PointerTo(ctype.IntType)}
	for op := OpAdd; op <= OpGe; op++ { // the binary operators
		for _, typ := range types {
			operands := []Expr{
				h.ConstInt(0, typ), h.ConstInt(1, typ), h.ConstInt(-1, typ), h.ConstInt(7, typ),
				h.VarRef(0, typ), h.ConstFloat(0, ctype.DoubleType), h.ConstFloat(2.5, ctype.DoubleType),
			}
			for _, l := range operands {
				for _, r := range operands {
					got := h.NewBin(op, l, r, typ)
					b, isBin := got.(*Bin)
					fresh := isBin && b.Op == op && b.L == l && b.R == r && b.T == typ
					if BinFoldable(op, l, r, typ) == fresh {
						t.Errorf("BinFoldable(%s, %s, %s, %s) = %v but NewBin returned %s",
							op, l, r, typ, !fresh, got)
					}
				}
			}
		}
	}
}

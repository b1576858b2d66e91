package opt

import (
	"strings"
	"testing"

	"repro/internal/il"
)

func TestConstPropStraightLine(t *testing.T) {
	src := `
int f(void) {
	int a, b;
	a = 2;
	b = a + 3;
	return b;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	eliminateDeadCode(p, nil, new(scratch))
	ret := lastReturn(t, p)
	if v, ok := il.IsIntConst(ret.Val); !ok || v != 5 {
		t.Errorf("return: %s\n%s", p.ExprString(ret.Val), p)
	}
}

func lastReturn(t *testing.T, p *il.Proc) *il.Return {
	t.Helper()
	var ret *il.Return
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if r, ok := s.(*il.Return); ok {
			ret = r
		}
		return true
	})
	if ret == nil {
		t.Fatalf("no return:\n%s", p)
	}
	return ret
}

func TestConstPropThroughIfJoin(t *testing.T) {
	// Same constant on both branches propagates past the join.
	src := `
int f(int c) {
	int a;
	if (c) a = 7; else a = 7;
	return a;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	ret := lastReturn(t, p)
	if v, ok := il.IsIntConst(ret.Val); !ok || v != 7 {
		t.Errorf("return: %s", p.ExprString(ret.Val))
	}
}

func TestNoPropDifferentConstants(t *testing.T) {
	src := `
int f(int c) {
	int a;
	if (c) a = 1; else a = 2;
	return a;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	ret := lastReturn(t, p)
	if _, ok := il.IsIntConst(ret.Val); ok {
		t.Error("merged different constants")
	}
}

func TestIfTrueEliminatesElse(t *testing.T) {
	src := `
int f(void) {
	int a, r;
	a = 1;
	if (a) r = 10; else r = 20;
	return r;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	// The If must be gone.
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if _, ok := s.(*il.If); ok {
			t.Errorf("If survived:\n%s", p)
		}
		return true
	})
	ret := lastReturn(t, p)
	if v, ok := il.IsIntConst(ret.Val); !ok || v != 10 {
		t.Errorf("return %s", p.ExprString(ret.Val))
	}
}

func TestUnreachableHeuristicCascade(t *testing.T) {
	// §8: eliminating the unreachable branch unblocks further propagation:
	// the constant a=1 was blocked by the (unreachable) a=2.
	src := `
int f(void) {
	int c, a, r;
	c = 0;
	a = 1;
	if (c) a = 2;
	r = a + 1;
	return r;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	ret := lastReturn(t, p)
	if v, ok := il.IsIntConst(ret.Val); !ok || v != 2 {
		t.Errorf("cascade failed: return %s\n%s", p.ExprString(ret.Val), p)
	}
}

func TestPaperInlinedDaxpyGuard(t *testing.T) {
	// §8's example: after inlining daxpy(x, y, 0.0, z), constant
	// propagation proves in_a == 0.0 and the body is unreachable.
	src := `
void f(float *x, float y, float z) {
	float in_y, in_a, in_z;
	float *in_x;
	in_x = x;
	in_y = y;
	in_a = 0.0;
	in_z = z;
	if (in_a == 0.0) goto lb_1;
	*in_x = in_y + in_a * in_z;
lb_1: ;
}
`
	p := compileProc(t, src, "f")
	before := il.CountStmts(p.Body)
	propagateConstants(p, nil, nil)
	removeUnusedLabels(p)
	eliminateDeadCode(p, nil, new(scratch))
	after := il.CountStmts(p.Body)
	// The store must be gone.
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if il.IsStore(s) {
			t.Errorf("floating point assignment survived:\n%s", p)
		}
		return true
	})
	if after >= before {
		t.Errorf("no shrink: %d -> %d", before, after)
	}
}

func TestZeroTripLoopRemoved(t *testing.T) {
	src := `
void f(float *x) {
	int i;
	for (i = 0; i < 0; i++) x[i] = 0;
}
`
	p := compileProc(t, src, "f")
	convertWhileLoops(p, nil, nil)
	propagateConstants(p, nil, nil)
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.DoLoop, *il.While:
			t.Errorf("zero-trip loop survived:\n%s", p)
		}
		return true
	})
}

func TestWhileFalseRemoved(t *testing.T) {
	src := "void f(float *x) { while (0) *x = 1; }"
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	if len(p.Body) != 0 {
		t.Errorf("while(0) survived:\n%s", p)
	}
}

func TestVolatileNotPropagated(t *testing.T) {
	// §1/§3: volatile variables must not be constant-propagated, even
	// when the only visible assignment stores a constant.
	src := `
volatile int ks;
int f(void) {
	ks = 0;
	return ks;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	ret := lastReturn(t, p)
	if _, ok := il.IsIntConst(ret.Val); ok {
		t.Errorf("volatile read replaced by constant:\n%s", p)
	}
}

func TestVolatileStoreNotDCEd(t *testing.T) {
	src := `
volatile int ks;
void f(void) { ks = 0; }
`
	p := compileProc(t, src, "f")
	eliminateDeadCode(p, nil, new(scratch))
	if len(p.Body) != 1 {
		t.Errorf("volatile store removed:\n%s", p)
	}
}

func TestDCERemovesDeadTemp(t *testing.T) {
	src := `
int f(int a) {
	int unused;
	unused = a * 3;
	return a;
}
`
	p := compileProc(t, src, "f")
	eliminateDeadCode(p, nil, new(scratch))
	if len(p.Body) != 1 {
		t.Errorf("dead assign survived:\n%s", p)
	}
}

func TestDCEKeepsLiveChain(t *testing.T) {
	src := `
int f(int a) {
	int x, y;
	x = a + 1;
	y = x + 1;
	return y;
}
`
	p := compileProc(t, src, "f")
	eliminateDeadCode(p, nil, new(scratch))
	if len(p.Body) != 3 {
		t.Errorf("live chain damaged:\n%s", p)
	}
}

func TestDCEKeepsStores(t *testing.T) {
	src := "void f(float *p) { *p = 1; }"
	p := compileProc(t, src, "f")
	eliminateDeadCode(p, nil, new(scratch))
	if len(p.Body) != 1 {
		t.Errorf("store removed:\n%s", p)
	}
}

func TestDCEDeadLoopTempsAfterIVSub(t *testing.T) {
	// After manual closed-forming, the temp chain is dead.
	src := `
void f(int n) {
	int i, t;
	for (i = 0; i < n; i++) {
		t = i * 4;
	}
}
`
	p := compileProc(t, src, "f")
	convertWhileLoops(p, nil, nil)
	eliminateDeadCode(p, nil, new(scratch))
	// t's assignment is dead; then i's update is dead (only used by
	// itself); loop body empties and the DoLoop disappears.
	left := 0
	il.WalkStmts(p.Body, func(s il.Stmt) bool { left++; return true })
	if left > 2 {
		t.Errorf("%d statements left:\n%s", left, p)
	}
}

func TestCopyPropSimple(t *testing.T) {
	src := `
int g(int);
int f(int a) {
	int b, r;
	b = a;
	r = g(b);
	return r;
}
`
	p := compileProc(t, src, "f")
	propagateCopies(p, nil, new(scratch))
	var call *il.Call
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if c, ok := s.(*il.Call); ok {
			call = c
		}
		return true
	})
	arg := call.Args[0].(*il.VarRef)
	if p.Vars[arg.ID].Name != "a" {
		t.Errorf("arg is %s, want a\n%s", p.Vars[arg.ID].Name, p)
	}
}

func TestCopyPropBlockedByRedefinition(t *testing.T) {
	src := `
int f(int a) {
	int b, r;
	b = a;
	a = 99;
	r = b;
	return r;
}
`
	p := compileProc(t, src, "f")
	propagateCopies(p, nil, new(scratch))
	// r = b must NOT become r = a.
	as := p.Body[2].(*il.Assign)
	v, ok := as.Src.(*il.VarRef)
	if !ok || p.Vars[v.ID].Name != "b" {
		t.Errorf("unsound copy prop: %s", p.StmtString(as, 0))
	}
}

func TestCopyPropUnsoundLoopCase(t *testing.T) {
	// The loop case that breaks naive reaching-def comparison:
	//   loop { b = w; w = f(); use b }
	// b's use must not become w (w changed in between).
	src := `
int w;
int f2(void);
int f(int n) {
	int b, r;
	r = 0;
	while (n) {
		b = w;
		w = f2();
		r = r + b;
		n = n - 1;
	}
	return r;
}
`
	p := compileProc(t, src, "f")
	propagateCopies(p, nil, new(scratch))
	// find r = r + b
	found := false
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		as, ok := s.(*il.Assign)
		if !ok {
			return true
		}
		if b, ok := as.Src.(*il.Bin); ok && b.Op == il.OpAdd {
			if v, ok := b.R.(*il.VarRef); ok {
				found = true
				if p.Vars[v.ID].Name == "w" {
					t.Errorf("unsound: b replaced by w inside loop\n%s", p)
				}
			}
		}
		return true
	})
	if !found {
		t.Fatalf("pattern not found:\n%s", p)
	}
}

func TestCopyPropAddress(t *testing.T) {
	// The inlining pattern: in_x = &a; ... *in_x — the address copy
	// propagates into the load.
	src := `
float a[10];
float f(void) {
	float *in_x;
	in_x = &a[0];
	return *in_x;
}
`
	p := compileProc(t, src, "f")
	propagateCopies(p, nil, new(scratch))
	eliminateDeadCode(p, nil, new(scratch))
	ret := lastReturn(t, p)
	ld, ok := ret.Val.(*il.Load)
	if !ok {
		t.Fatalf("return: %T", ret.Val)
	}
	if strings.Contains(p.ExprString(ld.Addr), "in_x") {
		t.Errorf("address copy not propagated: %s", p.ExprString(ld.Addr))
	}
}

func TestPostpassRemovesCodeAfterGoto(t *testing.T) {
	src := `
int f(int c) {
	if (c) goto out;
	goto out;
	c = c + 1;
	c = c + 2;
out:
	return c;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	adds := 0
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok {
			if _, ok := as.Src.(*il.Bin); ok {
				adds++
			}
		}
		return true
	})
	if adds != 0 {
		t.Errorf("unreachable code survived (%d stmts):\n%s", adds, p)
	}
}

func TestGotoToNextLabelRemoved(t *testing.T) {
	src := `
int f(int c) {
	if (c) goto out;
out:
	return c;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	removeUnusedLabels(p)
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.Goto, *il.Label:
			t.Errorf("redundant goto/label survived:\n%s", p)
		}
		return true
	})
}

func TestConstPropFloatCompare(t *testing.T) {
	src := `
int f(void) {
	float a;
	a = 0.0f;
	if (a == 0.0f) return 1;
	return 2;
}
`
	p := compileProc(t, src, "f")
	propagateConstants(p, nil, nil)
	eliminateDeadCode(p, nil, new(scratch))
	ret, ok := p.Body[0].(*il.Return)
	if !ok {
		t.Fatalf("stmt 0: %T\n%s", p.Body[0], p)
	}
	if v, _ := il.IsIntConst(ret.Val); v != 1 {
		t.Errorf("return %s", p.ExprString(ret.Val))
	}
}

func TestConstPropIntoLoopBounds(t *testing.T) {
	// §5.2: graphics code with 4x4 matrices — knowing the vector length at
	// compile time requires propagating the bound into the DO header.
	src := `
float m[4];
void f(void) {
	int i, n;
	n = 4;
	for (i = 0; i < n; i++) m[i] = 0;
}
`
	p := compileProc(t, src, "f")
	convertWhileLoops(p, nil, nil)
	propagateConstants(p, nil, nil)
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DoLoop:\n%s", p)
	}
	if v, ok := il.IsIntConst(d.Limit); !ok || v != 3 {
		t.Errorf("limit: %s (want 3)", p.ExprString(d.Limit))
	}
	if v, ok := il.IsIntConst(d.Init); !ok || v != 0 {
		t.Errorf("init: %s (want 0)", p.ExprString(d.Init))
	}
}

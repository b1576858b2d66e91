package opt

import (
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/il"
)

// runPipeline applies the full scalar pipeline.
func runPipeline(t *testing.T, src, name string) *il.Proc {
	t.Helper()
	p := compileProc(t, src, name)
	Optimize(p, DefaultOptions(), nil, nil)
	return p
}

// storesInLoop returns the store statements inside the first DoLoop.
func storesInLoop(p *il.Proc) []*il.Assign {
	d := firstDoLoop(p.Body)
	if d == nil {
		return nil
	}
	var out []*il.Assign
	il.WalkStmts(d.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok && il.IsStore(s) {
			out = append(out, as)
		}
		return true
	})
	return out
}

func TestPaperCopyLoopBecomesLinear(t *testing.T) {
	// §5.3's centerpiece: while(n) { *a++ = *b++; n--; } must end up with
	// the single store *(a0 + 4*k) = *(b0 + 4*k) inside a DO loop.
	src := `
void f(float *a, float *b, int n) {
	while (n) {
		*a++ = *b++;
		n--;
	}
}
`
	p := runPipeline(t, src, "f")
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	stores := storesInLoop(p)
	if len(stores) != 1 {
		t.Fatalf("stores in loop: %d\n%s", len(stores), p)
	}
	st := stores[0]
	// Both sides must be loads/stores with addresses linear in the loop IV
	// — no remaining references to the bumped pointers.
	dstAddr := st.Dst.(*il.Load).Addr
	srcAddr := st.Src.(*il.Load).Addr
	if !il.UsesVar(dstAddr, d.IV) || !il.UsesVar(srcAddr, d.IV) {
		t.Errorf("addresses not in terms of loop IV:\n%s", p)
	}
	// The pointer bumps themselves must be gone (dead after substitution;
	// a and b are params, dead at exit).
	if n := len(d.Body); n != 1 {
		t.Errorf("loop body has %d statements, want 1:\n%s", n, p)
	}
}

func TestSimpleIVSubMissesCopyLoop(t *testing.T) {
	// Ablation A2: without copy resolution the front end's temp form
	// defeats recurrence detection and the loop keeps its pointer bumps.
	src := `
void f(float *a, float *b, int n) {
	while (n) {
		*a++ = *b++;
		n--;
	}
}
`
	p := compileProc(t, src, "f")
	Optimize(p, Options{IVSub: true, Straightforward: true}, nil, nil)
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	if len(d.Body) <= 1 {
		t.Errorf("simple IV-sub unexpectedly cleaned the loop:\n%s", p)
	}
}

func TestPaperReverseAxpy(t *testing.T) {
	// §5.3's Fortran example as C:
	//   iv = n; for (i=0;i<n;i++) { a[iv] = a[iv] + b[i]; iv = iv - 1; }
	// After substitution the subscript is explicit in i and iv's update is
	// dead.
	src := `
float a[200], b[200];
void f(int n) {
	int i, iv;
	iv = n;
	for (i = 0; i < n; i++) {
		a[iv] = a[iv] + b[i];
		iv = iv - 1;
	}
}
`
	p := runPipeline(t, src, "f")
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	if len(d.Body) != 1 {
		t.Errorf("iv update not eliminated (%d stmts):\n%s", len(d.Body), p)
	}
	stores := storesInLoop(p)
	if len(stores) != 1 {
		t.Fatalf("stores: %d", len(stores))
	}
	if !il.UsesVar(stores[0].Dst.(*il.Load).Addr, d.IV) {
		t.Errorf("store address not in loop IV:\n%s", p)
	}
}

func TestDaxpyFullPipeline(t *testing.T) {
	// §9's inlined daxpy core: after the full scalar pipeline the loop is
	// the single fused multiply-add store with linear addresses.
	src := `
void daxpy_core(float *x, float *y, float *z, float alpha, int n)
{
	for (; n; n--)
		*x++ = *y++ + alpha * *z++;
}
`
	p := runPipeline(t, src, "daxpy_core")
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	if len(d.Body) != 1 {
		t.Errorf("body: %d stmts\n%s", len(d.Body), p)
	}
	stores := storesInLoop(p)
	if len(stores) != 1 {
		t.Fatalf("stores: %d\n%s", len(stores), p)
	}
	// RHS: *(y0+4k) + alpha * *(z0+4k)
	rhs, ok := stores[0].Src.(*il.Bin)
	if !ok || rhs.Op != il.OpAdd {
		t.Fatalf("rhs: %s", p.ExprString(stores[0].Src))
	}
	out := p.ExprString(rhs)
	if !strings.Contains(out, "alpha") {
		t.Errorf("alpha missing from rhs: %s", out)
	}
}

func TestIVSubSkipsVolatile(t *testing.T) {
	src := `
volatile int vcount;
void f(float *a, int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = vcount;
		vcount = vcount + 1;
	}
}
`
	p := runPipeline(t, src, "f")
	// vcount must still be read and written inside the loop.
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	reads := 0
	il.WalkStmts(d.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok {
			if il.UsesVar(as.Src, p.LookupVar("vcount")) {
				reads++
			}
		}
		return true
	})
	if reads < 2 {
		t.Errorf("volatile accesses lost (%d reads):\n%s", reads, p)
	}
}

func TestIVSubTwoUpdatesSkipped(t *testing.T) {
	// A variable bumped twice per iteration is not a basic IV here.
	src := `
void f(float *a, int n) {
	int i, j;
	j = 0;
	for (i = 0; i < n; i++) {
		j = j + 1;
		a[j] = 0;
		j = j + 1;
	}
}
`
	p := runPipeline(t, src, "f")
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	// j's updates must survive.
	defs := 0
	il.WalkStmts(d.Body, func(s il.Stmt) bool {
		if il.DefinedVar(s) == p.LookupVar("j") {
			defs++
		}
		return true
	})
	if defs != 2 {
		t.Errorf("j defs: %d, want 2\n%s", defs, p)
	}
}

func TestIVSubRefusesIndexDependentStep(t *testing.T) {
	// t advances by a different amount each iteration: it has no closed
	// form t.0 + step·k, and the iv-blocked remark says what varies.
	src := `
int f(void) {
	int i, t;
	t = 1;
	for (i = 0; i < 10; i++)
		t = t + (i & 3) * 3;
	return t;
}
`
	p := compileProc(t, src, "f")
	r := &diag.Reporter{}
	Optimize(p, DefaultOptions(), nil, r)
	d := firstDoLoop(p.Body)
	if d == nil || len(d.Body) != 1 {
		t.Fatalf("want a DO loop around the one update:\n%s", p)
	}
	if as, ok := d.Body[0].(*il.Assign); !ok || !il.UsesVar(as.Src, p.LookupVar("t")) {
		t.Errorf("t = t + step was rewritten:\n%s", p)
	}
	blocked := 0
	for _, dg := range r.All() {
		if dg.Code == diag.IVBlocked && dg.Args["var"] == "t" && dg.Args["operand"] == "the loop index" {
			blocked++
		}
	}
	if blocked != 1 {
		t.Errorf("iv-blocked remarks naming the loop index: %d, want 1\n%v", blocked, r.All())
	}
}

func TestIVSubNonUnitStep(t *testing.T) {
	src := `
void f(float *a, int n) {
	int i;
	float *p;
	p = a;
	for (i = 0; i < n; i++) {
		*p = 0;
		p = p + 2;
	}
}
`
	p := runPipeline(t, src, "f")
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	stores := storesInLoop(p)
	if len(stores) != 1 {
		t.Fatalf("stores: %d\n%s", len(stores), p)
	}
	// Address should contain stride 8 (2 floats).
	addr := p.ExprString(stores[0].Dst.(*il.Load).Addr)
	if !strings.Contains(addr, "8") {
		t.Errorf("stride 8 missing from address %s", addr)
	}
	if len(d.Body) != 1 {
		t.Errorf("pointer bump survived:\n%s", p)
	}
}

// An IV whose constant step is m times a constant DO step s (|s| > 1)
// closes to v0 + m·(iv − init), with no division by s: the store address
// is affine in the DO index with coefficient m·4 bytes.
func TestIVSubStepMultipleOfDoStep(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		coef       int64
	}{
		{"m=1", "for (i = 0; i < n; i += 4) a[i] = 1;", 4},
		{"m=2", "for (i = 0; i < n; i += 4) { a[j] = 1; j = j + 8; }", 8},
		{"negative step", "for (i = n; i > 0; i -= 2) { a[j] = 1; j = j + 2; }", -4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "void f(float *a, int n) {\n\tint i, j;\n\tj = 0;\n\t" + tc.body + "\n}\n"
			p := runPipeline(t, src, "f")
			d := firstDoLoop(p.Body)
			if d == nil {
				t.Fatalf("no DO loop:\n%s", p)
			}
			stores := storesInLoop(p)
			if len(stores) != 1 {
				t.Fatalf("stores: %d\n%s", len(stores), p)
			}
			addr := stores[0].Dst.(*il.Load).Addr
			coefs, _, ok := (*il.Arena)(nil).Affine(addr, [2]il.VarID{d.IV, il.NoVar})
			if !ok || coefs[0] != tc.coef {
				t.Errorf("address %s: affine %v, coefficient %d; want %d", p.ExprString(addr), ok, coefs[0], tc.coef)
			}
			if len(d.Body) != 1 {
				t.Errorf("the IV update survived:\n%s", p)
			}
		})
	}
}

func TestIVSubPreservesValueAfterLoop(t *testing.T) {
	// iv is used after the loop: its update must keep producing the right
	// final value (the update stays, in closed form).
	src := `
int f(int n) {
	int i, iv;
	iv = 0;
	for (i = 0; i < n; i++) {
		iv = iv + 3;
	}
	return iv;
}
`
	p := runPipeline(t, src, "f")
	// iv must still be defined somewhere.
	found := false
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if il.DefinedVar(s) == p.LookupVar("iv") {
			found = true
		}
		return true
	})
	if !found {
		t.Errorf("iv's definition vanished though used after loop:\n%s", p)
	}
}

func TestForwardSubstBlockedByStore(t *testing.T) {
	// t = *q is a load: never forward-substituted (would duplicate or
	// reorder memory access past the store).
	src := `
void f(float *p, float *q, int n) {
	int i;
	float t;
	for (i = 0; i < n; i++) {
		t = q[i];
		p[i] = 1.0f;
		p[i] = p[i] + t;
	}
}
`
	p := runPipeline(t, src, "f")
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DO loop:\n%s", p)
	}
	// The load of q[i] must still happen before the stores.
	first, ok := d.Body[0].(*il.Assign)
	if !ok || il.DefinedVar(first) != p.LookupVar("t") {
		t.Errorf("load hoist/subst broke ordering:\n%s", p)
	}
}

func TestNestedLoopIVSub(t *testing.T) {
	src := `
float m[64];
void f(int n) {
	int i, j;
	float *p;
	p = m;
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			*p = 0;
			p = p + 1;
		}
	}
}
`
	p := runPipeline(t, src, "f")
	// The inner loop's pointer bump substitutes against the inner IV; p
	// remains an IV of the outer loop (its inner-loop net effect is not a
	// constant per outer iteration unless n is known) — we only require
	// the inner loop store to be linear in the inner IV.
	var inner *il.DoLoop
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoLoop); ok {
			inner = d // last found is innermost by walk order
		}
		return true
	})
	if inner == nil {
		t.Fatalf("no loops:\n%s", p)
	}
}

package inline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/schedule"
	"repro/internal/sema"
	"repro/internal/vector"
)

func compile(t *testing.T, src string) *il.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	prog, err := lower.File(f, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func TestInlineSimpleCall(t *testing.T) {
	src := `
int twice(int x) { return x + x; }
int f(int a) { return twice(a) + 1; }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	if n := in.ExpandProgram(); n != 1 {
		t.Fatalf("expanded %d\n%s", n, fp)
	}
	il.WalkStmts(fp.Body, func(s il.Stmt) bool {
		if _, ok := s.(*il.Call); ok {
			t.Errorf("call survived:\n%s", fp)
		}
		return true
	})
	// After the scalar pipeline, f(a) should reduce to return a+a+1.
	opt.Optimize(fp, opt.DefaultOptions(), nil, nil)
	if len(fp.Body) != 1 {
		t.Errorf("not fully simplified:\n%s", fp)
	}
}

func TestInlineVoidFunction(t *testing.T) {
	src := `
int g;
void bump(void) { g = g + 1; }
void f(void) { bump(); bump(); }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	if n := in.ExpandProgram(); n != 2 {
		t.Fatalf("expanded %d\n%s", n, fp)
	}
	// Two increments of the global remain.
	writes := 0
	il.WalkStmts(fp.Body, func(s il.Stmt) bool {
		if dv := il.DefinedVar(s); dv != il.NoVar && fp.Vars[dv].Name == "g" {
			writes++
		}
		return true
	})
	if writes != 2 {
		t.Errorf("g writes: %d\n%s", writes, fp)
	}
}

func TestRecursionGuard(t *testing.T) {
	src := `
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int f(void) { return fact(5); }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	in.ExpandProgram()
	// fact is recursive, so f keeps its call.
	calls := 0
	il.WalkStmts(fp.Body, func(s il.Stmt) bool {
		if c, ok := s.(*il.Call); ok && c.Callee == "fact" {
			calls++
		}
		return true
	})
	if calls == 0 {
		t.Errorf("recursive call disappeared:\n%s", fp)
	}
}

func TestMutualRecursionGuard(t *testing.T) {
	src := `
int odd(int);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int f(int x) { return even(x); }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	in.ExpandProgram() // must terminate
	if il.CountStmts(fp.Body) > 2000 {
		t.Errorf("expansion blew up: %d stmts", il.CountStmts(fp.Body))
	}
}

func TestNestedInlining(t *testing.T) {
	// §7: inlined functions may inline other functions.
	src := `
int sq(int x) { return x * x; }
int quad(int x) { return sq(sq(x)); }
int f(int a) { return quad(a); }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	in.ExpandProgram()
	il.WalkStmts(fp.Body, func(s il.Stmt) bool {
		if _, ok := s.(*il.Call); ok {
			t.Errorf("call survived nested expansion:\n%s", fp)
		}
		return true
	})
	opt.Optimize(fp, opt.DefaultOptions(), nil, nil)
	out := fp.String()
	if !strings.Contains(out, "*") {
		t.Errorf("multiplications missing:\n%s", out)
	}
}

func TestPaperDaxpyGuardElimination(t *testing.T) {
	// §8: daxpy(x, y, 0.0, z) — after inlining and constant propagation
	// the guarded body is unreachable and the statement count shrinks.
	src := `
void daxpy(float *x, float y, float a, float z)
{
	if (a == 0.0)
		return;
	*x = y + a * z;
}
void caller(float *x, float y, float z)
{
	daxpy(x, y, 0.0, z);
}
`
	prog := compile(t, src)
	in := New(prog)
	cp := prog.Proc("caller")
	if n := in.ExpandProgram(); n != 1 {
		t.Fatalf("expanded %d", n)
	}
	opt.Optimize(cp, opt.DefaultOptions(), nil, nil)
	// The store must be gone and the body empty.
	il.WalkStmts(cp.Body, func(s il.Stmt) bool {
		if il.IsStore(s) {
			t.Errorf("guarded store survived:\n%s", cp)
		}
		return true
	})
	if il.CountStmts(cp.Body) > 1 {
		t.Errorf("dead code left: %d stmts\n%s", il.CountStmts(cp.Body), cp)
	}
}

func TestPaperSection9EndToEnd(t *testing.T) {
	// The paper's §9 program: inlining daxpy removes the aliasing problem;
	// the loop then vectorizes and parallelizes.
	src := `
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
	if (n <= 0)
		return;
	if (alpha == 0)
		return;
	for (; n; n--)
		*x++ = *y++ + alpha * *z++;
}
int main()
{
	float a[100], b[100], c[100];
	daxpy(a, b, c, 1.0, 100);
	return 0;
}
`
	prog := compile(t, src)
	in := New(prog)
	mp := prog.Proc("main")
	if n := in.ExpandProgram(); n != 1 {
		t.Fatalf("expanded %d", n)
	}
	opt.Optimize(mp, opt.DefaultOptions(), nil, nil)
	st := vector.VectorizeProc(mp, vector.Config{Default: schedule.Default(), Parallel: true})
	if st.ParallelLoops != 1 || st.VectorStmts != 1 {
		t.Fatalf("§9 shape not reached: %+v\n%s", st, mp)
	}
	// The paper's final form: do parallel vi = 0, 99, 32.
	var par *il.DoParallel
	il.WalkStmts(mp.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoParallel); ok {
			par = d
		}
		return true
	})
	if v, ok := il.IsIntConst(par.Limit); !ok || v != 99 {
		t.Errorf("limit %s", mp.ExprString(par.Limit))
	}
	if v, ok := il.IsIntConst(par.Step); !ok || v != 32 {
		t.Errorf("step %s", mp.ExprString(par.Step))
	}
}

func TestWithoutInliningStaysSerial(t *testing.T) {
	// The §9 counterfactual: without inlining, the call blocks everything.
	src := `
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
	for (; n; n--)
		*x++ = *y++ + alpha * *z++;
}
int main()
{
	float a[100], b[100], c[100];
	daxpy(a, b, c, 1.0, 100);
	return 0;
}
`
	prog := compile(t, src)
	mp := prog.Proc("main")
	opt.Optimize(mp, opt.DefaultOptions(), nil, nil)
	st := vector.VectorizeProc(mp, vector.Config{Default: schedule.Default(), Parallel: true})
	if st.VectorStmts != 0 {
		t.Fatalf("vectorized without inlining: %+v", st)
	}
	// And daxpy itself cannot vectorize due to aliasing.
	dp := prog.Proc("daxpy")
	opt.Optimize(dp, opt.DefaultOptions(), nil, nil)
	st2 := vector.VectorizeProc(dp, vector.Config{Default: schedule.Default()})
	if st2.VectorStmts != 0 {
		t.Fatalf("aliased daxpy vectorized: %+v\n%s", st2, dp)
	}
	// Unless pointer parameters get Fortran semantics (§9's other route).
	dp2 := compile(t, src).Proc("daxpy")
	opt.Optimize(dp2, opt.DefaultOptions(), nil, nil)
	st3 := vector.VectorizeProc(dp2, vector.Config{Default: schedule.Default(), Depend: depend.Options{NoAlias: true}})
	if st3.VectorStmts != 1 {
		t.Fatalf("noalias daxpy not vectorized: %+v\n%s", st3, dp2)
	}
}

func TestStaticLocalSharedBetweenInlineAndCall(t *testing.T) {
	// §7: statics must be externally known so values are maintained
	// whether the procedure is called or inlined.
	src := `
int counter(void) { static int n; n = n + 1; return n; }
int f(void) { return counter(); }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	in.ExpandProgram()
	// The inlined body must reference the exported static, not a fresh
	// local.
	found := false
	il.WalkStmts(fp.Body, func(s il.Stmt) bool {
		if dv := il.DefinedVar(s); dv != il.NoVar {
			if fp.Vars[dv].Name == "counter.n" && fp.Vars[dv].Class == il.ClassStatic {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Errorf("static not shared:\n%s", fp)
	}
}

// TestVariadicNotInlined: a defined variadic callee is refused by name,
// with one positioned remark and no expansion.
func TestVariadicNotInlined(t *testing.T) {
	src := `
int f(int n, ...) { return n + 1; }
int main(void) { return f(1, 2); }
`
	prog := compile(t, src)
	in := New(prog)
	in.Diags = &diag.Reporter{}
	if n := in.ExpandProgram(); n != 0 {
		t.Fatalf("inlined a variadic: %d", n)
	}
	var refused []diag.Diagnostic
	for _, d := range in.Diags.All() {
		switch d.Code {
		case diag.InlineRefused:
			refused = append(refused, d)
		case diag.InlineExpanded:
			t.Errorf("unexpected expansion: %s", d)
		}
	}
	if len(refused) != 1 || refused[0].Args["reason"] != "variadic callee" {
		t.Fatalf("want one inline-refused remark with reason=variadic callee, got %v", refused)
	}
}

// TestOneReturnCalleeRemarkInCallee: a callee whose body is one return
// expands into a result assignment and a goto; both keep the return's
// position, so the expansion's remark points into the callee and names
// the call site, as it does for any callee with positioned statements.
func TestOneReturnCalleeRemarkInCallee(t *testing.T) {
	src := `
int h(int x)
{
	return x * 3;
}
int main(void)
{
	int a;
	a = 2;
	return h(a);
}
`
	prog := compile(t, src)
	in := New(prog)
	in.Diags = &diag.Reporter{}
	if n := in.ExpandProgram(); n != 1 {
		t.Fatalf("expanded %d calls, want 1", n)
	}
	ds := in.Diags.All()
	if len(ds) != 1 || ds[0].Code != diag.InlineExpanded {
		t.Fatalf("want one inline-expanded remark, got %v", ds)
	}
	if d := ds[0]; d.Pos.Line != 4 || d.InlinedFrom == nil || d.InlinedFrom.Line != 10 {
		t.Errorf("remark %s (inlined from %v), want it on h's return (line 4) inlined from main's line 10", d, d.InlinedFrom)
	}
}

func TestSizeLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int big(int x) {\n")
	for i := 0; i < maxStmts+1; i++ {
		sb.WriteString("x = x + 1;\n")
	}
	sb.WriteString("return x; }\nint f(int a) { return big(a); }\n")
	prog := compile(t, sb.String())
	in := New(prog)
	if n := in.ExpandProgram(); n != 0 {
		t.Fatalf("inlined oversized callee: %d", n)
	}
}

func TestMultipleReturnsBecomeGotos(t *testing.T) {
	src := `
int sign(int x) {
	if (x > 0) return 1;
	if (x < 0) return -1;
	return 0;
}
int f(int a) { return sign(a); }
`
	prog := compile(t, src)
	in := New(prog)
	fp := prog.Proc("f")
	in.ExpandProgram()
	// No Return nodes from the callee (only f's own return).
	returns := 0
	il.WalkStmts(fp.Body, func(s il.Stmt) bool {
		if _, ok := s.(*il.Return); ok {
			returns++
		}
		return true
	})
	if returns != 1 {
		t.Errorf("returns: %d\n%s", returns, fp)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	src := `
struct node { int v; struct node *next; };
static int hidden = 3;
float scale(float x, float s) { return x * s; }
int walk(struct node *n) {
	int total;
	total = 0;
	while (n) {
		total = total + n->v;
		n = n->next;
	}
	return total;
}
`
	prog := compile(t, src)
	cat := BuildCatalog(prog)
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, cat); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Procs) != 2 {
		t.Fatalf("procs: %d", len(got.Procs))
	}
	// Full textual round trip: the decoded procedures print identically.
	for i, p := range cat.Procs {
		if got.Procs[i].String() != p.String() {
			t.Errorf("proc %s differs:\n--- want\n%s\n--- got\n%s", p.Name, p, got.Procs[i])
		}
	}
	if len(got.Globals) != len(cat.Globals) {
		t.Errorf("globals: %d vs %d", len(got.Globals), len(cat.Globals))
	}
	// Self-referential struct type survived.
	wp := got.Procs[1]
	nParam := wp.Vars[wp.Params[0]]
	if nParam.Type.Elem.Field("next") == nil {
		t.Error("recursive struct type broken")
	}
}

func TestCatalogInliningMatchesSameFile(t *testing.T) {
	// E9: inlining from a catalog produces the same code as same-file
	// inlining.
	lib := `
float axpy1(float a, float x, float y) { return a * x + y; }
`
	app := `
float axpy1(float a, float x, float y);
float f(float p, float q) { return axpy1(2.0f, p, q); }
`
	combined := lib + "\nfloat f(float p, float q) { return axpy1(2.0f, p, q); }\n"

	// Route 1: same file.
	prog1 := compile(t, combined)
	in1 := New(prog1)
	f1 := prog1.Proc("f")
	in1.ExpandProgram()
	opt.Optimize(f1, opt.DefaultOptions(), nil, nil)

	// Route 2: catalog.
	libProg := compile(t, lib)
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, BuildCatalog(libProg)); err != nil {
		t.Fatal(err)
	}
	cat, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prog2 := compile(t, app)
	in2 := New(prog2)
	in2.AddCatalog(cat)
	f2 := prog2.Proc("f")
	if n := in2.ExpandProgram(); n != 1 {
		t.Fatalf("catalog expansion: %d", n)
	}
	opt.Optimize(f2, opt.DefaultOptions(), nil, nil)

	if f1.String() != f2.String() {
		t.Errorf("catalog and same-file inlining differ:\n--- same file\n%s\n--- catalog\n%s", f1, f2)
	}
}

func TestCatalogBadInput(t *testing.T) {
	if _, err := ReadCatalog(bytes.NewReader([]byte("NOTACATALOG"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadCatalog(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated valid header.
	var buf bytes.Buffer
	prog := compile(t, "int f(void) { return 1; }")
	if err := WriteCatalog(&buf, BuildCatalog(prog)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadCatalog(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated catalog accepted")
	}
}

func TestArrayRowPromotion(t *testing.T) {
	// §7: "Array rows passed by reference into a procedure lead to
	// subscripted references whose base arrays are also subscripted."
	// After inlining clearrow(m[i], n), the row base m[i] must normalize
	// into an affine address so the inner loop vectorizes.
	src := `
float m[8][128];
void clearrow(float *row, int n)
{
	int j;
	for (j = 0; j < n; j++)
		row[j] = 0.0f;
}
void clearall(int n)
{
	int i;
	for (i = 0; i < 8; i++)
		clearrow(m[i], n);
}
`
	prog := compile(t, src)
	in := New(prog)
	cp := prog.Proc("clearall")
	if n := in.ExpandProgram(); n != 1 {
		t.Fatalf("expanded %d", n)
	}
	opt.Optimize(cp, opt.DefaultOptions(), nil, nil)
	st := vector.VectorizeProc(cp, vector.Config{Default: schedule.Default()})
	if st.VectorStmts < 1 {
		t.Fatalf("row reference did not vectorize after inlining: %+v\n%s", st, cp)
	}
}

func TestRecursiveCalleeNeverExpands(t *testing.T) {
	// §7's recursion guard: a procedure on a call cycle is expanded into
	// no one, not its own body and not the callers outside the cycle.
	// Each call site gets one inline-recursive remark.
	src := `
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int r(int x) { if (x <= 0) return 0; return r(x - 1) + 1; }
int f(int x)
{
	int a;
	a = fact(x);
	return a + r(x);
}
`
	prog := compile(t, src)
	in := New(prog)
	in.Diags = &diag.Reporter{}
	if n := in.ExpandProgram(); n != 0 {
		t.Errorf("expanded %d calls, want none", n)
	}
	sites := map[string]int{}
	for _, p := range prog.Procs {
		il.WalkStmts(p.Body, func(s il.Stmt) bool {
			if c, ok := s.(*il.Call); ok {
				sites[fmt.Sprintf("%s %s", p.Name, c.Pos)]++
			}
			return true
		})
	}
	if len(sites) != 4 {
		t.Errorf("call sites %v, want fact and r in themselves and in f", sites)
	}
	for _, d := range in.Diags.All() {
		if d.Code != diag.InlineRecursive {
			t.Errorf("unexpected remark %s", d)
			continue
		}
		sites[fmt.Sprintf("%s %s", d.Proc, d.Pos)]--
	}
	for site, n := range sites {
		if n != 0 {
			t.Errorf("%s: %d calls left unmatched by inline-recursive remarks, want one remark per call", site, n)
		}
	}
}

package parser

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/ctype"
	"repro/internal/lexer"
	"repro/internal/token"
)

func parseOne(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v\nsource:\n%s", err, src)
	}
	return f
}

func TestSimpleFunction(t *testing.T) {
	f := parseOne(t, "int add(int a, int b) { return a + b; }")
	if len(f.Funcs) != 1 {
		t.Fatalf("funcs: %d", len(f.Funcs))
	}
	fn := f.Funcs[0]
	if fn.Name != "add" || fn.Type.Ret.Kind != ctype.Int || len(fn.Type.Params) != 2 {
		t.Errorf("signature: %s %s", fn.Name, fn.Type)
	}
	if fn.Body == nil || len(fn.Body.List) != 1 {
		t.Fatalf("body: %+v", fn.Body)
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		t.Fatalf("not a return: %T", fn.Body.List[0])
	}
	if _, ok := ret.X.(*ast.BinaryExpr); !ok {
		t.Errorf("return value: %T", ret.X)
	}
}

func TestPrototype(t *testing.T) {
	f := parseOne(t, "void daxpy(float *x, float *y, float alpha, int n);")
	fn := f.Funcs[0]
	if fn.Body != nil {
		t.Error("prototype has body")
	}
	if fn.Type.Params[0].Type.Kind != ctype.Pointer {
		t.Errorf("param 0 type %s", fn.Type.Params[0].Type)
	}
	if fn.Type.Params[0].Name != "x" {
		t.Errorf("param 0 name %q", fn.Type.Params[0].Name)
	}
}

func TestOldStyleEmptyParams(t *testing.T) {
	f := parseOne(t, "int main() { return 0; }")
	if !f.Funcs[0].Type.OldStyle {
		t.Error("main() should be old-style")
	}
	f2 := parseOne(t, "int g(void) { return 0; }")
	if f2.Funcs[0].Type.OldStyle || len(f2.Funcs[0].Type.Params) != 0 {
		t.Error("g(void) should be new-style, zero params")
	}
}

func TestGlobals(t *testing.T) {
	f := parseOne(t, "float a[100], b[100]; static int counter = 5; extern double eps;")
	if len(f.Globals) != 4 {
		t.Fatalf("globals: %d", len(f.Globals))
	}
	if f.Globals[0].Type.Kind != ctype.Array || f.Globals[0].Type.Len != 100 {
		t.Errorf("a: %s", f.Globals[0].Type)
	}
	if f.Globals[2].Storage != ast.SCStatic {
		t.Error("counter not static")
	}
	if f.Globals[2].Init == nil {
		t.Error("counter has no init")
	}
	if f.Globals[3].Storage != ast.SCExtern {
		t.Error("eps not extern")
	}
}

func TestMultiDimArray(t *testing.T) {
	f := parseOne(t, "float m[4][4];")
	typ := f.Globals[0].Type
	if typ.Kind != ctype.Array || typ.Len != 4 ||
		typ.Elem.Kind != ctype.Array || typ.Elem.Len != 4 ||
		typ.Elem.Elem.Kind != ctype.Float {
		t.Errorf("m: %s", typ)
	}
	if typ.Size() != 64 {
		t.Errorf("size %d", typ.Size())
	}
}

func TestConstArraySizeExpr(t *testing.T) {
	f := parseOne(t, "int a[2*8+1];")
	if f.Globals[0].Type.Len != 17 {
		t.Errorf("len %d", f.Globals[0].Type.Len)
	}
}

func TestPointerDeclarators(t *testing.T) {
	f := parseOne(t, "int **pp; float *v[4]; volatile int *p;")
	pp := f.Globals[0].Type
	if pp.Kind != ctype.Pointer || pp.Elem.Kind != ctype.Pointer {
		t.Errorf("pp: %s", pp)
	}
	// v is array-of-4 pointer-to-float
	v := f.Globals[1].Type
	if v.Kind != ctype.Array || v.Elem.Kind != ctype.Pointer {
		t.Errorf("v: %s", v)
	}
	// p is pointer to volatile int
	p := f.Globals[2].Type
	if p.Kind != ctype.Pointer || !p.Elem.Volatile {
		t.Errorf("p: %s", p)
	}
}

func TestFunctionPointerDeclarator(t *testing.T) {
	f := parseOne(t, "int (*handler)(int, float);")
	h := f.Globals[0].Type
	if h.Kind != ctype.Pointer || h.Elem.Kind != ctype.Func {
		t.Fatalf("handler: %s", h)
	}
	if h.Elem.Ret.Kind != ctype.Int || len(h.Elem.Params) != 2 {
		t.Errorf("handler fn: %s", h.Elem)
	}
}

func TestVolatileGlobal(t *testing.T) {
	f := parseOne(t, "volatile int keyboard_status;")
	if !f.Globals[0].Type.Volatile {
		t.Error("not volatile")
	}
}

func TestStructDef(t *testing.T) {
	f := parseOne(t, `
struct point { float x; float y; };
struct point origin;
struct xform { float m[4][4]; int flags; } unit;
`)
	if f.Globals[0].Type.Kind != ctype.Struct || f.Globals[0].Type.Tag != "point" {
		t.Errorf("origin: %s", f.Globals[0].Type)
	}
	if f.Globals[0].Type.Field("y") == nil {
		t.Error("point.y missing")
	}
	if f.Globals[1].Name != "unit" || f.Globals[1].Type.Field("m") == nil {
		t.Errorf("unit: %+v", f.Globals[1])
	}
}

func TestSelfReferentialStruct(t *testing.T) {
	f := parseOne(t, "struct node { int v; struct node *next; }; struct node head;")
	n := f.Globals[0].Type
	next := n.Field("next")
	if next == nil || next.Type.Kind != ctype.Pointer {
		t.Fatalf("next: %+v", next)
	}
	if next.Type.Elem.Field("v") == nil {
		t.Error("forward reference not completed: node*->v missing")
	}
}

func TestUnion(t *testing.T) {
	f := parseOne(t, "union u { int i; float f; } x;")
	if f.Globals[0].Type.Kind != ctype.Union || f.Globals[0].Type.Size() != 4 {
		t.Errorf("u: %s size %d", f.Globals[0].Type, f.Globals[0].Type.Size())
	}
}

func TestTypedef(t *testing.T) {
	f := parseOne(t, "typedef float real; typedef real *realp; real x; realp p;")
	if f.Globals[0].Type.Kind != ctype.Float {
		t.Errorf("x: %s", f.Globals[0].Type)
	}
	if f.Globals[1].Type.Kind != ctype.Pointer || f.Globals[1].Type.Elem.Kind != ctype.Float {
		t.Errorf("p: %s", f.Globals[1].Type)
	}
}

func TestEnum(t *testing.T) {
	f := parseOne(t, "enum color { RED, GREEN = 5, BLUE }; int x[BLUE];")
	if f.Globals[0].Type.Len != 6 {
		t.Errorf("BLUE = %d, want 6", f.Globals[0].Type.Len)
	}
}

func TestAllStatements(t *testing.T) {
	src := `
void f(int n) {
	int i, s;
	s = 0;
	for (i = 0; i < n; i++) s += i;
	while (n) n--;
	do { n++; } while (n < 10);
	if (s > 5) s = 5; else s = 0;
	switch (n) {
	case 0: s = 1; break;
	case 1: s = 2; break;
	default: s = 3;
	}
	goto out;
out:
	;
	return;
}
`
	f := parseOne(t, src)
	body := f.Funcs[0].Body.List
	if len(body) != 10 {
		t.Fatalf("statements: %d", len(body))
	}
	if _, ok := body[2].(*ast.ForStmt); !ok {
		t.Errorf("stmt 2: %T", body[2])
	}
	if _, ok := body[3].(*ast.WhileStmt); !ok {
		t.Errorf("stmt 3: %T", body[3])
	}
	if _, ok := body[4].(*ast.DoWhileStmt); !ok {
		t.Errorf("stmt 4: %T", body[4])
	}
	if _, ok := body[5].(*ast.IfStmt); !ok {
		t.Errorf("stmt 5: %T", body[5])
	}
	if _, ok := body[6].(*ast.SwitchStmt); !ok {
		t.Errorf("stmt 6: %T", body[6])
	}
	if _, ok := body[7].(*ast.GotoStmt); !ok {
		t.Errorf("stmt 7: %T", body[7])
	}
	if lbl, ok := body[8].(*ast.LabeledStmt); !ok || lbl.Label != "out" {
		t.Errorf("stmt 8: %T", body[8])
	}
}

// parseExpr parses src as a single expression.
func parseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := newParser(toks)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != token.EOF {
		return nil, p.errorf("trailing input after expression")
	}
	return e, nil
}

func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parseExpr(%q): %v", src, err)
	}
	return e
}

func TestPrecedence(t *testing.T) {
	// a + b * c parses as a + (b*c)
	e := mustExpr(t, "a + b * c").(*ast.BinaryExpr)
	if e.Op != ast.Add {
		t.Fatalf("top op %v", e.Op)
	}
	r := e.R.(*ast.BinaryExpr)
	if r.Op != ast.Mul {
		t.Errorf("right op %v", r.Op)
	}

	// a << b + c parses as a << (b+c)
	e2 := mustExpr(t, "a << b + c").(*ast.BinaryExpr)
	if e2.Op != ast.Shl {
		t.Errorf("shift precedence: top %v", e2.Op)
	}

	// a == b & c parses as (a==b) & c
	e3 := mustExpr(t, "a == b & c").(*ast.BinaryExpr)
	if e3.Op != ast.And {
		t.Errorf("bitand precedence: top %v", e3.Op)
	}

	// a || b && c parses as a || (b&&c)
	e4 := mustExpr(t, "a || b && c").(*ast.BinaryExpr)
	if e4.Op != ast.LogOr {
		t.Errorf("logical precedence: top %v", e4.Op)
	}
}

func TestAssignRightAssoc(t *testing.T) {
	// a = v = b parses as a = (v = b)
	e := mustExpr(t, "a = v = b").(*ast.AssignExpr)
	if _, ok := e.R.(*ast.AssignExpr); !ok {
		t.Errorf("right: %T", e.R)
	}
}

func TestCompoundAssign(t *testing.T) {
	e := mustExpr(t, "x += 4").(*ast.AssignExpr)
	if e.Op == nil || *e.Op != ast.Add {
		t.Errorf("op: %v", e.Op)
	}
}

func TestCondExpr(t *testing.T) {
	e := mustExpr(t, "a ? b : c ? d : e").(*ast.CondExpr)
	// Right-associative: a ? b : (c ? d : e)
	if _, ok := e.Else.(*ast.CondExpr); !ok {
		t.Errorf("else: %T", e.Else)
	}
}

func TestCommaExpr(t *testing.T) {
	e := mustExpr(t, "a = 1, b = 2, c").(*ast.CommaExpr)
	if _, ok := e.L.(*ast.CommaExpr); !ok {
		t.Errorf("comma left-assoc: %T", e.L)
	}
}

func TestPointerIdioms(t *testing.T) {
	// *a++ = *b++ — the paper's canonical copy loop body.
	e := mustExpr(t, "*a++ = *b++").(*ast.AssignExpr)
	l := e.L.(*ast.UnaryExpr)
	if l.Op != ast.Deref {
		t.Fatalf("lhs: %v", l.Op)
	}
	inner := l.X.(*ast.UnaryExpr)
	if inner.Op != ast.PostInc {
		t.Errorf("lhs inner: %v (deref must bind outside post-inc)", inner.Op)
	}
}

func TestCallAndIndex(t *testing.T) {
	e := mustExpr(t, "f(a[i], b, 3)").(*ast.CallExpr)
	if len(e.Args) != 3 {
		t.Fatalf("args: %d", len(e.Args))
	}
	if _, ok := e.Args[0].(*ast.IndexExpr); !ok {
		t.Errorf("arg0: %T", e.Args[0])
	}
}

func TestMemberAccess(t *testing.T) {
	e := mustExpr(t, "p->next.v").(*ast.MemberExpr)
	if e.Name != "v" || e.Arrow {
		t.Errorf("outer: %s arrow=%v", e.Name, e.Arrow)
	}
	in := e.X.(*ast.MemberExpr)
	if in.Name != "next" || !in.Arrow {
		t.Errorf("inner: %s arrow=%v", in.Name, in.Arrow)
	}
}

func TestCast(t *testing.T) {
	src := "float f(void) { int i; return (float)i; }"
	f := parseOne(t, src)
	ret := f.Funcs[0].Body.List[1].(*ast.ReturnStmt)
	c, ok := ret.X.(*ast.CastExpr)
	if !ok {
		t.Fatalf("return: %T", ret.X)
	}
	if c.To.Kind != ctype.Float {
		t.Errorf("cast to: %s", c.To)
	}
}

func TestCastOfTypedef(t *testing.T) {
	src := "typedef float real; real g(int i) { return (real)i; }"
	f := parseOne(t, src)
	ret := f.Funcs[0].Body.List[0].(*ast.ReturnStmt)
	if _, ok := ret.X.(*ast.CastExpr); !ok {
		t.Fatalf("return: %T (typedef name not recognized in cast)", ret.X)
	}
}

func TestSizeof(t *testing.T) {
	e := mustExpr(t, "sizeof(double)").(*ast.SizeofExpr)
	if e.OfType == nil || e.OfType.Kind != ctype.Double {
		t.Errorf("sizeof type: %v", e.OfType)
	}
	e2 := mustExpr(t, "sizeof x").(*ast.SizeofExpr)
	if e2.X == nil {
		t.Error("sizeof expr missing operand")
	}
}

func TestParenExprNotCast(t *testing.T) {
	// (a)+b where a is not a type: must parse as binary add.
	if _, ok := mustExpr(t, "(a)+b").(*ast.BinaryExpr); !ok {
		t.Error("(a)+b should be a binary expression")
	}
}

func TestPragmaStmt(t *testing.T) {
	src := "void f(float *x, int n) {\n#pragma safe\n\twhile (n) { *x++ = 0; n--; }\n}"
	f := parseOne(t, src)
	p, ok := f.Funcs[0].Body.List[0].(*ast.PragmaStmt)
	if !ok || p.Text != "safe" {
		t.Fatalf("stmt 0: %T", f.Funcs[0].Body.List[0])
	}
}

func TestPaperDaxpy(t *testing.T) {
	// The §9 program verbatim (modulo the paper's OCR glitches).
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
	f := parseOne(t, src)
	if len(f.Funcs) != 2 {
		t.Fatalf("funcs: %d", len(f.Funcs))
	}
	dax := f.Funcs[0]
	if len(dax.Type.Params) != 5 {
		t.Errorf("daxpy params: %d", len(dax.Type.Params))
	}
	fs, ok := dax.Body.List[2].(*ast.ForStmt)
	if !ok {
		t.Fatalf("stmt 2: %T", dax.Body.List[2])
	}
	if fs.Init != nil || fs.Cond == nil || fs.Post == nil {
		t.Errorf("for clauses: init=%v cond=%v post=%v", fs.Init, fs.Cond, fs.Post)
	}
}

func TestPaperBacksolve(t *testing.T) {
	src := `
void backsolve(float *x, float *y, float *z, int n)
{
	float *p, *q;
	int i;
	p = &x[1];
	q = &x[0];
	for (i = 0; i < n-2; i++)
		p[i] = z[i] * (y[i] - q[i]);
}
`
	f := parseOne(t, src)
	if len(f.Funcs[0].Body.List) != 5 {
		t.Fatalf("stmts: %d", len(f.Funcs[0].Body.List))
	}
}

func TestVolatileLoop(t *testing.T) {
	// The §1 keyboard_status example.
	src := `
volatile int keyboard_status;
void wait(void)
{
	keyboard_status = 0;
	while (!keyboard_status);
}
`
	f := parseOne(t, src)
	w := f.Funcs[0].Body.List[1].(*ast.WhileStmt)
	if _, ok := w.Body.(*ast.EmptyStmt); !ok {
		t.Errorf("body: %T", w.Body)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"int f( { }",
		"int x",
		"void f(void) { if }",
		"void f(void) { return 1 }",
		"void f(void) { x = ; }",
		"int a[n];", // non-constant array size
		"void f(void) { (1+2 }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestTrailingInputError(t *testing.T) {
	if _, err := parseExpr("a b"); err == nil {
		t.Error("expected trailing-input error")
	}
}

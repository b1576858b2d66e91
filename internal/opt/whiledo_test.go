package opt

import (
	"testing"

	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sema"
)

// compileProc lowers a source file and returns the named procedure.
func compileProc(t *testing.T, src, name string) *il.Proc {
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
	p := prog.Proc(name)
	if p == nil {
		t.Fatalf("no proc %s", name)
	}
	return p
}

// firstDoLoop finds the first DoLoop in the body.
func firstDoLoop(body []il.Stmt) *il.DoLoop {
	var found *il.DoLoop
	il.WalkStmts(body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoLoop); ok && found == nil {
			found = d
		}
		return found == nil
	})
	return found
}

func countLoops(body []il.Stmt) (whiles, dos int) {
	il.WalkStmts(body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.While:
			whiles++
		case *il.DoLoop:
			dos++
		}
		return true
	})
	return
}

func TestConvertCountedForLoop(t *testing.T) {
	p := compileProc(t, "void f(int n) { int i; for (i = 0; i < n; i++) ; }", "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d loops\n%s", got, p)
	}
	d := firstDoLoop(p.Body)
	if d == nil {
		t.Fatalf("no DoLoop:\n%s", p)
	}
	// Init is i (whose value is 0 at entry), step 1, limit n-1.
	if v, ok := il.IsIntConst(d.Step); !ok || v != 1 {
		t.Errorf("step: %s", p.ExprString(d.Step))
	}
	lim, ok := d.Limit.(*il.Bin)
	if !ok || lim.Op != il.OpSub {
		t.Errorf("limit: %s (want n-1)", p.ExprString(d.Limit))
	}
}

func TestConvertPaperCountdown(t *testing.T) {
	// §5.2's example: i = n; while (i) { ... i = temp - s; }
	src := `
void f(int n, int s) {
	int i, temp;
	i = n;
	while (i) {
		temp = i;
		i = temp - s;
	}
}
`
	p := compileProc(t, src, "f")
	// Step s is not a compile-time constant: direction unknown → no convert.
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (step sign unknown)\n%s", got, p)
	}
}

func TestConvertPaperCountdownConstStep(t *testing.T) {
	src := `
void f(int n) {
	int i, temp;
	i = n;
	while (i) {
		temp = i;
		i = temp - 2;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
	d := firstDoLoop(p.Body)
	if v, ok := il.IsIntConst(d.Step); !ok || v != -2 {
		t.Errorf("step: %s", p.ExprString(d.Step))
	}
	if v, ok := il.IsIntConst(d.Limit); !ok || v != 1 {
		t.Errorf("limit: %s (want 1 for countdown)", p.ExprString(d.Limit))
	}
	// The original body must be preserved (the paper keeps the updates).
	if len(d.Body) != 2 {
		t.Errorf("body rewritten: %d stmts", len(d.Body))
	}
}

func TestConvertWhileNMinusMinus(t *testing.T) {
	// while (n--) — the condition's side effect appears as a duplicated
	// statement list; recurrence runs through the head facts.
	src := "void f(int n) { while (n--) ; }"
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
	d := firstDoLoop(p.Body)
	if v, ok := il.IsIntConst(d.Step); !ok || v != -1 {
		t.Errorf("step: %s", p.ExprString(d.Step))
	}
}

func TestConvertPaperCopyLoop(t *testing.T) {
	// §5.3: while(n) { *a++ = *b++; n--; }
	src := `
void f(float *a, float *b, int n) {
	while (n) {
		*a++ = *b++;
		n--;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
}

func TestNoConvertVaryingBound(t *testing.T) {
	// §5.2: bounds that vary within the loop block conversion.
	src := `
void f(int n) {
	int i;
	i = 0;
	while (i < n) {
		i = i + 1;
		n = n - 1;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (bound varies)\n%s", got, p)
	}
}

func TestNoConvertGotoIntoLoop(t *testing.T) {
	// §5.2: branches entering the loop disqualify it.
	src := `
void f(int n, int c) {
	int i;
	i = 0;
	if (c) goto inside;
	while (i < n) {
inside:
		i = i + 1;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (goto into loop)\n%s", got, p)
	}
}

func TestNoConvertBreakOut(t *testing.T) {
	src := `
void f(int n, int c) {
	int i;
	for (i = 0; i < n; i++)
		if (i == c) break;
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (break exits loop)\n%s", got, p)
	}
}

func TestNoConvertVolatileControl(t *testing.T) {
	// §1: the keyboard_status busy-wait loop must stay a while loop.
	src := `
volatile int ks;
void f(void) {
	ks = 0;
	while (!ks) ;
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (volatile condition)\n%s", got, p)
	}
}

func TestNoConvertCallInBody(t *testing.T) {
	// A call may modify a global control variable.
	src := `
int n;
void g(void);
void f(void) {
	while (n) {
		g();
		n = n - 1;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (global iv + call)\n%s", got, p)
	}
}

func TestNoConvertAddrTakenControl(t *testing.T) {
	src := `
void g(int *);
void f(int n) {
	int i;
	i = 0;
	g(&i);
	while (i < n) {
		*(&i) = i + 1;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (addr-taken iv)\n%s", got, p)
	}
}

func TestConvertGE(t *testing.T) {
	src := `
void f(int n) {
	int i;
	for (i = n; i >= 0; i--) ;
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
	d := firstDoLoop(p.Body)
	if v, ok := il.IsIntConst(d.Limit); !ok || v != 0 {
		t.Errorf("limit: %s", p.ExprString(d.Limit))
	}
	if v, ok := il.IsIntConst(d.Step); !ok || v != -1 {
		t.Errorf("step: %s", p.ExprString(d.Step))
	}
}

func TestConvertNEForm(t *testing.T) {
	src := "void f(int n) { int i; for (i = 0; i != n; i++) ; }"
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
}

func TestConvertMirroredCond(t *testing.T) {
	// n > i  ≡  i < n
	src := "void f(int n) { int i; for (i = 0; n > i; i++) ; }"
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
	d := firstDoLoop(p.Body)
	if v, ok := il.IsIntConst(d.Step); !ok || v != 1 {
		t.Errorf("step: %s", p.ExprString(d.Step))
	}
}

func TestWrongDirectionNotConverted(t *testing.T) {
	// i < n with a downward step is an infinite or zero-trip loop the
	// converter must not touch.
	src := `
void f(int n) {
	int i;
	i = 0;
	while (i < n) i = i - 1;
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (direction mismatch)\n%s", got, p)
	}
}

func TestNestedLoopsBothConvert(t *testing.T) {
	src := `
float a[16][16];
void f(int n) {
	int i, j;
	for (i = 0; i < n; i++)
		for (j = 0; j < n; j++)
			a[i][j] = 0;
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 2 {
		t.Fatalf("converted %d\n%s", got, p)
	}
	w, d := countLoops(p.Body)
	if w != 0 || d != 2 {
		t.Errorf("whiles=%d dos=%d", w, d)
	}
}

func TestTwoUpdatesNotConverted(t *testing.T) {
	src := `
void f(int n, int c) {
	int i;
	i = 0;
	while (i < n) {
		i = i + 1;
		if (c) i = i + 2;
	}
}
`
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 0 {
		t.Fatalf("converted %d (two updates)\n%s", got, p)
	}
}

func TestSafeFlagPreserved(t *testing.T) {
	src := "void f(float *x, int n) {\n#pragma safe\n\twhile (n) { *x++ = 0; n--; }\n}"
	p := compileProc(t, src, "f")
	if got := convertWhileLoops(p, nil, nil); got != 1 {
		t.Fatalf("converted %d\n%s", got, p)
	}
	if d := firstDoLoop(p.Body); !d.Safe {
		t.Error("safe flag lost in conversion")
	}
}

package strength

import (
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/schedule"
	"repro/internal/sema"
)

func compileOpt(t *testing.T, src, name string) *il.Proc {
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
	opt.Optimize(p, opt.DefaultOptions(), nil, nil)
	return p
}

const backsolveSrc = `
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

func firstLoop(p *il.Proc) *il.DoLoop {
	var loop *il.DoLoop
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoLoop); ok && loop == nil {
			loop = d
		}
		return loop == nil
	})
	return loop
}

func TestBacksolvePromotion(t *testing.T) {
	// §6: the recurrence value is pulled into a register; the loop body
	// afterwards loads only z[i] and y[i].
	p := compileOpt(t, backsolveSrc, "backsolve")
	st := OptimizeLoops(p, Config{Default: schedule.Default(), Depend: depend.Options{NoAlias: true}})
	if st.PromotedLoads != 1 {
		t.Fatalf("promoted: %+v\n%s", st, p)
	}
	loop := firstLoop(p)
	loads := 0
	il.WalkStmts(loop.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok {
			il.WalkExpr(as.Src, func(e il.Expr) bool {
				if _, isLoad := e.(*il.Load); isLoad {
					loads++
				}
				return true
			})
		}
		return true
	})
	if loads != 2 {
		t.Errorf("loads in loop: %d, want 2 (z and y only)\n%s", loads, p)
	}
}

// intMuls counts the integer multiplications in loop's statements.
func intMuls(loop *il.DoLoop) int {
	muls := 0
	il.WalkStmts(loop.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok {
			count := func(e il.Expr) {
				il.WalkExpr(e, func(x il.Expr) bool {
					if b, isBin := x.(*il.Bin); isBin && b.Op == il.OpMul && b.T.IsInteger() {
						muls++
					}
					return true
				})
			}
			if l, isStore := as.Dst.(*il.Load); isStore {
				count(l.Addr)
			}
			count(as.Src)
		}
		return true
	})
	return muls
}

func TestBacksolveNoIntegerMultiplies(t *testing.T) {
	// §6: "strength reduction is able to eliminate all the integer
	// multiplications within the loop". ivsub puts them there (A1).
	p := compileOpt(t, backsolveSrc, "backsolve")
	if intMuls(firstLoop(p)) == 0 {
		t.Fatalf("ivsub left no integer multiplies for strength reduction to remove:\n%s", p)
	}
	OptimizeLoops(p, Config{Default: schedule.Default(), Depend: depend.Options{NoAlias: true}})
	if muls := intMuls(firstLoop(p)); muls != 0 {
		t.Errorf("integer multiplies left: %d\n%s", muls, p)
	}
}

func TestBacksolvePaperShape(t *testing.T) {
	// The §6 output: f_reg = x[0] preheader, bumped pointers, body of the
	// form f_reg = *temp_z * (*temp_y - f_reg); *temp_x = f_reg.
	p := compileOpt(t, backsolveSrc, "backsolve")
	st := OptimizeLoops(p, Config{Default: schedule.Default(), Depend: depend.Options{NoAlias: true}})
	if st.Pointers < 3 {
		t.Errorf("pointer temps: %+v", st)
	}
	out := p.String()
	if !strings.Contains(out, "f_reg") {
		t.Errorf("no register promotion:\n%s", out)
	}
	// Pointer bumps at the loop bottom.
	loop := firstLoop(p)
	last := loop.Body[len(loop.Body)-1].(*il.Assign)
	if b, ok := last.Src.(*il.Bin); !ok || b.Op != il.OpAdd {
		t.Errorf("no trailing bump:\n%s", out)
	}
}

func TestSharedPointerForCommonBase(t *testing.T) {
	// Two references with identical base and stride share one pointer
	// (the CSE aspect of §6).
	src := `
float a[300], b[300];
void f(int n) {
	int i;
	for (i = 0; i < n; i++)
		b[i] = a[i] * a[i];
}
`
	p := compileOpt(t, src, "f")
	st := OptimizeLoops(p, Config{Default: schedule.Default()})
	if st.Pointers != 2 {
		t.Errorf("pointers: %d want 2 (a and b)\n%s", st.Pointers, p)
	}
}

func TestOffsetWithinClass(t *testing.T) {
	// a[i] and a[i+1]: same base and stride, different constant offsets —
	// one pointer, two addressed refs.
	src := `
float a[300], b[300];
void f(int n) {
	int i;
	for (i = 0; i < n; i++)
		b[i] = a[i] + a[i+1];
}
`
	p := compileOpt(t, src, "f")
	st := OptimizeLoops(p, Config{Default: schedule.Default()})
	if st.Pointers != 2 {
		t.Errorf("pointers: %d want 2\n%s", st.Pointers, p)
	}
}

func TestHoistInvariant(t *testing.T) {
	src := `
float a[100];
void f(float alpha, float beta, int n) {
	int i;
	for (i = 0; i < n; i++)
		a[i] = a[i] * (alpha * beta);
}
`
	p := compileOpt(t, src, "f")
	st := OptimizeLoops(p, Config{Default: schedule.Default()})
	if st.HoistedExprs == 0 {
		t.Errorf("alpha*beta not hoisted: %+v\n%s", st, p)
	}
}

func TestControlFlowLoopUntouched(t *testing.T) {
	src := `
float a[100];
void f(int n, int c) {
	int i;
	for (i = 0; i < n; i++) {
		if (c) a[i] = 0;
	}
}
`
	p := compileOpt(t, src, "f")
	st := OptimizeLoops(p, Config{Default: schedule.Default()})
	if st.LoopsTransformed != 0 {
		t.Errorf("control-flow loop transformed: %+v\n%s", st, p)
	}
}

func TestVolatileLoopUntouched(t *testing.T) {
	src := `
volatile float port[100];
float a[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = port[i];
}
`
	p := compileOpt(t, src, "f")
	st := OptimizeLoops(p, Config{Default: schedule.Default()})
	if st.PromotedLoads != 0 || st.ReducedRefs != 0 {
		t.Errorf("volatile loop transformed: %+v\n%s", st, p)
	}
}

func TestNoPromotionWithoutDistanceOne(t *testing.T) {
	// Distance-2 recurrence would need two registers: not promoted.
	src := `
float c[500];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) c[i+2] = c[i];
}
`
	p := compileOpt(t, src, "f")
	st := OptimizeLoops(p, Config{Default: schedule.Default()})
	if st.PromotedLoads != 0 {
		t.Errorf("distance-2 promoted: %+v\n%s", st, p)
	}
}

func TestSemanticsPreservedManually(t *testing.T) {
	// Verify the rewritten backsolve computes what the original computes,
	// by interpreting the address arithmetic symbolically over a tiny
	// concrete memory. (The full interpreter lives in the titan package;
	// here we check the statement structure instead: the promoted
	// register must feed the store, and the store's address class must be
	// the x pointer with offset 4.)
	p := compileOpt(t, backsolveSrc, "backsolve")
	OptimizeLoops(p, Config{Default: schedule.Default(), Depend: depend.Options{NoAlias: true}})
	loop := firstLoop(p)
	var storeStmt *il.Assign
	il.WalkStmts(loop.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok && il.IsStore(s) {
			storeStmt = as
		}
		return true
	})
	if storeStmt == nil {
		t.Fatalf("no store:\n%s", p)
	}
	if v, ok := storeStmt.Src.(*il.VarRef); !ok || !strings.HasPrefix(p.Vars[v.ID].Name, "f_reg") {
		t.Errorf("store does not come from the register: %s\n%s", p.StmtString(storeStmt, 0), p)
	}
}

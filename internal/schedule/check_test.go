package schedule_test

import (
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/schedule"
	"repro/internal/titan"
)

// loopsOf compiles src through the scalar phase only — while loops are
// already DO loops and induction variables are substituted (the shape
// the loop phases actually see), but no loop transformation has run —
// and returns the named procedure plus its DO loops in source order.
func loopsOf(t *testing.T, src, proc string) (*il.Proc, []*il.DoLoop) {
	t.Helper()
	res, err := driver.CompileIL(src, driver.Options{OptLevel: 1, ForceIVSub: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, p := range res.IL.Procs {
		if p.Name != proc {
			continue
		}
		var loops []*il.DoLoop
		il.WalkStmts(p.Body, func(s il.Stmt) bool {
			if loop, ok := s.(*il.DoLoop); ok {
				loops = append(loops, loop)
			}
			return true
		})
		return p, loops
	}
	t.Fatalf("no procedure %q in %q", proc, src)
	return nil, nil
}

func check(p *il.Proc, loop *il.DoLoop, s schedule.Schedule) error {
	return schedule.Check(p, loop, s, depend.Options{})
}

const independentSrc = `
float a[128], b[128];
void f(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] + 1.0f;
}
`

const carriedSrc = `
float a[128];
void f(int n)
{
	int i;
	for (i = 1; i < n; i++)
		a[i] = a[i-1] + 1.0f;
}
`

const callBodySrc = `
int g(int x) { return x + 1; }
int acc;
void f(int n)
{
	int i;
	for (i = 0; i < n; i++)
		acc = g(i);
}
`

// repeatNestSrc is a perfect rectangular nest whose store does not move
// with the outer index: every r writes all of a[], a dependence of
// direction (<,=) that interchange keeps. diagonalNestSrc's dependence
// has direction (<,>): interchanged, a[i-1][j+1] would be read before
// it is written.
const repeatNestSrc = `
float a[16], b[16];
void f(void)
{
	int r, j;
	for (r = 0; r < 4; r++)
		for (j = 0; j < 16; j++)
			a[j] = b[j] * 2.0f;
}
`

const diagonalNestSrc = `
float a[16][16];
void f(void)
{
	int i, j;
	for (i = 1; i < 16; i++)
		for (j = 0; j < 15; j++)
			a[i][j] = a[i-1][j+1];
}
`

const rectNestSrc = `
float m[16][16], s[16][16];
void f(void)
{
	int i, j;
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			m[i][j] = s[i][j] * 2.0f;
}
`

const triNestSrc = `
float m[16][16], s[16][16];
void f(void)
{
	int i, j;
	for (i = 0; i < 16; i++)
		for (j = 0; j < i; j++)
			m[i][j] = s[i][j] * 2.0f;
}
`

// TestCheckSerialStrips: serial strips keep the strip loop serial, so
// a carried dependence does not bar them.
func TestCheckSerialStrips(t *testing.T) {
	p, loops := loopsOf(t, carriedSrc, "f")
	serial := schedule.Schedule{VL: 32, Unroll: 1, SerialStrips: true}
	if err := check(p, loops[0], serial); err != nil {
		t.Errorf("serial strips rejected on a carried-dependence loop: %v", err)
	}
}

// TestCheckUnroll: unrolling needs a constant nonzero step and a
// straight-line assignment body (replicas are substituted copies; calls
// and control flow don't replicate safely).
func TestCheckUnroll(t *testing.T) {
	unroll := schedule.Schedule{VL: 32, Unroll: 4}

	p, loops := loopsOf(t, independentSrc, "f")
	if err := check(p, loops[0], unroll); err != nil {
		t.Errorf("assign-body loop rejected for unrolling: %v", err)
	}

	// A carried dependence does NOT block unrolling — replicas execute in
	// the original serial order.
	p, loops = loopsOf(t, carriedSrc, "f")
	if err := check(p, loops[0], unroll); err != nil {
		t.Errorf("carried-dependence loop rejected for unrolling: %v", err)
	}

	p, loops = loopsOf(t, callBodySrc, "f")
	if check(p, loops[0], unroll) == nil {
		t.Error("call-body loop accepted for unrolling")
	}
}

// TestCheckInterchange: only perfect rectangular 2-nests interchange,
// and only when no dependence has direction (<,>).
func TestCheckInterchange(t *testing.T) {
	ic := schedule.Schedule{VL: 32, Unroll: 1, Interchange: true}

	p, loops := loopsOf(t, rectNestSrc, "f")
	if err := check(p, loops[0], ic); err != nil {
		t.Errorf("rectangular perfect nest rejected for interchange: %v", err)
	}

	p, loops = loopsOf(t, triNestSrc, "f")
	if check(p, loops[0], ic) == nil {
		t.Error("triangular nest accepted for interchange (inner bound uses outer IV)")
	}

	p, loops = loopsOf(t, independentSrc, "f")
	if check(p, loops[0], ic) == nil {
		t.Error("non-nest loop accepted for interchange")
	}

	p, loops = loopsOf(t, repeatNestSrc, "f")
	if err := check(p, loops[0], ic); err != nil {
		t.Errorf("nest whose store does not move with the outer index, direction (<,=): %v", err)
	}

	p, loops = loopsOf(t, diagonalNestSrc, "f")
	if err := check(p, loops[0], ic); err == nil || !strings.Contains(err.Error(), "S0 -flow (<,>)-> S0") {
		t.Errorf("nest with a (<,>) dependence: %v, want it refused naming S0 -flow (<,>)-> S0", err)
	}
}

// Check refuses invalid schedules before it ever looks at the loop.
func TestCheckValidates(t *testing.T) {
	p, loops := loopsOf(t, independentSrc, "f")
	bad := schedule.Schedule{VL: titan.MaxVL + 1, Unroll: 1}
	if check(p, loops[0], bad) == nil {
		t.Error("out-of-range VL accepted")
	}
}

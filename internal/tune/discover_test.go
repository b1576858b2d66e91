package tune

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/il"
)

// deadCalleeUnit has one loop-bearing callee. How main reaches it is the
// variable: call is the statement main uses.
func deadCalleeUnit(call string) string {
	return `
float a[64], b[64];
void kernel(float *x, float *y, int n)
{
	int i;
	for (i = 0; i < n; i++)
		x[i] = y[i] + 1.0f;
}
int main(void)
{
	int i;
	void (*fp)(float *, float *, int);
	for (i = 0; i < 64; i++)
		b[i] = i;
	fp = kernel;
	` + call + `
	return (int)a[5];
}
`
}

func loopProcs(loops []loopInfo) map[string]int {
	n := map[string]int{}
	for _, li := range loops {
		n[li.key.Proc]++
	}
	return n
}

// The tuner must not spend candidates on code that never runs. Once the
// only call to kernel is inlined, its out-of-line copy is unreachable from
// main: its loop is still in the IL but gets no grid. Called directly
// without inlining, or possibly called through a function pointer, it
// keeps it.
func TestDiscoverSkipsUnreachableProcedures(t *testing.T) {
	noInline := driver.FullOptions()
	noInline.Inline = false
	cases := []struct {
		name       string
		call       string
		opts       driver.Options
		wantKernel int
	}{
		{"only call inlined", "kernel(a, b, 64);", driver.FullOptions(), 0},
		{"direct call, not inlined", "kernel(a, b, 64);", noInline, 1},
		{"call through a function pointer", "fp(a, b, 64);", driver.FullOptions(), 1},
	}
	for _, c := range cases {
		s, err := newSearch(deadCalleeUnit(c.call), c.opts, Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		kernelLoops := 0
		il.WalkStmts(s.base.Proc("kernel").Body, func(st il.Stmt) bool {
			if _, ok := st.(*il.DoLoop); ok {
				kernelLoops++
			}
			return true
		})
		if kernelLoops != 1 {
			t.Fatalf("%s: kernel has %d DO loops at the split, want 1", c.name, kernelLoops)
		}
		got := loopProcs(s.discover())
		if got["kernel"] != c.wantKernel || got["main"] == 0 {
			t.Errorf("%s: loops per procedure %v, want %d in kernel and main's kept", c.name, got, c.wantKernel)
		}
		s.base.Release()
	}
}

// Dead loops must not take a live loop's slot either: with room for one
// loop, the one tuned is main's, although kernel sorts first.
func TestDeadLoopsDoNotCountAgainstMaxLoops(t *testing.T) {
	s, err := newSearch(deadCalleeUnit("kernel(a, b, 64);"), driver.FullOptions(), Config{MaxLoops: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.base.Release()
	loops := s.discover()
	if len(loops) != 1 || loops[0].key.Proc != "main" {
		t.Errorf("with MaxLoops 1 the tuner examines %+v, want one loop of main", loops)
	}
}

package codegen

import (
	"testing"

	"repro/internal/titan"
)

// TestLiveIntervals pins liveness on the shapes that decide which scalars
// may share a register. Statements are numbered in preorder from 1; an
// interval that a loop or a backward goto straddles covers all of it.
func TestLiveIntervals(t *testing.T) {
	cases := []struct {
		name, src string
		// want maps a variable of main to its interval; nil means
		// unreferenced.
		want map[string][]int
	}{
		{
			// x is live across the loop, w only inside it: w's value may
			// come round the back edge, so it holds the whole loop and
			// overlaps x.
			name: "across-loop-against-inside",
			src: `
int a[10];
int main(void)
{
	int x, i, w;
	x = 1;
	for (i = 0; i < 10; i++) {
		w = i * 2;
		a[i] = w;
	}
	return x;
}
`,
			want: map[string][]int{"x": {1, 7}, "i": {2, 6}, "w": {3, 6}},
		},
		{
			// u is defined and used between the label and the goto back to
			// it, so the span is its interval; v comes after and shares.
			name: "backward-goto",
			src: `
int main(void)
{
	int t, u, v;
	t = 0;
again:
	u = t;
	t = u + 1;
	if (t < 10)
		goto again;
	v = t * 2;
	return v;
}
`,
			want: map[string][]int{"t": {1, 7}, "u": {2, 6}, "v": {7, 8}},
		},
		{
			// The arms of an if run one or the other: p and q are apart.
			name: "if-arms",
			src: `
int a[2];
int main(void)
{
	int c, p, q;
	c = a[0];
	if (c) {
		p = c + 1;
		a[1] = p;
	} else {
		q = c + 2;
		a[1] = q;
	}
	return a[1];
}
`,
			want: map[string][]int{"c": {1, 5}, "p": {3, 4}, "q": {5, 6}},
		},
		{
			// A parameter is live from the prologue that binds it; one
			// nothing reads has no interval.
			name: "parameter",
			src: `
int f(int n, int dead)
{
	int k;
	k = 2;
	return n + k;
}
int main(void) { return f(1, 2); }
`,
			want: map[string][]int{"n": {0, 2}, "dead": nil, "k": {1, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := lowerProgram(t, tc.src)
			p := prog.Procs[0]
			ranges := new(scan).liveness(p)
			for name, want := range tc.want {
				r := ranges[p.LookupVar(name)]
				got := []int{r.lo, r.hi}
				if r.weight == 0 {
					got = nil
				}
				if len(got) != len(want) || len(got) == 2 && (got[0] != want[0] || got[1] != want[1]) {
					t.Errorf("%s: interval %v, want %v", name, got, want)
				}
			}
		})
	}
}

// TestRegistersSharedOnlyUnderPressure: while the file lasts every scalar
// has its own register, in declaration order; with two registers the
// else arm's q takes the then arm's register, and c, live across both
// arms, keeps its own.
func TestRegistersSharedOnlyUnderPressure(t *testing.T) {
	prog := lowerProgram(t, `
int a[2];
int main(void)
{
	int c, p, q;
	c = a[0];
	if (c) {
		p = c + 1;
		a[1] = p;
	} else {
		q = c + 2;
		a[1] = q;
	}
	return a[1];
}
`)
	defer SetVarRegs(varRegs)()
	for _, tc := range []struct {
		regs    int
		c, p, q int
	}{{varRegs, varLo, varLo + 1, varLo + 2}, {2, varLo, varLo + 1, varLo + 1}} {
		varRegs = tc.regs
		g := &gen{p: prog.Procs[0], tp: &titan.Program{GlobalAddr: map[string]int64{}}, scan: new(scan)}
		if err := g.allocate(); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]int{"c": tc.c, "p": tc.p, "q": tc.q} {
			if loc := g.locs[g.p.LookupVar(name)]; loc != (location{kind: locIntReg, reg: want}) {
				t.Errorf("%d registers: %s at %+v, want r%d", tc.regs, name, loc, want)
			}
		}
	}
}

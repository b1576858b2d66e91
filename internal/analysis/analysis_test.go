// The test package is external so it can build procs through the front
// end (parser → sema → lower) without creating an import cycle back
// through the packages that consume the cache.
package analysis_test

import (
	"slices"
	"testing"

	. "repro/internal/analysis"

	"repro/internal/dataflow"
	"repro/internal/depend"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sema"
)

// procOf lowers src, runs the scalar optimizer (so for-loops become DO
// loops), and returns the named procedure and its first DO loop (nil if
// the source has none).
func procOf(t *testing.T, src, name string) (*il.Proc, *il.DoLoop) {
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
	var loop *il.DoLoop
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoLoop); ok && loop == nil {
			loop = d
		}
		return loop == nil
	})
	return p, loop
}

// chainKey names a definition independently of the analysis that found
// it: its node's statement and position in the graph, its variable and
// its kind.
type chainKey struct {
	stmt             il.Stmt
	node             int
	v                il.VarID
	ambiguous, entry bool
}

// checkFresh fails unless a (and lv, when not nil) answers every
// statement × variable query as a fresh dataflow.Analyze of p does. The
// cache re-solves into the storage of a stale solution, so this is what
// says nothing stale shows through.
func checkFresh(t *testing.T, p *il.Proc, a *dataflow.Analysis, lv *dataflow.Liveness) {
	t.Helper()
	fa, err := dataflow.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	flv := dataflow.ComputeLiveness(p, fa.Graph)
	chain := func(a *dataflow.Analysis, s il.Stmt, v il.VarID) []chainKey {
		var out []chainKey
		a.ForEachReachingDef(s, v, func(d *dataflow.Def) {
			out = append(out, chainKey{d.Node.Stmt, d.Node.ID, d.Var, d.Ambiguous, d.Entry})
		})
		return out
	}
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		for i := range p.Vars {
			v := il.VarID(i)
			if got, want := chain(a, s, v), chain(fa, s, v); !slices.Equal(got, want) {
				t.Errorf("defs of %s reaching %v: cached %v, fresh %v", p.Vars[v].Name, s, got, want)
			}
			if lv != nil && lv.LiveOut(s, v) != flv.LiveOut(s, v) {
				t.Errorf("%s live after %v: cached %v, fresh %v", p.Vars[v].Name, s, lv.LiveOut(s, v), flv.LiveOut(s, v))
			}
		}
		return true
	})
}

const loopSrc = `
float a[100], b[100];
void f(int n) {
	int i;
	for (i = 0; i < n; i++) a[i] = b[i] + 1.0;
}
`

func TestDataflowHitAndInvalidation(t *testing.T) {
	p, _ := procOf(t, loopSrc, "f")
	c := NewCache()

	a1, err := c.Dataflow(p)
	if err != nil {
		t.Fatalf("dataflow: %v", err)
	}
	a2, err := c.Dataflow(p)
	if err != nil {
		t.Fatalf("dataflow: %v", err)
	}
	if a1 != a2 {
		t.Errorf("same generation returned distinct analyses")
	}
	if st := c.Stats(); st.DataflowHits != 1 || st.DataflowMisses != 1 {
		t.Errorf("stats after repeat query = %+v, want 1 hit / 1 miss", st)
	}

	// A generation bump must force a recompute, which re-solves into the
	// stale solution's storage: the miss count, not the pointer, says so.
	p.BumpGeneration()
	a3, err := c.Dataflow(p)
	if err != nil {
		t.Fatalf("dataflow: %v", err)
	}
	if st := c.Stats(); st.DataflowHits != 1 || st.DataflowMisses != 2 {
		t.Errorf("stats after invalidation = %+v, want 1 hit / 2 misses", st)
	}
	checkFresh(t, p, a3, nil)
}

func TestDataflowLivenessSharesSolution(t *testing.T) {
	p, _ := procOf(t, loopSrc, "f")
	c := NewCache()

	a1, lv1, err := c.DataflowLiveness(p)
	if err != nil {
		t.Fatalf("liveness: %v", err)
	}
	a2, lv2, err := c.DataflowLiveness(p)
	if err != nil {
		t.Fatalf("liveness: %v", err)
	}
	if a1 != a2 || lv1 != lv2 {
		t.Errorf("same generation returned distinct solutions")
	}
	// The second query hits both tiers; a plain Dataflow call afterwards
	// reuses the same underlying analysis.
	if a3, _ := c.Dataflow(p); a3 != a1 {
		t.Errorf("Dataflow and DataflowLiveness disagree on the cached analysis")
	}
	st := c.Stats()
	if st.DataflowHits != 2 || st.DataflowMisses != 1 {
		t.Errorf("dataflow stats = %+v, want 2 hits / 1 miss", st)
	}
	if st.LivenessHits != 1 || st.LivenessMisses != 1 {
		t.Errorf("liveness stats = %+v, want 1 hit / 1 miss", st)
	}

	p.BumpGeneration()
	a3, lv3, err := c.DataflowLiveness(p)
	if err != nil {
		t.Fatalf("liveness: %v", err)
	}
	if st := c.Stats(); st.DataflowMisses != 2 || st.LivenessMisses != 2 {
		t.Errorf("stats after a generation bump = %+v, want 2 dataflow and 2 liveness misses", st)
	}
	checkFresh(t, p, a3, lv3)
}

func TestLoopDepsKeyedByLoopAndOptions(t *testing.T) {
	p, loop := procOf(t, loopSrc, "f")
	if loop == nil {
		t.Fatal("no DO loop")
	}
	c := NewCache()

	ld1 := c.LoopDeps(p, loop, depend.Options{})
	ld2 := c.LoopDeps(p, loop, depend.Options{})
	if ld1 != ld2 {
		t.Errorf("same (loop, options) returned distinct dependence graphs")
	}
	// Different aliasing assumptions are a different cache entry.
	ldNoAlias := c.LoopDeps(p, loop, depend.Options{NoAlias: true})
	if ldNoAlias == ld1 {
		t.Errorf("NoAlias query shared the aliasing-aware graph")
	}
	if st := c.Stats(); st.DependHits != 1 || st.DependMisses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}

	p.BumpGeneration()
	if ld3 := c.LoopDeps(p, loop, depend.Options{}); ld3 == ld1 {
		t.Errorf("stale dependence graph survived a generation bump")
	}
}

// A rewrite of expressions inside existing statements keeps the CFG and
// the reaching definitions, which are keyed by the shape, and invalidates
// what reads uses: liveness and dependence graphs.
func TestRewroteKeepsDataflowOnly(t *testing.T) {
	p, loop := procOf(t, loopSrc, "f")
	if loop == nil {
		t.Fatal("no DO loop")
	}
	c := NewCache()
	a1, lv1, err := c.DataflowLiveness(p)
	if err != nil {
		t.Fatalf("liveness: %v", err)
	}
	ld1 := c.LoopDeps(p, loop, depend.Options{})

	shape := p.Shape()
	if p.Rewrote(1) != 1 || p.Shape() != shape {
		t.Fatalf("Rewrote moved the shape %d → %d", shape, p.Shape())
	}
	a2, lv2, err := c.DataflowLiveness(p)
	if err != nil {
		t.Fatalf("liveness: %v", err)
	}
	if a2 != a1 || lv2 != lv1 {
		t.Error("the procedure's analysis storage moved")
	}
	if ld2 := c.LoopDeps(p, loop, depend.Options{}); ld2 == ld1 {
		t.Error("stale dependence graph survived Rewrote")
	}
	st := c.Stats()
	if st.DataflowHits != 1 || st.DataflowMisses != 1 || st.LivenessMisses != 2 || st.DependMisses != 2 {
		t.Errorf("stats = %+v, want 1 dataflow hit / 1 miss, 2 liveness and 2 dependence misses", st)
	}
	checkFresh(t, p, a2, lv2)

	// Changed moves the shape, and the reaching definitions go with it:
	// a new first statement moves every node and definition of the
	// re-solve off where the stale solution had it.
	p.Body = append([]il.Stmt{&il.Label{Name: ".top"}}, p.Body...)
	p.Changed(1)
	a3, err := c.Dataflow(p)
	if err != nil {
		t.Fatalf("dataflow: %v", err)
	}
	if st := c.Stats(); st.DataflowMisses != 2 {
		t.Errorf("stats after Changed = %+v, want 2 dataflow misses", st)
	}
	checkFresh(t, p, a3, nil)
}

// A nil cache must behave exactly like calling the analyses directly:
// every query computes, nothing is retained, stats stay zero.
func TestNilCachePassthrough(t *testing.T) {
	p, loop := procOf(t, loopSrc, "f")
	var c *Cache

	a1, err := c.Dataflow(p)
	if err != nil || a1 == nil {
		t.Fatalf("nil-cache Dataflow: %v", err)
	}
	if a2, _ := c.Dataflow(p); a2 == a1 {
		t.Errorf("nil cache memoized a dataflow solution")
	}
	if _, lv, err := c.DataflowLiveness(p); err != nil || lv == nil {
		t.Fatalf("nil-cache DataflowLiveness: %v", err)
	}
	if loop != nil {
		if ld := c.LoopDeps(p, loop, depend.Options{}); ld == nil {
			t.Fatal("nil-cache LoopDeps returned nil")
		}
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache reported stats %+v", st)
	}
}

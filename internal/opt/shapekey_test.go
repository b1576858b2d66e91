package opt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/il"
)

// defKey names a definition independently of the analysis that found it:
// its statement (a DO latch by its loop's statement), its variable and its
// kind.
type defKey struct {
	stmt             il.Stmt
	latch            bool
	v                il.VarID
	ambiguous, entry bool
}

func keyOf(a *dataflow.Analysis, d *dataflow.Def) defKey {
	k := defKey{stmt: d.Node.Stmt, latch: d.Node.Latch, v: d.Var, ambiguous: d.Ambiguous, entry: d.Entry}
	if d.Node.Latch {
		k.stmt = a.Graph.Nodes[d.Node.Preds[0]].Stmt // the head's edge is the latch's first
	}
	return k
}

// chain lists the definitions of v reaching s, in def-ID order.
func chain(a *dataflow.Analysis, s il.Stmt, v il.VarID) []defKey {
	var out []defKey
	a.ForEachReachingDef(s, v, func(d *dataflow.Def) { out = append(out, keyOf(a, d)) })
	return out
}

// layout prints what the shape key promises stays put: every CFG node's
// statement and edges, and every definition site.
func layout(a *dataflow.Analysis) string {
	var b strings.Builder
	for _, n := range a.Graph.Nodes {
		fmt.Fprintf(&b, "%p %v %v\n", n.Stmt, n.Latch, n.Succs)
	}
	for _, d := range a.Defs {
		fmt.Fprintf(&b, "%v\n", keyOf(a, d))
	}
	return b.String()
}

// checkChains reports every statement × used variable whose reaching
// definitions differ between the cache's analysis of p and a fresh one,
// and returns the fresh layout ("" when p has no CFG).
func checkChains(t *testing.T, where string, ac *analysis.Cache, p *il.Proc) string {
	t.Helper()
	cached, err := ac.Dataflow(p)
	fresh, ferr := dataflow.Analyze(p)
	if (err == nil) != (ferr == nil) {
		t.Fatalf("%s: cached error %v, fresh error %v", where, err, ferr)
	}
	if err != nil {
		return ""
	}
	var used []il.VarID
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		used = dataflow.AppendUsedVars(used[:0], s)
		for _, v := range used {
			if got, want := chain(cached, s, v), chain(fresh, s, v); !slices.Equal(got, want) {
				t.Errorf("%s: defs of %s reaching %v: cached %v, fresh %v", where, p.Vars[v].Name, s, got, want)
				return false
			}
		}
		return true
	})
	return layout(fresh)
}

// TestShapeKeyedDataflowExact: the cache keys reaching definitions by
// il.Proc.Shape, which copy and constant propagation (il.Proc.Rewrote)
// leave alone. Over every corpus program, lowered and inlined, after every
// sub-pass of every round:
//   - the cached chains are the chains a fresh solve finds, for every
//     statement × used variable;
//   - a sub-pass that moved a CFG node or a definition site advanced Shape
//     itself, beyond what the variables it added account for, so no
//     def-moving sub-pass leans on Rewrote or on an incidental AddVar.
func TestShapeKeyedDataflowExact(t *testing.T) {
	rewroteOnly := 0 // sub-passes that advanced only the generation
	forEachCorpusProc(t, func(file string, p *il.Proc) {
		ac := analysis.NewCache()
		sub := subPasses(DefaultOptions(), ac, nil)
		before := checkChains(t, p.Name+" before", ac, p)
		for round := 0; round < maxRounds; round++ {
			changed := 0
			for _, s := range sub {
				shape, gen, nVars := p.Shape(), p.Generation(), len(p.Vars)
				changed += s.run(p)
				where := fmt.Sprintf("%s:%s round %d after %s", file, p.Name, round, s.name)
				after := checkChains(t, where, ac, p)
				if after != before && p.Shape()-shape <= uint64(len(p.Vars)-nVars) {
					t.Errorf("%s: moved CFG nodes or definitions without advancing the shape itself", where)
				}
				if p.Shape() == shape && p.Generation() != gen {
					rewroteOnly++
				}
				before = after
			}
			if changed == 0 {
				break
			}
		}
	})
	if rewroteOnly == 0 {
		t.Error("no sub-pass reported through Rewrote alone; the shape key was never exercised")
	}
}

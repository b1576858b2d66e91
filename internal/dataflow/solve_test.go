package dataflow

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/il"
)

// FuzzSolve checks the one solver against a round-robin reference on each
// of its three problems: reaching definitions, live variables and
// available copies, over random small procedures (fuzzProc) with
// structured loops, calls, loads and stores through a pointer, and gotos
// that leave code unreachable (seed corpus in testdata/fuzz, replayed by
// plain `go test`).
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzProc(data)
		p := compileProc(t, src, "f")
		a := analyze(t, p)
		lv := ComputeLiveness(p, a.Graph)
		for _, c := range []struct {
			name string
			pr   *Problem
		}{
			{"reaching definitions", &a.rd},
			{"live variables", &lv.live},
			{"available copies", availableCopies(a)},
		} {
			if diff := compareReference(a.Graph, c.pr); diff != "" {
				t.Fatalf("%s: %s\n%s\n%s", c.name, diff, src, p)
			}
		}
	})
}

// fuzzProc renders data as a C procedure f over the locals a, b and c,
// the global g and the address-taken local t, which q points at. Each
// byte picks the next construct, and zero once data runs out, so every
// input is a procedure that compiles.
func fuzzProc(data []byte) string {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	leaves := []string{"a", "b", "c", "g", "t", "n", "*q", "3"}
	scalars := []string{"a", "b", "c", "g", "t"}
	var expr func(depth int) string
	expr = func(depth int) string {
		if op := next(4); depth < 2 && op > 0 {
			return "(" + expr(depth+1) + [...]string{" + ", " - ", " < "}[op-1] + expr(depth+1) + ")"
		}
		return leaves[next(len(leaves))]
	}
	var b strings.Builder
	labels := 0
	var stmt func(depth int)
	block := func(depth int) {
		for n := next(4); n > 0; n-- {
			stmt(depth)
		}
	}
	assign := func(ind string) {
		fmt.Fprintf(&b, "%s%s = %s;\n", ind, scalars[next(len(scalars))], expr(0))
	}
	stmt = func(depth int) {
		ind := strings.Repeat("\t", depth+1)
		kind := next(9)
		if depth >= 3 && kind >= 3 {
			kind = 0
		}
		switch kind {
		case 0:
			assign(ind)
		case 1:
			fmt.Fprintf(&b, "%s*q = %s;\n", ind, expr(0))
		case 2:
			fmt.Fprintf(&b, "%s%s = h(%s);\n", ind, scalars[next(len(scalars))], expr(0))
		case 3:
			fmt.Fprintf(&b, "%sif (%s) {\n", ind, expr(0))
			block(depth + 1)
			fmt.Fprintf(&b, "%s} else {\n", ind)
			block(depth + 1)
			fmt.Fprintf(&b, "%s}\n", ind)
		case 4:
			fmt.Fprintf(&b, "%swhile (%s) {\n", ind, expr(0))
			block(depth + 1)
			fmt.Fprintf(&b, "%s}\n", ind)
		case 5:
			fmt.Fprintf(&b, "%sdo {\n", ind)
			block(depth + 1)
			fmt.Fprintf(&b, "%s} while (%s);\n", ind, expr(0))
		case 6:
			// A forward goto over an assignment that never runs.
			labels++
			fmt.Fprintf(&b, "%sgoto L%d;\n", ind, labels)
			assign(ind)
			fmt.Fprintf(&b, "L%d:\n", labels)
			assign(ind)
		case 7:
			// A backward goto: a loop the structured statements do not make.
			// Its body counts as one level deeper, so labels cannot chain
			// past the parser's nesting limit.
			labels++
			fmt.Fprintf(&b, "L%d:\n", labels)
			block(depth + 1)
			assign(ind)
			fmt.Fprintf(&b, "%sif (%s) goto L%d;\n", ind, expr(0), labels)
		case 8:
			fmt.Fprintf(&b, "%sif (%s) return %s;\n", ind, expr(0), expr(0))
		}
	}
	b.WriteString("int g;\nint h(int);\nint f(int n) {\n\tint a, b, c, t;\n\tint *q;\n\tq = &t;\n")
	block(0)
	b.WriteString("\treturn a + b + c;\n}\n")
	return b.String()
}

// availableCopies is copy propagation's problem over a's definitions:
// every scalar assignment is a copy, killed wherever its destination or a
// variable its source reads may be defined.
func availableCopies(a *Analysis) *Problem {
	var copies []*Def
	for _, d := range a.Defs {
		if _, ok := d.Node.Stmt.(*il.Assign); ok && !d.Ambiguous {
			copies = append(copies, d)
		}
	}
	pr := &Problem{Intersect: true}
	pr.Reset(len(a.Graph.Nodes), len(copies), 0)
	for ci, c := range copies {
		reads := AppendUsedVars(nil, c.Node.Stmt)
		pr.Gen[c.Node.ID].Add(ci)
		for id, defs := range a.defsAt {
			for _, d := range defs {
				if d.Var == c.Var || slices.Contains(reads, d.Var) {
					pr.Kill[id].Add(ci)
				}
			}
		}
	}
	pr.Solve(a.Graph)
	return pr
}

// compareReference solves pr's equations again the plainest way — map
// sets, every node swept in ID order until a sweep changes nothing — and
// names the first node where pr's solution differs. An intersection
// problem meets only the predecessors reachable from Entry, and the
// solver must leave the unreachable nodes empty.
func compareReference(g *cfg.Graph, pr *Problem) string {
	mapOf := func(s Set) map[int]bool {
		m := map[int]bool{}
		for i := 0; i < pr.width; i++ {
			if s.Has(i) {
				m[i] = true
			}
		}
		return m
	}
	reach := map[int]bool{g.Entry: true}
	for work := []int{g.Entry}; len(work) > 0; {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Nodes[n].Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	n := len(g.Nodes)
	in, out := make([]map[int]bool, n), make([]map[int]bool, n)
	meets, results, boundary := in, out, g.Entry
	if pr.Backward {
		meets, results, boundary = out, in, g.Exit
	}
	for id := range g.Nodes {
		meets[id], results[id] = map[int]bool{}, map[int]bool{}
		if pr.Intersect && reach[id] {
			for i := 0; i < pr.width; i++ {
				results[id][i] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for id, nd := range g.Nodes {
			m := map[int]bool{}
			if id == boundary {
				m = mapOf(pr.Boundary)
			} else {
				from := nd.Preds
				if pr.Backward {
					from = nd.Succs
				}
				first := true
				for _, x := range from {
					if pr.Intersect && !reach[x] {
						continue
					}
					switch {
					case first:
						m = maps.Clone(results[x])
					case pr.Intersect:
						maps.DeleteFunc(m, func(i int, _ bool) bool { return !results[x][i] })
					default:
						maps.Copy(m, results[x])
					}
					first = false
				}
			}
			r := mapOf(pr.Gen[id])
			kill := mapOf(pr.Kill[id])
			for i := range m {
				if !kill[i] {
					r[i] = true
				}
			}
			if !maps.Equal(m, meets[id]) || !maps.Equal(r, results[id]) {
				meets[id], results[id] = m, r
				changed = true
			}
		}
	}
	for id := range g.Nodes {
		gotIn, gotOut := mapOf(pr.In[id]), mapOf(pr.Out[id])
		if pr.Intersect && !reach[id] {
			if len(gotIn) != 0 || len(gotOut) != 0 {
				return fmt.Sprintf("unreachable node %d: in %v, out %v, want both empty", id, gotIn, gotOut)
			}
			continue
		}
		if !maps.Equal(gotIn, in[id]) || !maps.Equal(gotOut, out[id]) {
			return fmt.Sprintf("node %d: in %v, out %v; reference in %v, out %v", id, gotIn, gotOut, in[id], out[id])
		}
	}
	return ""
}

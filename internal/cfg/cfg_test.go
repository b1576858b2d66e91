package cfg

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/ctype"
	"repro/internal/il"
)

// heap is the nil arena: hand-built test IL is allocated node by node.
var heap *il.Arena

func assign(id il.VarID) *il.Assign {
	return &il.Assign{Dst: heap.VarRef(id, ctype.IntType), Src: heap.Int(0)}
}

func TestStraightLine(t *testing.T) {
	body := []il.Stmt{assign(0), assign(1), assign(2)}
	g, err := Build(body)
	if err != nil {
		t.Fatal(err)
	}
	// entry → a0 → a1 → a2 → exit
	n0 := g.NodeOf[body[0]]
	n1 := g.NodeOf[body[1]]
	n2 := g.NodeOf[body[2]]
	if len(n0.Succs) != 1 || n0.Succs[0] != n1.ID {
		t.Errorf("a0 succs %v", n0.Succs)
	}
	if len(n2.Succs) != 1 || n2.Succs[0] != g.Exit {
		t.Errorf("a2 succs %v", n2.Succs)
	}
}

// Build counts its nodes before it allocates them: the node list is
// exactly as long as it was sized, so it never grew (and the slab behind
// it, sized the same, never needed a second chunk).
func TestBuildSizesNodesExactly(t *testing.T) {
	loop := &il.DoLoop{IV: 0, Init: heap.Int(0), Limit: heap.Int(9), Step: heap.Int(1),
		Body: []il.Stmt{assign(1), &il.If{Cond: heap.VarRef(0, ctype.IntType), Then: []il.Stmt{assign(2)}}}}
	w := &il.While{Cond: heap.VarRef(0, ctype.IntType), Body: []il.Stmt{assign(3), &il.Goto{Target: ".L"}}}
	g, err := Build([]il.Stmt{assign(0), loop, w, &il.Label{Name: ".L"}, &il.Return{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 13 || cap(g.Nodes) != len(g.Nodes) {
		t.Errorf("len(Nodes) = %d, cap = %d; want both 13", len(g.Nodes), cap(g.Nodes))
	}
}

func TestIfElseDiamond(t *testing.T) {
	thenS := assign(1)
	elseS := assign(2)
	ifs := &il.If{Cond: heap.VarRef(0, ctype.IntType), Then: []il.Stmt{thenS}, Else: []il.Stmt{elseS}}
	after := assign(3)
	g, err := Build([]il.Stmt{ifs, after})
	if err != nil {
		t.Fatal(err)
	}
	c := g.NodeOf[ifs]
	if len(c.Succs) != 2 {
		t.Fatalf("cond succs %v", c.Succs)
	}
	a := g.NodeOf[after]
	if len(a.Preds) != 2 {
		t.Errorf("join preds %v", a.Preds)
	}
}

func TestIfNoElseFallthrough(t *testing.T) {
	thenS := assign(1)
	ifs := &il.If{Cond: heap.VarRef(0, ctype.IntType), Then: []il.Stmt{thenS}}
	after := assign(2)
	g, err := Build([]il.Stmt{ifs, after})
	if err != nil {
		t.Fatal(err)
	}
	a := g.NodeOf[after]
	// Preds: then-stmt and cond itself.
	if len(a.Preds) != 2 {
		t.Errorf("after preds %v", a.Preds)
	}
}

func TestWhileBackEdge(t *testing.T) {
	bodyS := assign(1)
	w := &il.While{Cond: heap.VarRef(0, ctype.IntType), Body: []il.Stmt{bodyS}}
	g, err := Build([]il.Stmt{w})
	if err != nil {
		t.Fatal(err)
	}
	c := g.NodeOf[w]
	b := g.NodeOf[bodyS]
	// body → cond back edge
	found := false
	for _, s := range b.Succs {
		if s == c.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("no back edge: body succs %v", b.Succs)
	}
	// cond → exit and cond → body
	if len(c.Succs) != 2 {
		t.Errorf("cond succs %v", c.Succs)
	}
}

func TestGotoResolution(t *testing.T) {
	lbl := &il.Label{Name: ".L1"}
	gt := &il.Goto{Target: ".L1"}
	skipped := assign(1)
	g, err := Build([]il.Stmt{gt, skipped, lbl})
	if err != nil {
		t.Fatal(err)
	}
	gn := g.NodeOf[gt]
	ln := g.NodeOf[lbl]
	if len(gn.Succs) != 1 || gn.Succs[0] != ln.ID {
		t.Errorf("goto succs %v, label node %d", gn.Succs, ln.ID)
	}
	if g.Reachable()[g.NodeOf[skipped].ID] {
		t.Error("statement after goto should be unreachable")
	}
}

func TestUndefinedLabel(t *testing.T) {
	if _, err := Build([]il.Stmt{&il.Goto{Target: ".nope"}}); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestReturnEdges(t *testing.T) {
	ret := &il.Return{}
	after := assign(1)
	g, err := Build([]il.Stmt{ret, after})
	if err != nil {
		t.Fatal(err)
	}
	rn := g.NodeOf[ret]
	if len(rn.Succs) != 1 || rn.Succs[0] != g.Exit {
		t.Errorf("return succs %v", rn.Succs)
	}
	if g.Reachable()[g.NodeOf[after].ID] {
		t.Error("code after return should be unreachable")
	}
}

func TestGotoIntoLoopDetected(t *testing.T) {
	// §5.2: a branch entering a loop body disqualifies DO conversion.
	inLbl := &il.Label{Name: ".in"}
	bodyS := assign(1)
	w := &il.While{Cond: heap.VarRef(0, ctype.IntType), Body: []il.Stmt{inLbl, bodyS}}
	gt := &il.Goto{Target: ".in"}
	g, err := Build([]il.Stmt{gt, w})
	if err != nil {
		t.Fatal(err)
	}
	bodySet := map[il.Stmt]bool{inLbl: true, bodyS: true}
	if !g.EntersBody(g.NodeOf[w], bodySet) {
		t.Error("goto into loop not detected")
	}
}

func TestCleanLoopNotEntered(t *testing.T) {
	bodyS := assign(1)
	w := &il.While{Cond: heap.VarRef(0, ctype.IntType), Body: []il.Stmt{bodyS}}
	g, err := Build([]il.Stmt{assign(2), w})
	if err != nil {
		t.Fatal(err)
	}
	if g.EntersBody(g.NodeOf[w], map[il.Stmt]bool{bodyS: true}) {
		t.Error("clean loop flagged as entered")
	}
}

func TestDoLoopEdges(t *testing.T) {
	bodyS := assign(1)
	d := &il.DoLoop{IV: 0, Init: heap.Int(0), Limit: heap.Int(9), Step: heap.Int(1), Body: []il.Stmt{bodyS}}
	g, err := Build([]il.Stmt{d})
	if err != nil {
		t.Fatal(err)
	}
	// Head evaluates bounds once, then feeds the latch; the latch controls
	// iteration (body or fallthrough).
	h := g.NodeOf[d]
	if len(h.Succs) != 1 {
		t.Fatalf("head succs %v", h.Succs)
	}
	latch := g.Nodes[h.Succs[0]]
	if !latch.Latch || latch.IVDef != d.IV {
		t.Fatalf("latch: %+v", latch)
	}
	if len(latch.Succs) != 2 {
		t.Errorf("latch succs %v", latch.Succs)
	}
	// Body's successor is the latch, not the head.
	b := g.NodeOf[bodyS]
	if len(b.Succs) != 1 || b.Succs[0] != latch.ID {
		t.Errorf("body succs %v", b.Succs)
	}
	// Init evaluation happens once: the latch's def must not reach the
	// head, which has a single outside predecessor.
	if len(h.Preds) != 1 {
		t.Errorf("head preds %v", h.Preds)
	}
}

// sameGraph reports where g differs from want, a graph built fresh from
// the same body: the nodes and their edges, NodeOf, Labels, RPO and
// reachability.
func sameGraph(g, want *Graph) string {
	if len(g.Nodes) != len(want.Nodes) || g.Entry != want.Entry || g.Exit != want.Exit {
		return "size"
	}
	for i, n := range g.Nodes {
		m := want.Nodes[i]
		if n.ID != i || n.Stmt != m.Stmt || n.IVDef != m.IVDef || n.Latch != m.Latch ||
			!slices.Equal(n.Succs, m.Succs) || !slices.Equal(n.Preds, m.Preds) {
			return fmt.Sprintf("node %d", i)
		}
	}
	if len(g.NodeOf) != len(want.NodeOf) {
		return "NodeOf"
	}
	for s, n := range want.NodeOf {
		if g.NodeOf[s] != g.Nodes[n.ID] {
			return fmt.Sprintf("NodeOf[%T]", s)
		}
	}
	if !maps.Equal(g.Labels, want.Labels) {
		return "Labels"
	}
	if !slices.Equal(g.RPO(), want.RPO()) || !slices.Equal(g.Reachable(), want.Reachable()) {
		return "RPO or reachability"
	}
	return ""
}

// Rebuilding one graph from a large body, a small one with a label and a
// return, and the large one again gives, each time, the graph Build
// gives: nothing of the previous body shows through the reused storage.
func TestRebuildMatchesBuild(t *testing.T) {
	large := []il.Stmt{assign(0)}
	for i := 0; i < 6; i++ {
		large = append(large,
			&il.DoLoop{IV: 0, Init: heap.Int(0), Limit: heap.Int(9), Step: heap.Int(1),
				Body: []il.Stmt{assign(1), &il.If{Cond: heap.VarRef(0, ctype.IntType), Then: []il.Stmt{assign(2)}, Else: []il.Stmt{assign(3)}}}},
			&il.While{Cond: heap.VarRef(0, ctype.IntType), Body: []il.Stmt{assign(3)}})
	}
	small := []il.Stmt{&il.Goto{Target: ".L"}, assign(1), &il.Label{Name: ".L"}, &il.Return{}, assign(2)}
	var g Graph
	for _, body := range [][]il.Stmt{large, small, large, small} {
		if err := g.Rebuild(body); err != nil {
			t.Fatal(err)
		}
		want, err := Build(body)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameGraph(&g, want); diff != "" {
			t.Fatalf("%d statements: rebuilt graph differs from Build at %s", len(body), diff)
		}
	}
	if err := g.Rebuild([]il.Stmt{&il.Goto{Target: ".nope"}}); err == nil {
		t.Fatal("Rebuild accepted a goto to an undefined label")
	}
}

// Rebuilding an unchanged body, and walking it in RPO and for
// reachability, allocates nothing once the first build sized the
// storage.
func TestRebuildAllocatesNothing(t *testing.T) {
	body := []il.Stmt{assign(0), &il.While{Cond: heap.VarRef(0, ctype.IntType),
		Body: []il.Stmt{assign(1), &il.If{Cond: heap.VarRef(1, ctype.IntType), Then: []il.Stmt{&il.Goto{Target: ".L"}}}}},
		&il.Label{Name: ".L"}, &il.Return{}}
	g, err := Build(body)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := g.Rebuild(body); err != nil {
			t.Fatal(err)
		}
		g.RPO()
		g.Reachable()
	})
	if allocs != 0 {
		t.Errorf("Rebuild + RPO + Reachable of an unchanged body: %.0f allocations, want 0", allocs)
	}
}

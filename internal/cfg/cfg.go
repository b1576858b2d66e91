// Package cfg builds a control-flow graph over the structured IL.
//
// Nodes are primitive statements (assignments, calls, returns, gotos,
// labels, vector statements) plus one condition node per structured
// statement (If/While/DoLoop/DoParallel). Edges follow the structured
// control flow, with goto edges resolved to their label nodes, so the graph
// is exact even for the irregular control flow C allows (§5.2: "branches
// can legally enter loops").
package cfg

import (
	"fmt"

	"repro/internal/il"
)

// Node is one CFG node.
type Node struct {
	ID    int
	Stmt  il.Stmt // the statement (for structured stmts, the owner)
	Succs []int
	Preds []int
	// IVDef is the induction variable this node defines, for DO-loop head
	// (initial value) and latch (per-iteration increment) nodes.
	IVDef il.VarID
	// Latch marks the per-iteration re-entry node of a DO loop.
	Latch bool
	// Inline storage for the first few edges; most nodes have at most two
	// successors and two predecessors, so edge wiring rarely allocates.
	succBuf [2]int
	predBuf [2]int
}

// Graph is the CFG of one procedure.
type Graph struct {
	Nodes []*Node
	Entry int
	Exit  int
	// NodeOf maps each IL statement to its node. Structured statements map
	// to their condition node.
	NodeOf map[il.Stmt]*Node
	// Labels maps label names to their nodes.
	Labels map[string]int
}

type builder struct {
	g           *Graph
	gotoFixups  []fixup
	returnNodes []int
	// nodeSlab is the chunk nodes are carved from; full chunks are
	// abandoned (still referenced via g.Nodes), keeping pointers stable.
	nodeSlab []Node
}

type fixup struct {
	from   int
	target string
}

// Build constructs the CFG for a procedure body.
func Build(body []il.Stmt) (*Graph, error) {
	g := &Graph{
		NodeOf: map[il.Stmt]*Node{},
		Labels: map[string]int{},
	}
	b := &builder{g: g}
	entry := b.newNode(nil)
	exit := b.newNode(nil)
	g.Entry, g.Exit = entry.ID, exit.ID

	exits := b.list(body, []int{entry.ID})
	for _, e := range exits {
		b.edge(e, exit.ID)
	}
	for _, r := range b.returnNodes {
		b.edge(r, exit.ID)
	}
	for _, f := range b.gotoFixups {
		target, ok := g.Labels[f.target]
		if !ok {
			return nil, fmt.Errorf("cfg: goto undefined label %q", f.target)
		}
		b.edge(f.from, target)
	}
	return g, nil
}

func (b *builder) newNode(s il.Stmt) *Node {
	if len(b.nodeSlab) == cap(b.nodeSlab) {
		c := 2 * cap(b.nodeSlab)
		if c < 64 {
			c = 64
		}
		if c > 1024 {
			c = 1024
		}
		b.nodeSlab = make([]Node, 0, c)
	}
	b.nodeSlab = append(b.nodeSlab, Node{ID: len(b.g.Nodes), Stmt: s, IVDef: il.NoVar})
	n := &b.nodeSlab[len(b.nodeSlab)-1]
	n.Succs = n.succBuf[:0]
	n.Preds = n.predBuf[:0]
	b.g.Nodes = append(b.g.Nodes, n)
	if s != nil {
		b.g.NodeOf[s] = n
	}
	return n
}

func (b *builder) edge(from, to int) {
	b.g.Nodes[from].Succs = append(b.g.Nodes[from].Succs, to)
	b.g.Nodes[to].Preds = append(b.g.Nodes[to].Preds, from)
}

// list wires a statement list; froms are the nodes that fall into it.
// It returns the nodes that fall out of its end.
func (b *builder) list(stmts []il.Stmt, froms []int) []int {
	for _, s := range stmts {
		froms = b.stmt(s, froms)
	}
	return froms
}

func (b *builder) stmt(s il.Stmt, froms []int) []int {
	connect := func(n *Node) {
		for _, f := range froms {
			b.edge(f, n.ID)
		}
	}
	switch n := s.(type) {
	case *il.Assign, *il.PredAssign, *il.Call, *il.VectorAssign, *il.SyncPost, *il.SyncWait:
		nd := b.newNode(s)
		connect(nd)
		return []int{nd.ID}
	case *il.Return:
		nd := b.newNode(s)
		connect(nd)
		// Edge to exit is added by Build via returned empty fallthrough:
		// wire directly here since Build only connects final exits.
		b.returnNodes = append(b.returnNodes, nd.ID)
		return nil
	case *il.Goto:
		nd := b.newNode(s)
		connect(nd)
		b.gotoFixups = append(b.gotoFixups, fixup{nd.ID, n.Target})
		return nil
	case *il.Label:
		nd := b.newNode(s)
		connect(nd)
		b.g.Labels[n.Name] = nd.ID
		return []int{nd.ID}
	case *il.If:
		cond := b.newNode(s)
		connect(cond)
		thenExits := b.list(n.Then, []int{cond.ID})
		if len(n.Else) == 0 {
			return append(thenExits, cond.ID)
		}
		elseExits := b.list(n.Else, []int{cond.ID})
		return append(thenExits, elseExits...)
	case *il.While:
		cond := b.newNode(s)
		connect(cond)
		bodyExits := b.list(n.Body, []int{cond.ID})
		for _, e := range bodyExits {
			b.edge(e, cond.ID)
		}
		return []int{cond.ID}
	case *il.DoLoop:
		return b.doLoop(s, n.IV, n.Body, froms, connect)
	case *il.DoParallel:
		return b.doLoop(s, n.IV, n.Body, froms, connect)
	}
	panic(fmt.Sprintf("cfg: unhandled statement %T", s))
}

// doLoop wires a DO loop as two nodes. The head evaluates Init/Limit/Step
// once and gives the IV its initial value; the latch is the per-iteration
// control point that advances the IV. Modeling the bounds evaluation
// outside the cycle is what lets reaching definitions treat Init as
// evaluated once (a DoLoop's own IV update must not reach its Init).
func (b *builder) doLoop(s il.Stmt, iv il.VarID, body []il.Stmt, froms []int, connect func(*Node)) []int {
	head := b.newNode(s)
	head.IVDef = iv
	connect(head)
	latch := b.newNode(nil)
	latch.IVDef = iv
	latch.Latch = true
	b.edge(head.ID, latch.ID)
	bodyExits := b.list(body, []int{latch.ID})
	for _, e := range bodyExits {
		b.edge(e, latch.ID)
	}
	return []int{latch.ID}
}

// Reachable returns the set of node IDs reachable from Entry.
func (g *Graph) Reachable() map[int]bool {
	seen := map[int]bool{}
	work := []int{g.Entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		work = append(work, g.Nodes[n].Succs...)
	}
	return seen
}

// RPO returns every node ID in reverse postorder from Entry, followed by
// the unreachable nodes in ID order. Forward dataflow sweeps that visit
// nodes in this order see each node's predecessors first wherever the
// graph is acyclic, so the worklist solver converges in a couple of
// passes instead of one fixpoint round per loop depth. Appending the
// unreachable tail keeps the solved sets defined at every node (queries
// walk all statements, reachable or not).
func (g *Graph) RPO() []int {
	order := make([]int, 0, len(g.Nodes))
	seen := make([]bool, len(g.Nodes))
	// Iterative DFS with an explicit edge cursor per frame: a node is
	// appended once all its successors are done (postorder), then the
	// whole sequence is reversed.
	type frame struct{ id, next int }
	stack := []frame{{g.Entry, 0}}
	seen[g.Entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Nodes[f.id].Succs) {
			s := g.Nodes[f.id].Succs[f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for id := range g.Nodes {
		if !seen[id] {
			order = append(order, id)
		}
	}
	return order
}

// EntersBody reports whether any edge from outside the given statement set
// targets a node inside it other than through the loop head. bodyStmts is
// the set of statements forming a loop body; head is the loop's condition
// node. This is the §5.2 check that no branch enters the loop.
func (g *Graph) EntersBody(head *Node, bodyStmts map[il.Stmt]bool) bool {
	inside := map[int]bool{}
	for s := range bodyStmts {
		if n, ok := g.NodeOf[s]; ok {
			inside[n.ID] = true
			// A DO loop's latch node belongs to the loop.
			for _, succ := range n.Succs {
				if g.Nodes[succ].Latch {
					inside[succ] = true
				}
			}
		}
	}
	for id := range inside {
		for _, p := range g.Nodes[id].Preds {
			if !inside[p] && p != head.ID {
				return true
			}
		}
	}
	return false
}

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

	// Storage Rebuild, RPO and Reachable reuse: the builder's tables and
	// the searches'.
	b     builder
	order []int
	seen  []bool
	stack []frame
	reach []bool
	work  []int
}

// builder wires the graph. The nodes that fall out of the statements
// wired so far sit on one shared stack: a statement consumes the nodes
// above its base as its predecessors and leaves its own fall-through
// nodes there, so wiring a list allocates nothing per statement. Edges
// are collected in order and handed to the nodes once all are known.
type builder struct {
	g     *Graph
	slab  []Node
	exits []int
	edges []edge
	deg   []int // successors of node i at i, predecessors at len(Nodes)+i
	adj   []int // the Succs and Preds backing
}

type edge struct{ from, to int }

// frame is one level of RPO's depth-first search: a node and the index
// of its next successor to visit.
type frame struct{ id, next int }

// reuse sets *s to n zero elements, reusing its backing array when that
// is large enough, and returns it.
func reuse[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// Build constructs the CFG for a procedure body: Rebuild on empty storage.
func Build(body []il.Stmt) (*Graph, error) {
	g := new(Graph)
	if err := g.Rebuild(body); err != nil {
		return nil, err
	}
	return g, nil
}

// Rebuild replaces g with the CFG of body. One walk counts the nodes and
// edges first, so the node slab, node list, statement map and edge lists
// are each sized once; each reuses g's storage where that is large enough
// (first use allocates it at the exact size). Every *Node, edge list and
// slice g handed out before is overwritten.
func (g *Graph) Rebuild(body []il.Stmt) error {
	// Every node but the exit has one edge out per time it falls through:
	// the entry and each statement once, a condition a second time, a DO
	// head once to its latch and the latch twice.
	nodes, edges, stmts, labels := 2, 1, 0, 0
	il.WalkStmts(body, func(s il.Stmt) bool {
		nodes++
		edges++
		stmts++
		switch s.(type) {
		case *il.If, *il.While:
			edges++
		case *il.DoLoop, *il.DoParallel:
			nodes++ // the latch
			edges += 2
		case *il.Label:
			labels++
		}
		return true
	})
	g.Nodes = reuse(&g.Nodes, nodes)[:0]
	if g.NodeOf == nil {
		g.NodeOf = make(map[il.Stmt]*Node, stmts)
		g.Labels = make(map[string]int, labels)
	}
	clear(g.NodeOf)
	clear(g.Labels)
	b := &g.b
	b.g = g
	reuse(&b.slab, nodes)
	b.exits = reuse(&b.exits, nodes)[:0]
	b.edges = reuse(&b.edges, edges)[:0]
	entry := b.newNode(nil)
	exit := b.newNode(nil)
	g.Entry, g.Exit = entry.ID, exit.ID

	b.exits = append(b.exits, entry.ID)
	b.list(body, 0)
	for _, e := range b.exits {
		b.edge(e, exit.ID)
	}
	// Returns and gotos leave nothing on the stack; their edges are added
	// here, in node order, once every label is known.
	for _, n := range g.Nodes {
		if _, ok := n.Stmt.(*il.Return); ok {
			b.edge(n.ID, exit.ID)
		}
	}
	for _, n := range g.Nodes {
		if gt, ok := n.Stmt.(*il.Goto); ok {
			target, ok := g.Labels[gt.Target]
			if !ok {
				return fmt.Errorf("cfg: goto undefined label %q", gt.Target)
			}
			b.edge(n.ID, target)
		}
	}
	b.wire()
	return nil
}

func (b *builder) newNode(s il.Stmt) *Node {
	n := &b.slab[len(b.g.Nodes)]
	*n = Node{ID: len(b.g.Nodes), Stmt: s, IVDef: il.NoVar}
	b.g.Nodes = append(b.g.Nodes, n)
	if s != nil {
		b.g.NodeOf[s] = n
	}
	return n
}

func (b *builder) edge(from, to int) { b.edges = append(b.edges, edge{from, to}) }

// wire gives every node its successor and predecessor lists, each in the
// order its edges were added, carved from one backing array.
func (b *builder) wire() {
	nodes := b.g.Nodes
	n := len(nodes)
	deg := reuse(&b.deg, 2*n)
	for _, e := range b.edges {
		deg[e.from]++
		deg[n+e.to]++
	}
	backing := reuse(&b.adj, 2*len(b.edges))
	off := 0
	for i, nd := range nodes {
		nd.Succs = backing[off : off : off+deg[i]]
		off += deg[i]
		nd.Preds = backing[off : off : off+deg[n+i]]
		off += deg[n+i]
	}
	for _, e := range b.edges {
		nodes[e.from].Succs = append(nodes[e.from].Succs, e.to)
		nodes[e.to].Preds = append(nodes[e.to].Preds, e.from)
	}
}

// list wires a statement list; the nodes above base on the exit stack
// fall into it, and on return the nodes that fall out of its end are
// there instead.
func (b *builder) list(stmts []il.Stmt, base int) {
	for _, s := range stmts {
		b.stmt(s, base)
	}
}

// enter creates s's node, wires every node above base to it and pops
// them.
func (b *builder) enter(s il.Stmt, base int) *Node {
	nd := b.newNode(s)
	for _, f := range b.exits[base:] {
		b.edge(f, nd.ID)
	}
	b.exits = b.exits[:base]
	return nd
}

// loopBack wires every node above base back to the loop's control node
// and leaves that node as the loop's one fall-through.
func (b *builder) loopBack(ctl *Node, base int) {
	for _, e := range b.exits[base:] {
		b.edge(e, ctl.ID)
	}
	b.exits = append(b.exits[:base], ctl.ID)
}

func (b *builder) stmt(s il.Stmt, base int) {
	switch n := s.(type) {
	case *il.Assign, *il.PredAssign, *il.Call, *il.VectorAssign, *il.SyncPost, *il.SyncWait:
		nd := b.enter(s, base)
		b.exits = append(b.exits, nd.ID)
	case *il.Return, *il.Goto:
		b.enter(s, base) // no fall-through; Build adds the edge out
	case *il.Label:
		nd := b.enter(s, base)
		b.g.Labels[n.Name] = nd.ID
		b.exits = append(b.exits, nd.ID)
	case *il.If:
		cond := b.enter(s, base)
		b.exits = append(b.exits, cond.ID)
		b.list(n.Then, base)
		// The condition falls into the else arm, or past the if.
		mid := len(b.exits)
		b.exits = append(b.exits, cond.ID)
		if len(n.Else) != 0 {
			b.list(n.Else, mid)
		}
	case *il.While:
		cond := b.enter(s, base)
		b.exits = append(b.exits, cond.ID)
		b.list(n.Body, base)
		b.loopBack(cond, base)
	case *il.DoLoop:
		b.doLoop(s, n.IV, n.Body, base)
	case *il.DoParallel:
		b.doLoop(s, n.IV, n.Body, base)
	default:
		panic(fmt.Sprintf("cfg: unhandled statement %T", s))
	}
}

// doLoop wires a DO loop as two nodes. The head evaluates Init/Limit/Step
// once and gives the IV its initial value; the latch is the per-iteration
// control point that advances the IV. Modeling the bounds evaluation
// outside the cycle is what lets reaching definitions treat Init as
// evaluated once (a DoLoop's own IV update must not reach its Init).
func (b *builder) doLoop(s il.Stmt, iv il.VarID, body []il.Stmt, base int) {
	head := b.enter(s, base)
	head.IVDef = iv
	latch := b.newNode(nil)
	latch.IVDef = iv
	latch.Latch = true
	b.edge(head.ID, latch.ID)
	b.exits = append(b.exits, latch.ID)
	b.list(body, base)
	b.loopBack(latch, base)
}

// Reachable reports, per node ID, whether the node is reachable from
// Entry. The result is g's own storage: the next Reachable or Rebuild
// overwrites it.
func (g *Graph) Reachable() []bool {
	seen := reuse(&g.reach, len(g.Nodes))
	work := append(reuse(&g.work, len(g.Nodes))[:0], g.Entry)
	seen[g.Entry] = true
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Nodes[n].Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// RPO returns every node ID in reverse postorder from Entry, followed by
// the unreachable nodes in ID order. Forward dataflow sweeps that visit
// nodes in this order see each node's predecessors first wherever the
// graph is acyclic, so the worklist solver converges in a couple of
// passes instead of one fixpoint round per loop depth. Appending the
// unreachable tail keeps the solved sets defined at every node (queries
// walk all statements, reachable or not). The order is g's own storage:
// the next RPO or Rebuild overwrites it.
func (g *Graph) RPO() []int {
	order, seen := reuse(&g.order, len(g.Nodes))[:0], reuse(&g.seen, len(g.Nodes))
	// Iterative DFS with an explicit edge cursor per frame: a node is
	// appended once all its successors are done (postorder), then the
	// whole sequence is reversed. Each node is pushed at most once, so the
	// stack never outgrows the graph.
	stack := append(reuse(&g.stack, len(g.Nodes))[:0], frame{g.Entry, 0})
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

package dataflow

import (
	"slices"

	"repro/internal/cfg"
)

// Problem is one bit-vector dataflow problem over a cfg.Graph and, once
// solved, its solution. Reaching definitions, live variables and copy
// propagation's available copies are its three instances.
//
// Each node's transfer is out = Gen ∪ (in − Kill), where in is the meet
// of its predecessors' Out (a forward problem) or its successors' In (a
// backward one); the boundary node, Entry or Exit, meets Boundary
// instead. A union problem starts every node at ∅ and visits every node,
// reachable or not. An intersection problem starts the nodes reachable
// from Entry at ⊤, meets an unreachable neighbor as ⊤ (it never runs) and
// leaves an unreachable node's sets empty.
//
// The sets are carved from one slab the Problem owns: Reset reuses it
// where it is large enough, so re-solving a procedure no larger than
// before allocates nothing.
type Problem struct {
	// Backward problems flow from successors to predecessors.
	Backward bool
	// Intersect meets by intersection (a must-problem) instead of union.
	Intersect bool

	// Gen and Kill are each node's transfer, filled in by the client after
	// Reset; In and Out are its solved entry and exit sets.
	Gen, Kill, In, Out []Set
	// Boundary is what the boundary node meets.
	Boundary Set

	width   int
	scratch Set
	dirty   Set // the worklist, one bit per node
	words   []uint64
	sets    []Set
}

// Reset sizes p to nNodes nodes of width-bit sets, every one empty, and
// returns extra more empty sets of the same width, carved from the same
// slab, for the client's own tables. The slab ends in the solver's
// worklist.
func (p *Problem) Reset(nNodes, width, extra int) []Set {
	// Capped (three-index) sets, so growing one reallocates it instead of
	// clobbering its neighbor.
	n, words := 4*nNodes+2+extra, (width+63)/64
	b, sets := reuse(&p.words, n*words+(nNodes+63)/64), reuse(&p.sets, n)
	for i := range sets {
		sets[i] = Set(b[i*words : (i+1)*words : (i+1)*words])
	}
	p.Gen = sets[:nNodes:nNodes]
	p.Kill = sets[nNodes : 2*nNodes : 2*nNodes]
	p.In = sets[2*nNodes : 3*nNodes : 3*nNodes]
	p.Out = sets[3*nNodes : 4*nNodes : 4*nNodes]
	p.Boundary, p.scratch = sets[4*nNodes], sets[4*nNodes+1]
	p.dirty = Set(b[n*words:])
	p.width = width
	return sets[4*nNodes+2:]
}

// Solve runs p to its fixpoint over g, a worklist over g.RPO (reversed
// for a backward problem): a node is revisited only when a neighbor it
// meets changed. The fixpoint is the least one for union and the greatest
// one for intersection, whatever the visiting order.
func (p *Problem) Solve(g *cfg.Graph) {
	order := g.RPO()
	var reach []bool
	if p.Intersect {
		reach = g.Reachable()
	}
	meets, results := p.In, p.Out
	boundary := g.Entry
	if p.Backward {
		meets, results = p.Out, p.In
		boundary = g.Exit
	}
	dirty := p.dirty
	for id := range g.Nodes {
		if reach == nil || reach[id] {
			dirty.Add(id)
			if p.Intersect {
				results[id].fill(p.width)
			}
		}
	}
	for again := true; again; {
		again = false
		for i := range order {
			id := order[i]
			if p.Backward {
				id = order[len(order)-1-i]
			}
			if !dirty.Has(id) {
				continue
			}
			dirty.remove(id)
			n := g.Nodes[id]
			from, to := n.Preds, n.Succs
			if p.Backward {
				from, to = to, from
			}
			m := meets[id]
			if id == boundary {
				copy(m, p.Boundary)
			} else {
				p.meet(m, from, results, reach)
			}
			t := p.scratch
			copy(t, m)
			t.andNot(p.Kill[id])
			t.Or(p.Gen[id])
			if slices.Equal(t, results[id]) {
				continue
			}
			copy(results[id], t)
			for _, s := range to {
				if !dirty.Has(s) && (reach == nil || reach[s]) {
					dirty.Add(s)
					again = true
				}
			}
		}
	}
}

// meet sets m to the meet of the neighbors' sets, skipping the
// unreachable ones (reach is nil for a union problem).
func (p *Problem) meet(m Set, from []int, sets []Set, reach []bool) {
	clear(m)
	first := true
	for _, x := range from {
		switch {
		case reach != nil && !reach[x]:
			continue
		case p.Intersect && !first:
			m.and(sets[x])
		default:
			m.Or(sets[x])
		}
		first = false
	}
}

// ---------------------------------------------------------------- sets

// Set is a bitset, one bit per definition, variable or copy.
type Set []uint64

// Add puts i in b.
func (b Set) Add(i int) { b[i/64] |= 1 << uint(i%64) }

func (b Set) remove(i int) { b[i/64] &^= 1 << uint(i%64) }

// Has reports whether i is in b.
func (b Set) Has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// Or adds every member of o to b.
func (b Set) Or(o Set) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b Set) and(o Set) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b Set) andNot(o Set) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// fill makes b every member below width.
func (b Set) fill(width int) {
	for i := range b {
		b[i] = ^uint64(0) >> max(0, 64*(i+1)-width)
	}
}

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

package opt

import (
	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/il"
)

// eliminateDeadCode removes assignments to variables that are not live
// afterwards ("dead, not unreachable, code" — §9). Inlining makes this
// crucial: parameter-binding temporaries die as soon as substitution and
// constant propagation run. Returns the number of statements removed. A
// nil cache re-solves every round. A removal can leave another assignment
// dead; the scalar fixpoint's next round removes it.
func eliminateDeadCode(p *il.Proc, ac *analysis.Cache, sc *scratch) int {
	a, lv, err := ac.DataflowLiveness(p)
	if err != nil {
		return 0
	}
	needed := markNeededDefs(p, a, sc)
	removed := 0
	p.Body = il.RewriteStmts(p.Body, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		dead := false
		switch n := s.(type) {
		case *il.Assign:
			if dst, ok := n.Dst.(*il.VarRef); ok {
				unused := !lv.LiveOut(s, dst.ID) || !needed[s]
				dead = unused && !p.Vars[dst.ID].IsVolatile() && !p.HasVolatile(n.Src)
			}
		case *il.If:
			dead = len(n.Then) == 0 && len(n.Else) == 0 && !p.HasVolatile(n.Cond)
		case *il.DoLoop:
			dead = len(n.Body) == 0 && !lv.LiveOut(s, n.IV)
		case *il.DoParallel:
			dead = len(n.Body) == 0 && !lv.LiveOut(s, n.IV)
		}
		if dead {
			removed++
		}
		return nil, dead
	})
	return p.Changed(removed)
}

// markNeededDefs runs the mark phase of mark-sweep dead-code elimination:
// essential statements (calls, stores, returns, control conditions, writes
// to externally visible variables) seed a worklist, and every definition
// transitively feeding an essential use is marked. Pure assignments whose
// statement never gets marked are dead even when they feed themselves in a
// cycle (i = i + 1 with no other use). The marked set is sc's, cleared
// here.
func markNeededDefs(p *il.Proc, a *dataflow.Analysis, sc *scratch) map[il.Stmt]bool {
	essential := func(s il.Stmt) bool {
		switch n := s.(type) {
		case *il.Call, *il.Return, *il.PredAssign, *il.VectorAssign, *il.If, *il.While,
			*il.DoLoop, *il.DoParallel, *il.Goto, *il.Label:
			return true
		case *il.Assign:
			if il.IsStore(s) {
				return true
			}
			dst := n.Dst.(*il.VarRef)
			v := &p.Vars[dst.ID]
			if v.Escapes() || v.IsVolatile() {
				return true
			}
			return p.HasVolatile(n.Src)
		}
		return false
	}

	if sc.marked == nil {
		sc.marked = map[il.Stmt]bool{}
	}
	marked, work := sc.marked, sc.work[:0]
	clear(marked)
	need := func(s il.Stmt) {
		if s != nil && !marked[s] {
			marked[s] = true
			work = append(work, s)
		}
	}
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if essential(s) {
			need(s)
		}
		return true
	})
	var used []il.VarID
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		used = dataflow.AppendUsedVars(used[:0], s)
		for _, v := range used {
			a.ForEachReachingDef(s, v, func(d *dataflow.Def) {
				need(d.Node.Stmt)
			})
		}
	}
	sc.work = work
	return marked
}

// propagateCopies replaces uses of a variable with the source of a copy
// assignment `v = w`, `v = &x`, or `v = <pure expression>` when that copy
// is available on every path (the classic available-copies dataflow,
// extended to forward propagation of load-free expressions — the paper's
// "propagating address constants", which is safe because strength
// reduction and subexpression elimination undo any recomputation it
// introduces, §11). Returns the number of rewrites performed. A nil cache
// re-solves every round.
func propagateCopies(p *il.Proc, ac *analysis.Cache, sc *scratch) int {
	total := 0
	for {
		n := copyPropOnce(p, ac, sc)
		total += n
		if n == 0 {
			return total
		}
	}
}

// copy instance: statement assigning v = <pure expr>, whose source
// variables are scratch.srcVars[lo:hi]. next is 1 + the index of the next
// copy to the same destination (0: none).
type copyInst struct {
	stmt         *il.Assign
	dst          il.VarID
	src          il.Expr
	lo, hi, next int
}

// scratch is the copy-propagation and dead-code storage of one Optimize
// call. Each copyPropOnce and eliminateDeadCode clears what it uses and re-carves
// it, so the scalar fixpoint's repeated solves allocate for the largest
// only. Optimize runs on one procedure on one goroutine, so it is never
// shared.
type scratch struct {
	copies    []copyInst
	copyIdx   map[il.Stmt]int
	srcVars   []il.VarID // every copy's source variables
	firstCopy []int      // per variable, 1 + the index of its first copy
	words     []uint64   // every cpset of one copyPropOnce
	sets      []cpset
	marked    map[il.Stmt]bool // dead-code elimination's mark set
	work      []il.Stmt
}

// copyExprLimit bounds the size of propagated expressions.
const copyExprLimit = 16

func copyPropOnce(p *il.Proc, ac *analysis.Cache, sc *scratch) int {
	a, err := ac.Dataflow(p)
	if err != nil {
		return 0
	}
	g := a.Graph
	ar := p.Arena()

	// Collect copy instances: pure, load-free, volatile-free sources of
	// bounded size that do not reference their own destination.
	if sc.copyIdx == nil {
		sc.copyIdx = map[il.Stmt]int{}
	}
	copies, copyIdx, srcVars := sc.copies[:0], sc.copyIdx, sc.srcVars[:0]
	clear(copyIdx)
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		as, ok := s.(*il.Assign)
		if !ok {
			return true
		}
		dst, ok := as.Dst.(*il.VarRef)
		if !ok || p.Vars[dst.ID].IsVolatile() {
			return true
		}
		nodes := 0
		pure := true
		lo := len(srcVars)
		il.WalkExpr(as.Src, func(x il.Expr) bool {
			nodes++
			switch n := x.(type) {
			case *il.Load:
				pure = false
			case *il.VarRef:
				if p.Vars[n.ID].IsVolatile() || n.ID == dst.ID {
					pure = false
				}
				srcVars = append(srcVars, n.ID)
			}
			return pure
		})
		if !pure || nodes > copyExprLimit {
			srcVars = srcVars[:lo]
			return true
		}
		copyIdx[s] = len(copies)
		copies = append(copies, copyInst{as, dst.ID, as.Src, lo, len(srcVars), 0})
		return true
	})
	sc.copies, sc.srcVars = copies, srcVars
	if len(copies) == 0 {
		return 0
	}

	// Every set of this call comes from one slab: killByVar, gen, kill,
	// in and out, then clobberKill, all and the two scratch sets.
	// killByVar[v] is the set of copies invalidated by a definition of v
	// (v is their destination or a source operand); clobberKill is its
	// union over the clobberable (address-taken/global/static) variables.
	// firstCopy and next chain each variable's copies in copy-index order.
	nCopies, nVars, nNodes := len(copies), len(p.Vars), len(g.Nodes)
	sets := sc.carve(nVars+4*nNodes+4, nCopies)
	killByVar, sets := sets[:nVars], sets[nVars:]
	gen, kill := sets[:nNodes], sets[nNodes:2*nNodes]
	in, out := sets[2*nNodes:3*nNodes], sets[3*nNodes:4*nNodes]
	clobberKill, all := sets[4*nNodes], sets[4*nNodes+1]
	inScratch, outScratch := sets[4*nNodes+2], sets[4*nNodes+3]
	firstCopy := reuse(&sc.firstCopy, nVars)
	for ci := nCopies - 1; ci >= 0; ci-- {
		c := &copies[ci]
		c.next, firstCopy[c.dst] = firstCopy[c.dst], ci+1
		killByVar[c.dst].set(ci)
		for _, sv := range srcVars[c.lo:c.hi] {
			killByVar[sv].set(ci)
		}
	}
	for i := range p.Vars {
		if p.Vars[i].Escapes() {
			clobberKill.or(killByVar[i])
		}
	}

	// gen/kill bitsets over copies.
	for id, n := range g.Nodes {
		if s := n.Stmt; s != nil {
			if dv := il.DefinedVar(s); dv != il.NoVar {
				kill[id].or(killByVar[dv])
			}
			clobbers := false
			switch s.(type) {
			case *il.Call, *il.VectorAssign:
				clobbers = true
			case *il.Assign:
				clobbers = il.IsStore(s)
			}
			if clobbers {
				kill[id].or(clobberKill)
			}
			if ci, ok := copyIdx[s]; ok {
				// gen is applied after kill, so the copy survives its own
				// destination-kill (a copy never defines its source).
				gen[id].set(ci)
			}
		}
		if n.IVDef != il.NoVar {
			kill[id].or(killByVar[n.IVDef])
		}
	}

	// Forward must-analysis: in[n] = ∩ out[preds]; entry = ∅. Non-entry
	// nodes start at ⊤ (all copies); the Gauss–Seidel sweep converges to
	// the same greatest fixpoint the map-based sets produced.
	reach := g.Reachable()
	for i := 0; i < nCopies; i++ {
		all.set(i)
	}
	for i := 0; i < nNodes; i++ {
		if i != g.Entry {
			copy(in[i], all)
			copy(out[i], all)
		}
	}
	changed := true
	for changed {
		changed = false
		for id, n := range g.Nodes {
			if !reach[id] || id == g.Entry {
				continue
			}
			first := true
			for _, pr := range n.Preds {
				if !reach[pr] {
					continue
				}
				if first {
					copy(inScratch, out[pr])
					first = false
				} else {
					inScratch.and(out[pr])
				}
			}
			if first {
				inScratch.clear()
			}
			copy(outScratch, inScratch)
			outScratch.andNot(kill[id])
			outScratch.or(gen[id])
			if !inScratch.equal(in[id]) || !outScratch.equal(out[id]) {
				copy(in[id], inScratch)
				copy(out[id], outScratch)
				changed = true
			}
		}
	}

	// Rewrite uses with available copies.
	rewrites := 0
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		node, ok := g.NodeOf[s]
		if !ok || !reach[node.ID] {
			return true
		}
		avail := in[node.ID]
		replace := func(x il.Expr) il.Expr {
			v, ok := x.(*il.VarRef)
			if !ok {
				return x
			}
			// Iterate in copy-index order for determinism when several
			// copies of the same destination are available.
			for ci := firstCopy[v.ID] - 1; ci >= 0; ci = copies[ci].next - 1 {
				if avail.get(ci) && copies[ci].stmt != s {
					rewrites++
					return copies[ci].src
				}
			}
			return x
		}
		ar.RewriteStmtExprs(s, replace)
		return true
	})
	// Only uses were replaced: every statement and definition site stayed
	// where it was, so the reaching definitions are still exact.
	return p.Rewrote(rewrites)
}

// cpset is a bitset over copy indices, carved from a shared slab.
type cpset []uint64

func (b cpset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b cpset) get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

func (b cpset) or(o cpset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b cpset) and(o cpset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b cpset) andNot(o cpset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b cpset) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b cpset) equal(o cpset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// carve returns n empty sets of the given width from sc's one word slab
// (capped sub-slices, so growth cannot clobber a neighbor). The slab and
// the set headers are reused where they are large enough.
func (sc *scratch) carve(n, width int) []cpset {
	words := (width + 63) / 64
	b, sets := reuse(&sc.words, n*words), reuse(&sc.sets, n)
	for i := range sets {
		sets[i] = cpset(b[i*words : (i+1)*words : (i+1)*words])
	}
	return sets
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

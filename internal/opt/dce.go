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
// nil cache re-solves every round.
func eliminateDeadCode(p *il.Proc, ac *analysis.Cache) int {
	total := 0
	for {
		n := dceOnce(p, ac)
		total += n
		if n == 0 {
			return total
		}
	}
}

func dceOnce(p *il.Proc, ac *analysis.Cache) int {
	a, lv, err := ac.DataflowLiveness(p)
	if err != nil {
		return 0
	}
	needed := markNeededDefs(p, a)
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
// cycle (i = i + 1 with no other use).
func markNeededDefs(p *il.Proc, a *dataflow.Analysis) map[il.Stmt]bool {
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

	marked := map[il.Stmt]bool{}
	var work []il.Stmt
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
func propagateCopies(p *il.Proc, ac *analysis.Cache) int {
	total := 0
	for {
		n := copyPropOnce(p, ac)
		total += n
		if n == 0 {
			return total
		}
	}
}

// copy instance: statement assigning v = <pure expr>.
type copyInst struct {
	stmt    *il.Assign
	dst     il.VarID
	src     il.Expr
	srcVars []il.VarID
}

// copyExprLimit bounds the size of propagated expressions.
const copyExprLimit = 16

func copyPropOnce(p *il.Proc, ac *analysis.Cache) int {
	a, err := ac.Dataflow(p)
	if err != nil {
		return 0
	}
	g := a.Graph
	ar := p.Arena()

	// Collect copy instances: pure, load-free, volatile-free sources of
	// bounded size that do not reference their own destination.
	var copies []copyInst
	copyIdx := map[il.Stmt]int{}
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
		var srcVars []il.VarID
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
			return true
		}
		copyIdx[s] = len(copies)
		copies = append(copies, copyInst{as, dst.ID, as.Src, srcVars})
		return true
	})
	if len(copies) == 0 {
		return 0
	}

	// killByVar[v] is the set of copies invalidated by a definition of v
	// (v is their destination or a source operand); clobberKill is its
	// union over the clobberable (address-taken/global/static) variables.
	// copiesByDst[v] lists v's copies in copy-index order.
	nCopies := len(copies)
	killByVar := make([]cpset, len(p.Vars))
	copiesByDst := make([][]int, len(p.Vars))
	killsOf := func(v il.VarID) cpset {
		if killByVar[v] == nil {
			killByVar[v] = newCpset(nCopies)
		}
		return killByVar[v]
	}
	for ci := range copies {
		c := &copies[ci]
		killsOf(c.dst).set(ci)
		copiesByDst[c.dst] = append(copiesByDst[c.dst], ci)
		for _, sv := range c.srcVars {
			killsOf(sv).set(ci)
		}
	}
	clobberKill := newCpset(nCopies)
	for i := range p.Vars {
		v := &p.Vars[i]
		if v.Escapes() && killByVar[i] != nil {
			clobberKill.or(killByVar[i])
		}
	}

	// gen/kill bitsets over copies.
	nNodes := len(g.Nodes)
	gen := newCpsetSlab(nNodes, nCopies)
	kill := newCpsetSlab(nNodes, nCopies)
	for id, n := range g.Nodes {
		if s := n.Stmt; s != nil {
			if dv := il.DefinedVar(s); dv != il.NoVar && killByVar[dv] != nil {
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
		if n.IVDef != il.NoVar && killByVar[n.IVDef] != nil {
			kill[id].or(killByVar[n.IVDef])
		}
	}

	// Forward must-analysis: in[n] = ∩ out[preds]; entry = ∅. Non-entry
	// nodes start at ⊤ (all copies); the Gauss–Seidel sweep converges to
	// the same greatest fixpoint the map-based sets produced.
	in := newCpsetSlab(nNodes, nCopies)
	out := newCpsetSlab(nNodes, nCopies)
	reach := g.Reachable()
	all := newCpset(nCopies)
	for i := 0; i < nCopies; i++ {
		all.set(i)
	}
	for i := 0; i < nNodes; i++ {
		if i != g.Entry {
			copy(in[i], all)
			copy(out[i], all)
		}
	}
	inScratch := newCpset(nCopies)
	outScratch := newCpset(nCopies)
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
			for _, ci := range copiesByDst[v.ID] {
				if avail.get(ci) && copies[ci].stmt != s {
					rewrites++
					return ar.CloneExpr(copies[ci].src)
				}
			}
			return x
		}
		switch n := s.(type) {
		case *il.Assign:
			if ld, ok := n.Dst.(*il.Load); ok {
				ld.Addr = ar.RewriteExpr(ld.Addr, replace)
			}
			n.Src = ar.RewriteExpr(n.Src, replace)
		default:
			ar.RewriteStmtExprs(s, replace)
		}
		return true
	})
	// Only uses were replaced: every statement and definition site stayed
	// where it was, so the reaching definitions are still exact.
	return p.Rewrote(rewrites)
}

// cpset is a bitset over copy indices, carved from a shared slab.
type cpset []uint64

func newCpset(n int) cpset { return make(cpset, (n+63)/64) }

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

// newCpsetSlab carves n sets of the given width from one backing
// allocation (capped sub-slices, so growth cannot clobber a neighbor).
func newCpsetSlab(n, width int) []cpset {
	words := (width + 63) / 64
	backing := make([]uint64, n*words)
	out := make([]cpset, n)
	for i := range out {
		out[i] = cpset(backing[i*words : (i+1)*words : (i+1)*words])
	}
	return out
}

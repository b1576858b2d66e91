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
	srcVars   []il.VarID       // every copy's source variables
	firstCopy []int            // per variable, 1 + the index of its first copy
	avail     dataflow.Problem // available copies
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

	// Available copies: a forward intersection problem over copy indices,
	// its entry boundary ∅. killByVar[v] is the set of copies invalidated
	// by a definition of v (v is their destination or a source operand);
	// clobberKill is its union over the clobberable (address-taken/global/
	// static) variables. firstCopy and next chain each variable's copies
	// in copy-index order.
	nVars := len(p.Vars)
	av := &sc.avail
	av.Intersect = true
	own := av.Reset(len(g.Nodes), len(copies), nVars+1)
	killByVar, clobberKill := own[:nVars], own[nVars]
	gen, kill := av.Gen, av.Kill
	sc.firstCopy = append(sc.firstCopy[:0], make([]int, nVars)...)
	firstCopy := sc.firstCopy
	for ci := len(copies) - 1; ci >= 0; ci-- {
		c := &copies[ci]
		c.next, firstCopy[c.dst] = firstCopy[c.dst], ci+1
		killByVar[c.dst].Add(ci)
		for _, sv := range srcVars[c.lo:c.hi] {
			killByVar[sv].Add(ci)
		}
	}
	for i := range p.Vars {
		if p.Vars[i].Escapes() {
			clobberKill.Or(killByVar[i])
		}
	}
	for id, n := range g.Nodes {
		if s := n.Stmt; s != nil {
			if dv := il.DefinedVar(s); dv != il.NoVar {
				kill[id].Or(killByVar[dv])
			}
			clobbers := false
			switch s.(type) {
			case *il.Call, *il.VectorAssign:
				clobbers = true
			case *il.Assign:
				clobbers = il.IsStore(s)
			}
			if clobbers {
				kill[id].Or(clobberKill)
			}
			if ci, ok := copyIdx[s]; ok {
				// gen is applied after kill, so the copy survives its own
				// destination-kill (a copy never defines its source).
				gen[id].Add(ci)
			}
		}
		if n.IVDef != il.NoVar {
			kill[id].Or(killByVar[n.IVDef])
		}
	}
	av.Solve(g)

	// Rewrite uses with available copies. An unreachable statement has
	// none: the solver leaves its set empty.
	rewrites := 0
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		node, ok := g.NodeOf[s]
		if !ok {
			return true
		}
		avail := av.In[node.ID]
		replace := func(x il.Expr) il.Expr {
			v, ok := x.(*il.VarRef)
			if !ok {
				return x
			}
			// Iterate in copy-index order for determinism when several
			// copies of the same destination are available.
			for ci := firstCopy[v.ID] - 1; ci >= 0; ci = copies[ci].next - 1 {
				if avail.Has(ci) && copies[ci].stmt != s {
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

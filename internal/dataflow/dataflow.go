// Package dataflow computes reaching definitions, use-def chains, and live
// variables over the IL control-flow graph.
//
// The paper's scalar optimizer drives everything off use-def chains (§5.2:
// while→DO conversion "should occur ... immediately after use-def chains
// have been constructed"). The chains here are exact for scalar variables
// and conservative for memory: a call may define every global, static and
// address-taken variable; a store through a pointer may define every
// address-taken or global variable.
//
// Reanalyze and Recompute re-solve into a solution's own storage, so a
// solution is valid until the next re-solve of it.
package dataflow

import (
	"math/bits"

	"repro/internal/cfg"
	"repro/internal/il"
)

// Def is one definition point.
type Def struct {
	ID   int
	Node *cfg.Node
	Var  il.VarID
	// Ambiguous marks may-defs (call clobbers, stores through pointers,
	// and the synthetic entry definitions of uninitialized variables).
	Ambiguous bool
	// Entry marks the synthetic definition at procedure entry (parameter
	// values and uninitialized locals).
	Entry bool
}

// Analysis holds the dataflow results for one procedure.
type Analysis struct {
	Proc  *il.Proc
	Graph *cfg.Graph

	// Defs point into one slab sized by a counting pass, so the pointers
	// are stable; only the while→DO splice adds a def after it.
	Defs []*Def
	// defsOf is indexed by VarID (grown on demand for variables created
	// after the analysis, e.g. while→DO dummy IVs).
	defsOf [][]*Def
	// in[n] is the bitset of defs reaching node n's entry; gen, kill, in
	// and out are carved from one backing allocation.
	in  []bitset
	out []bitset
	// gen/kill per node.
	gen, kill []bitset
	// defsAt lists the defs performed by each node.
	defsAt [][]*Def
	// clobbers caches the may-define set of a call or store (the
	// address-taken, global and static variables), computed once per
	// analysis instead of once per clobbering statement.
	clobbers []il.VarID
	// defMask lazily caches, per variable, the bitset of its def IDs, so
	// chain queries intersect words instead of probing def-by-def. Masks
	// are carved from maskBacking, whose first maskUsed words are taken.
	defMask     []bitset
	maskBacking []uint64
	maskUsed    int

	// Storage a re-solve reuses: the def slab, defsOf's backing and
	// counts, the bitset slab (gen, kill, in, out and the solver's two
	// scratch sets) and the solver's dirty flags.
	slab     []Def
	defsBuf  []*Def
	counts   []int
	setWords []uint64
	sets     []bitset
	dirty    []bool
}

// Analyze builds the CFG and reaching-definition chains for p: Reanalyze
// on empty storage. Every table is sized to the procedure up front, so
// one solve costs the same number of allocations however large p is.
func Analyze(p *il.Proc) (*Analysis, error) {
	a := new(Analysis)
	if err := a.Reanalyze(p); err != nil {
		return nil, err
	}
	return a, nil
}

// Reanalyze replaces a with the CFG and reaching-definition chains of p,
// solved in a's own storage: each table is reused where it is large
// enough and allocated at its exact size where it is not, so re-solving a
// procedure no larger than before allocates nothing. Every *Def, node and
// set a handed out before is overwritten.
func (a *Analysis) Reanalyze(p *il.Proc) error {
	if a.Graph == nil {
		a.Graph = new(cfg.Graph)
	}
	if err := a.Graph.Rebuild(p.Body); err != nil {
		return err
	}
	a.Proc = p
	reuse(&a.defsOf, len(p.Vars))
	a.collectClobbers()
	a.collectDefs()
	a.solve()
	return nil
}

// collectClobbers precomputes the variables a memory write or call might
// define.
func (a *Analysis) collectClobbers() {
	a.clobbers = reuse(&a.clobbers, len(a.Proc.Vars))[:0]
	for i := range a.Proc.Vars {
		if a.Proc.Vars[i].Escapes() {
			a.clobbers = append(a.clobbers, il.VarID(i))
		}
	}
}

// nodeDefs calls def for each definition node n performs, in def-ID
// order. It is the one statement of what a node defines: collectDefs runs
// it once to count and once to emit.
func (a *Analysis) nodeDefs(n *cfg.Node, def func(v il.VarID, ambiguous bool)) {
	// DO-loop heads define the IV's initial value; latches define its
	// per-iteration advance.
	if n.IVDef != il.NoVar {
		def(n.IVDef, false)
	}
	clobber := func() {
		for _, v := range a.clobbers {
			def(v, true)
		}
	}
	switch s := n.Stmt.(type) {
	case *il.Assign:
		if v, ok := s.Dst.(*il.VarRef); ok {
			def(v.ID, false)
		} else {
			clobber()
		}
	case *il.PredAssign, *il.VectorAssign:
		// A predicated or vector store may or may not write memory; either
		// way it only ever clobbers, never defines, a scalar.
		clobber()
	case *il.Call:
		if s.Dst != il.NoVar {
			def(s.Dst, false)
		}
		clobber()
	}
}

// indexDefs builds defsOf from the collected Defs, carving the per-var
// slices out of one backing array (capped, so a later append — the
// while→DO splice — reallocates instead of clobbering a neighbor).
func (a *Analysis) indexDefs() {
	counts := reuse(&a.counts, len(a.defsOf))
	for _, d := range a.Defs {
		counts[d.Var]++
	}
	backing := reuse(&a.defsBuf, len(a.Defs))
	off := 0
	for v, c := range counts {
		a.defsOf[v] = backing[off : off : off+c]
		off += c
	}
	for _, d := range a.Defs {
		a.defsOf[d.Var] = append(a.defsOf[d.Var], d)
	}
}

func (a *Analysis) collectDefs() {
	nodes := a.Graph.Nodes
	vars := a.Proc.Vars
	nDefs := len(vars) // the entry definitions
	for _, n := range nodes {
		a.nodeDefs(n, func(il.VarID, bool) { nDefs++ })
	}
	slab := reuse(&a.slab, nDefs)
	a.Defs = reuse(&a.Defs, nDefs)[:0]
	add := func(n *cfg.Node, v il.VarID, ambiguous, entry bool) {
		d := &slab[len(a.Defs)]
		*d = Def{ID: len(a.Defs), Node: n, Var: v, Ambiguous: ambiguous, Entry: entry}
		a.Defs = append(a.Defs, d)
	}

	// Defs are appended to a.Defs node-by-node, so each node's def list is
	// a contiguous range of a.Defs — defsAt slices that range (capped, so
	// the while→DO splice's later append reallocates) instead of growing
	// per-node slices. The entry node carries no statement or IV, so the
	// per-node loop below never adds to its range.
	reuse(&a.defsAt, len(nodes))
	entryNode := nodes[a.Graph.Entry]
	for i := range vars {
		// Entry definitions: every variable has an initial (unknown) value;
		// parameters are unambiguous, everything else ambiguous.
		add(entryNode, il.VarID(i), vars[i].Class != il.ClassParam, true)
	}
	a.defsAt[entryNode.ID] = a.Defs[0:len(a.Defs):len(a.Defs)]
	for _, n := range nodes {
		start := len(a.Defs)
		a.nodeDefs(n, func(v il.VarID, ambiguous bool) { add(n, v, ambiguous, false) })
		if end := len(a.Defs); end > start {
			a.defsAt[n.ID] = a.Defs[start:end:end]
		}
	}

	a.indexDefs()

	// gen, kill, in, out and the solver's scratch, carved from one
	// backing slab (capped sub-slices, so a later grow reallocates instead
	// of clobbering its neighbor). A variable's def mask is as wide as a
	// set, so the masks are carved afresh too.
	nNodes := len(nodes)
	sets := carve(&a.sets, &a.setWords, 4*nNodes+2, nDefs)
	a.gen = sets[:nNodes:nNodes]
	a.kill = sets[nNodes : 2*nNodes : 2*nNodes]
	a.in = sets[2*nNodes : 3*nNodes : 3*nNodes]
	a.out = sets[3*nNodes : 4*nNodes : 4*nNodes]
	reuse(&a.defMask, len(a.defsOf))
	a.maskUsed = 0
	for id := range nodes {
		for _, d := range a.defsAt[id] {
			a.gen[id].set(d.ID)
			if !d.Ambiguous {
				// An unambiguous def kills all other defs of the variable.
				for _, other := range a.defsOf[d.Var] {
					if other.ID != d.ID {
						a.kill[id].set(other.ID)
					}
				}
			}
		}
		// gen wins over kill within a node.
		a.kill[id].andNot(a.gen[id])
	}
}

// solve runs the reaching-definitions fixpoint as a reverse-postorder
// worklist: nodes are visited predecessors-first, each sweep only touches
// nodes whose inputs changed, and the per-node transfer computes into two
// reused scratch bitsets instead of allocating fresh sets every sweep.
// The solution is the unique least fixpoint, identical to what the naive
// Gauss–Seidel iteration produced.
func (a *Analysis) solve() {
	nNodes := len(a.Graph.Nodes)
	order := a.Graph.RPO()
	dirty := reuse(&a.dirty, nNodes)
	for i := range dirty {
		dirty[i] = true
	}
	inScratch, outScratch := a.sets[4*nNodes], a.sets[4*nNodes+1]
	anyDirty := true
	for anyDirty {
		anyDirty = false
		for _, id := range order {
			if !dirty[id] {
				continue
			}
			dirty[id] = false
			n := a.Graph.Nodes[id]
			inScratch.clear()
			for _, p := range n.Preds {
				inScratch.or(a.out[p])
			}
			copy(outScratch, inScratch)
			outScratch.andNot(a.kill[id])
			outScratch.or(a.gen[id])
			if !inScratch.equal(a.in[id]) {
				copy(a.in[id], inScratch)
			}
			if !outScratch.equal(a.out[id]) {
				copy(a.out[id], outScratch)
				for _, s := range n.Succs {
					if !dirty[s] {
						dirty[s] = true
						anyDirty = true
					}
				}
			}
		}
	}
}

// ForEachReachingDef calls fn for every definition of v reaching the entry
// of s, in def-ID order, without materializing a slice.
func (a *Analysis) ForEachReachingDef(s il.Stmt, v il.VarID, fn func(*Def)) {
	if n, ok := a.Graph.NodeOf[s]; ok {
		a.forEachReachingAt(n, v, fn)
	}
}

// forEachReachingAt intersects the node's reaching set with the variable's
// def mask word-by-word instead of probing every def of v bit-by-bit.
func (a *Analysis) forEachReachingAt(n *cfg.Node, v il.VarID, fn func(*Def)) {
	mask := a.maskOf(v)
	in := a.in[n.ID]
	words := len(mask)
	if len(in) < words {
		words = len(in)
	}
	for w := 0; w < words; w++ {
		word := mask[w] & in[w]
		for word != 0 {
			fn(a.Defs[w*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
}

// maskOf returns (building lazily) the bitset of v's def IDs.
func (a *Analysis) maskOf(v il.VarID) bitset {
	if int(v) < len(a.defMask) {
		if m := a.defMask[v]; m != nil {
			return m
		}
	}
	for int(v) >= len(a.defMask) {
		a.defMask = append(a.defMask, nil)
	}
	words := (len(a.Defs) + 63) / 64
	if len(a.maskBacking)-a.maskUsed < words {
		// Room for every variable's mask; only a def or a variable the
		// while→DO splice added can need a second backing.
		a.maskBacking = make([]uint64, max(len(a.defsOf), 1)*words)
		a.maskUsed = 0
	}
	m := bitset(a.maskBacking[a.maskUsed : a.maskUsed+words : a.maskUsed+words])
	a.maskUsed += words
	clear(m) // a re-solve reuses the words
	if int(v) < len(a.defsOf) {
		for _, d := range a.defsOf[v] {
			m.set(d.ID)
		}
	}
	a.defMask[v] = m
	return m
}

// DefsInside returns the definitions of v whose node's statement is in the
// given set.
func (a *Analysis) DefsInside(v il.VarID, set map[il.Stmt]bool) []*Def {
	if int(v) >= len(a.defsOf) {
		return nil
	}
	var out []*Def
	for _, d := range a.defsOf[v] {
		if d.Node.Stmt != nil && set[d.Node.Stmt] {
			out = append(out, d)
		}
	}
	return out
}

// SpliceWhileConversion patches the analysis in place after while→DO
// conversion replaced w with d (same body statements, fresh dummy IV):
// the §5.2 incremental use-def reconstruction, instead of a full re-solve.
// The while's condition node becomes the DO node (head and latch merged),
// one definition of the dummy IV is appended to the chains, and its
// reaching bit is flowed forward along successor edges — the dummy is
// fresh, so the new def kills nothing and is killed nowhere.
//
// The patched analysis answers the conversion queries (NodeOf, EntersBody,
// DefsInside) exactly as a rebuilt one would; it deliberately omits the
// dummy's synthetic entry definition, so it must not outlive the
// conversion pass (a unique-reaching-definition query on the dummy would
// be over-precise).
// Returns false when w has no node; the caller falls back to Analyze.
func (a *Analysis) SpliceWhileConversion(w *il.While, d *il.DoLoop) bool {
	n, ok := a.Graph.NodeOf[w]
	if !ok {
		return false
	}
	delete(a.Graph.NodeOf, w)
	a.Graph.NodeOf[d] = n
	n.Stmt = d
	n.IVDef = d.IV

	def := &Def{ID: len(a.Defs), Node: n, Var: d.IV}
	a.Defs = append(a.Defs, def)
	for int(d.IV) >= len(a.defsOf) {
		a.defsOf = append(a.defsOf, nil)
	}
	a.defsOf[d.IV] = append(a.defsOf[d.IV], def)
	a.defsAt[n.ID] = append(a.defsAt[n.ID], def)
	if int(d.IV) < len(a.defMask) {
		a.defMask[d.IV] = nil
	}

	nDefs := len(a.Defs)
	a.gen[n.ID] = growTo(a.gen[n.ID], nDefs)
	a.gen[n.ID].set(def.ID)
	a.out[n.ID] = growTo(a.out[n.ID], nDefs)
	a.out[n.ID].set(def.ID)
	work := []int{n.ID}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range a.Graph.Nodes[id].Succs {
			a.in[s] = growTo(a.in[s], nDefs)
			if !a.in[s].get(def.ID) {
				a.in[s].set(def.ID)
				a.out[s] = growTo(a.out[s], nDefs)
				a.out[s].set(def.ID)
				work = append(work, s)
			}
		}
	}
	return true
}

// growTo widens b to hold at least width bits. The slab sub-slices are
// capped, so growing one reallocates it rather than clobbering a neighbor.
func growTo(b bitset, width int) bitset {
	words := (width + 63) / 64
	for len(b) < words {
		b = append(b, 0)
	}
	return b
}

// AppendUsedVars appends to buf, once each, the variables read by
// statement s (in its expressions; a scalar assignment destination is not
// a use, but a store's address is). Callers reuse one buffer across
// statements as buf[:0].
func AppendUsedVars(buf []il.VarID, s il.Stmt) []il.VarID {
	start := len(buf)
	add := func(e il.Expr) {
		il.WalkExpr(e, func(x il.Expr) bool {
			id := il.NoVar
			switch n := x.(type) {
			case *il.VarRef:
				id = n.ID
			case *il.AddrOf:
				id = n.ID
			}
			if id != il.NoVar {
				// Statements reference few distinct variables; a linear
				// dedup scan beats a per-call map.
				for _, o := range buf[start:] {
					if o == id {
						return true
					}
				}
				buf = append(buf, id)
			}
			return true
		})
	}
	if as, ok := s.(*il.Assign); ok {
		if ld, isStore := as.Dst.(*il.Load); isStore {
			add(ld.Addr)
		}
		add(as.Src)
		return buf
	}
	il.StmtExprs(s, add)
	return buf
}

// ---------------------------------------------------------------- liveness

// Liveness holds live-variable sets per CFG node.
type Liveness struct {
	Graph *cfg.Graph
	// liveOut[n] is the set of variables live at n's exit.
	liveOut []bitset

	// Storage Recompute reuses: the bitset slab (use, def, liveIn,
	// liveOut, the exit set and two scratch sets), the dirty flags and a
	// statement's used variables.
	setWords []uint64
	sets     []bitset
	dirty    []bool
	used     []il.VarID
}

// LiveOut reports whether v is live after statement s.
func (lv *Liveness) LiveOut(s il.Stmt, v il.VarID) bool {
	n, ok := lv.Graph.NodeOf[s]
	if !ok {
		return true // unknown statements stay conservative
	}
	return lv.liveOut[n.ID].get(int(v))
}

// ComputeLiveness runs backward live-variable analysis: Recompute on
// empty storage.
func ComputeLiveness(p *il.Proc, g *cfg.Graph) *Liveness {
	lv := new(Liveness)
	lv.Recompute(p, g)
	return lv
}

// Recompute replaces lv with the live variables of p over g, solved in
// lv's own storage. Global, static and address-taken variables are
// treated as live at procedure exit.
func (lv *Liveness) Recompute(p *il.Proc, g *cfg.Graph) {
	nVars := len(p.Vars)
	nNodes := len(g.Nodes)
	// use, def, liveIn, liveOut and the solver's sets, carved from one
	// backing slab.
	sets := carve(&lv.sets, &lv.setWords, 4*nNodes+3, nVars)
	use, def := sets[:nNodes], sets[nNodes:2*nNodes]
	liveIn, liveOut := sets[2*nNodes:3*nNodes], sets[3*nNodes:4*nNodes]
	for id, n := range g.Nodes {
		if n.IVDef != il.NoVar {
			def[id].set(int(n.IVDef))
		}
		if n.Stmt == nil {
			continue
		}
		lv.used = AppendUsedVars(lv.used[:0], n.Stmt)
		for _, v := range lv.used {
			use[id].set(int(v))
		}
		if dv := il.DefinedVar(n.Stmt); dv != il.NoVar {
			def[id].set(int(dv))
		}
	}
	// Variables observable after return.
	exitLive := sets[4*nNodes]
	for i := range p.Vars {
		v := &p.Vars[i]
		if v.Escapes() {
			exitLive.set(i)
		}
	}

	// Backward worklist over postorder (successors-first), with the same
	// reused-scratch scheme as the forward solver: no per-sweep bitset
	// allocations, and converged regions are skipped.
	copy(liveOut[g.Exit], exitLive)
	copy(liveIn[g.Exit], exitLive)

	order := g.RPO()
	dirty := reuse(&lv.dirty, nNodes)
	for i := range dirty {
		dirty[i] = true
	}
	outScratch, inScratch := sets[4*nNodes+1], sets[4*nNodes+2]
	anyDirty := true
	for anyDirty {
		anyDirty = false
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			if !dirty[id] {
				continue
			}
			dirty[id] = false
			n := g.Nodes[id]
			outScratch.clear()
			if id == g.Exit {
				outScratch.or(exitLive)
			}
			for _, s := range n.Succs {
				outScratch.or(liveIn[s])
			}
			copy(inScratch, outScratch)
			inScratch.andNot(def[id])
			inScratch.or(use[id])
			if !outScratch.equal(liveOut[id]) {
				copy(liveOut[id], outScratch)
			}
			if !inScratch.equal(liveIn[id]) {
				copy(liveIn[id], inScratch)
				for _, p := range n.Preds {
					if !dirty[p] {
						dirty[p] = true
						anyDirty = true
					}
				}
			}
		}
	}
	lv.Graph, lv.liveOut = g, liveOut
}

// ---------------------------------------------------------------- bitsets

type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// carve returns n empty bitsets of the given width, carved from one
// backing array; *sets and *backing are reused where they are large
// enough (see reuse). The sets are capped (three-index), so a later
// append reallocates the grown set instead of clobbering its neighbor.
func carve(sets *[]bitset, backing *[]uint64, n, width int) []bitset {
	words := (width + 63) / 64
	b, out := reuse(backing, n*words), reuse(sets, n)
	for i := range out {
		out[i] = bitset(b[i*words : (i+1)*words : (i+1)*words])
	}
	return out
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

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) andNot(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

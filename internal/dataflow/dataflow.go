// Package dataflow computes reaching definitions, use-def chains, and live
// variables over the IL control-flow graph.
//
// The paper's scalar optimizer drives everything off use-def chains (§5.2:
// while→DO conversion "should occur ... immediately after use-def chains
// have been constructed"). The chains here are exact for scalar variables
// and conservative for memory: a call or a store through a pointer may
// define every global, static and address-taken variable, and a call or a
// load through a pointer may use every one of them.
//
// Reaching definitions, live variables and copy propagation's available
// copies are each one Problem, solved by the one worklist solver in
// solve.go. Reanalyze and Recompute re-solve into a solution's own
// storage, so a solution is valid until the next re-solve of it.
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
	// rd is the reaching-definitions problem: rd.In[n] is the set of defs
	// reaching node n's entry.
	rd Problem
	// defsAt lists the defs performed by each node.
	defsAt [][]*Def
	// clobbers caches the may-define set of a call or store (the
	// address-taken, global and static variables), computed once per
	// analysis instead of once per clobbering statement.
	clobbers []il.VarID
	// defMask lazily caches, per variable, the bitset of its def IDs, so
	// chain queries intersect words instead of probing def-by-def. Masks
	// are carved from maskBacking, whose first maskUsed words are taken.
	defMask     []Set
	maskBacking []uint64
	maskUsed    int

	// Storage a re-solve reuses besides rd's: the def slab and defsOf's
	// backing and counts.
	slab    []Def
	defsBuf []*Def
	counts  []int
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
	a.rd.Solve(a.Graph)
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

	// A forward union problem over def IDs. A variable's def mask is as
	// wide as a set, so the masks are carved afresh too.
	a.rd.Reset(len(nodes), nDefs, 0)
	reuse(&a.defMask, len(a.defsOf))
	a.maskUsed = 0
	for id := range nodes {
		gen, kill := a.rd.Gen[id], a.rd.Kill[id]
		for _, d := range a.defsAt[id] {
			gen.Add(d.ID)
			if !d.Ambiguous {
				// An unambiguous def kills all other defs of the variable.
				for _, other := range a.defsOf[d.Var] {
					if other.ID != d.ID {
						kill.Add(other.ID)
					}
				}
			}
		}
		// gen wins over kill within a node.
		kill.andNot(gen)
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
	in := a.rd.In[n.ID]
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
func (a *Analysis) maskOf(v il.VarID) Set {
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
	m := Set(a.maskBacking[a.maskUsed : a.maskUsed+words : a.maskUsed+words])
	a.maskUsed += words
	clear(m) // a re-solve reuses the words
	if int(v) < len(a.defsOf) {
		for _, d := range a.defsOf[v] {
			m.Add(d.ID)
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
	rd := &a.rd
	rd.Gen[n.ID] = growTo(rd.Gen[n.ID], nDefs)
	rd.Gen[n.ID].Add(def.ID)
	rd.Out[n.ID] = growTo(rd.Out[n.ID], nDefs)
	rd.Out[n.ID].Add(def.ID)
	work := []int{n.ID}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range a.Graph.Nodes[id].Succs {
			rd.In[s] = growTo(rd.In[s], nDefs)
			if !rd.In[s].Has(def.ID) {
				rd.In[s].Add(def.ID)
				rd.Out[s] = growTo(rd.Out[s], nDefs)
				rd.Out[s].Add(def.ID)
				work = append(work, s)
			}
		}
	}
	return true
}

// growTo widens b to hold at least width bits. The slab sub-slices are
// capped, so growing one reallocates it rather than clobbering a neighbor.
func growTo(b Set, width int) Set {
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
	buf, _ = appendUses(buf, s)
	return buf
}

// appendUses is AppendUsedVars that also reports whether s may read
// memory: it calls, or a Load or VecRef occurs in what it evaluates. A
// store's destination is written, not read; its address is evaluated.
func appendUses(buf []il.VarID, s il.Stmt) ([]il.VarID, bool) {
	start := len(buf)
	_, mem := s.(*il.Call)
	add := func(e il.Expr) {
		il.WalkExpr(e, func(x il.Expr) bool {
			id := il.NoVar
			switch n := x.(type) {
			case *il.VarRef:
				id = n.ID
			case *il.AddrOf:
				id = n.ID
			case *il.Load, *il.VecRef:
				mem = true
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
	switch n := s.(type) {
	case *il.Assign:
		if ld, isStore := n.Dst.(*il.Load); isStore {
			add(ld.Addr)
		}
		add(n.Src)
	case *il.PredAssign:
		add(n.Cond)
		add(n.Dst.(*il.Load).Addr)
		add(n.Src)
	default:
		il.StmtExprs(s, add)
	}
	return buf, mem
}

// ---------------------------------------------------------------- liveness

// Liveness holds live-variable sets per CFG node.
type Liveness struct {
	Graph *cfg.Graph
	// live is the backward union problem over variable IDs: live.Out[n]
	// is the set of variables live at n's exit.
	live Problem
	used []il.VarID // one statement's used variables
}

// LiveOut reports whether v is live after statement s.
func (lv *Liveness) LiveOut(s il.Stmt, v il.VarID) bool {
	n, ok := lv.Graph.NodeOf[s]
	if !ok {
		return true // unknown statements stay conservative
	}
	return lv.live.Out[n.ID].Has(int(v))
}

// ComputeLiveness runs backward live-variable analysis: Recompute on
// empty storage.
func ComputeLiveness(p *il.Proc, g *cfg.Graph) *Liveness {
	lv := new(Liveness)
	lv.Recompute(p, g)
	return lv
}

// Recompute replaces lv with the live variables of p over g, solved in
// lv's own storage. Global, static and address-taken variables are live
// at procedure exit, and a statement that calls or reads memory through
// a pointer uses every one of them: the callee or the load may read it.
func (lv *Liveness) Recompute(p *il.Proc, g *cfg.Graph) {
	lv.live.Backward = true
	lv.live.Reset(len(g.Nodes), len(p.Vars), 0)
	escapes := lv.live.Boundary
	for i := range p.Vars {
		if p.Vars[i].Escapes() {
			escapes.Add(i)
		}
	}
	for id, n := range g.Nodes {
		use, def := lv.live.Gen[id], lv.live.Kill[id]
		if n.IVDef != il.NoVar {
			def.Add(int(n.IVDef))
		}
		if n.Stmt == nil {
			continue
		}
		var mem bool
		lv.used, mem = appendUses(lv.used[:0], n.Stmt)
		for _, v := range lv.used {
			use.Add(int(v))
		}
		if mem {
			use.Or(escapes)
		}
		if dv := il.DefinedVar(n.Stmt); dv != il.NoVar {
			def.Add(int(dv))
		}
	}
	lv.live.Solve(g)
	lv.Graph = g
}

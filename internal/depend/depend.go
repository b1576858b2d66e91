// Package depend implements the array dependence analysis that drives
// vectorization (§5), parallelization, and the dependence-driven scalar
// optimizations of §6.
//
// Analysis is per-DO-loop. Every memory reference in the loop body is
// normalized to the linear form  base + coef·IV + offset  (in bytes);
// references that resist normalization are treated conservatively. Pairs
// of references are disambiguated by their base objects (distinct named
// arrays cannot overlap; distinct pointer parameters may, unless the loop
// is marked safe or the compiler is told pointer parameters follow Fortran
// aliasing rules — §9), then subjected to an exact single-subscript test
// (the GCD test specialized to equal strides gives exact distances).
//
// The resulting graph has statement-level edges labelled flow/anti/output
// and carried/independent, plus the scalar dependences among the body's
// top-level statements. Vectorization legality is then a question of
// strongly connected components (Allen–Kennedy codegen, in package
// vector).
package depend

import (
	"fmt"

	"repro/internal/ctype"
	"repro/internal/il"
)

// Options controls aliasing assumptions.
type Options struct {
	// NoAlias asserts pointer parameters never alias each other or named
	// arrays (the compiler option of §9: "pointer parameters have Fortran
	// semantics").
	NoAlias bool
}

// DepKind classifies dependences.
type DepKind int

// Dependence kinds.
const (
	Flow   DepKind = iota // write then read (true dependence)
	Anti                  // read then write
	Output                // write then write
)

var depNames = [...]string{"flow", "anti", "output"}

// String names the kind.
func (k DepKind) String() string { return depNames[k] }

// Dep is one statement-level dependence edge: To depends on From.
type Dep struct {
	From, To int // indices into the loop's top-level statement list
	Kind     DepKind
	// Carried marks loop-carried dependences (distance ≥ 1).
	Carried bool
	// Distance is the dependence distance in iterations when Known.
	Distance int64
	Known    bool
	// Scalar marks dependences through scalar variables rather than
	// memory.
	Scalar bool
	// Var is the scalar variable for Scalar deps.
	Var il.VarID
}

// String renders the edge.
func (d *Dep) String() string {
	tag := ""
	if d.Carried {
		if d.Known {
			tag = fmt.Sprintf(" carried(%d)", d.Distance)
		} else {
			tag = " carried(?)"
		}
	}
	kind := d.Kind.String()
	if d.Scalar {
		kind += "/scalar"
	}
	return fmt.Sprintf("S%d -%s%s-> S%d", d.From, kind, tag, d.To)
}

// BaseKind classifies reference bases.
type BaseKind int

// Base kinds.
const (
	BaseVar     BaseKind = iota // a named object (&array)
	BasePointer                 // a loop-invariant pointer variable
	BaseUnknown
)

// Base identifies the object a reference roots at.
type Base struct {
	Kind BaseKind
	Var  il.VarID // BaseVar: the object; BasePointer: the pointer variable
	// Extra is a loop-invariant byte offset expression added to the root
	// (e.g. a row offset in a struct or outer-loop subscript). Compared
	// structurally.
	Extra il.Expr
}

// Ref is one memory reference in linear form.
type Ref struct {
	StmtIdx  int
	IsWrite  bool
	Base     Base
	Coef     int64 // bytes advanced per iteration of the analyzed loop
	Offset   int64 // constant byte offset
	Size     int   // access size in bytes
	Linear   bool  // Coef/Offset valid
	Volatile bool
	Expr     il.Expr // the original address expression
}

// LoopDeps is the dependence analysis result for one loop.
type LoopDeps struct {
	Loop  *il.DoLoop
	Refs  []Ref
	Deps  []Dep
	Trips int64 // compile-time trip count, or -1 when unknown
	// Barrier[i] marks statements (calls, volatile accesses, irregular
	// control) that must not be reordered or vectorized.
	Barrier []bool
}

// HasCycleThrough reports whether stmt i has any carried self-dependence
// (the quick "is this statement vectorizable alone" check).
func (ld *LoopDeps) HasCycleThrough(i int) bool {
	for _, d := range ld.Deps {
		if d.From == i && d.To == i && d.Carried {
			return true
		}
	}
	return false
}

// Carried returns the first dependence that crosses iterations, or nil
// when the iterations are independent. A barrier statement carries a
// dependence on itself (barrierDeps), so "no carried edge" also means "no
// barrier": this is the one answer to "may these iterations run in any
// order", and where the next legality rule is added.
func (ld *LoopDeps) Carried() *Dep {
	for i := range ld.Deps {
		if ld.Deps[i].Carried {
			return &ld.Deps[i]
		}
	}
	return nil
}

// AnalyzeLoop computes the dependence graph for the top-level statements
// of a DO loop.
func AnalyzeLoop(p *il.Proc, loop *il.DoLoop, opts Options) *LoopDeps {
	ld := &LoopDeps{Loop: loop, Trips: loop.TripCount()}
	ld.Barrier = make([]bool, len(loop.Body))

	// Gather memory references and barriers.
	for i, s := range loop.Body {
		switch n := s.(type) {
		case *il.Assign:
			if ld.collectStmtRefs(p, loop, i, n.Dst, n.Src) {
				ld.Barrier[i] = true
			}
		case *il.PredAssign:
			// Predicated stores are ordinary graph nodes, not barriers:
			// the guard's loads, the store, and the source loads all
			// participate, and the SCC machinery decides whether a carried
			// dependence crosses the guard (if it does, the vectorizer
			// rejects the statement's component like any other cycle).
			if ld.collectPredRefs(p, loop, i, n) {
				ld.Barrier[i] = true
			}
		case *il.Call:
			ld.Barrier[i] = true
		case *il.If, *il.While, *il.DoLoop, *il.DoParallel, *il.Goto, *il.Label, *il.Return:
			// Nested control flow: conservative barrier (inner loops are
			// analyzed on their own; the outer loop treats them whole).
			ld.Barrier[i] = true
		case *il.VectorAssign:
			ld.Barrier[i] = true
			_ = n
		}
	}

	ld.memoryDeps(p, opts)
	ld.scalarDeps(p, loop)
	ld.barrierDeps()
	return ld
}

// collectStmtRefs extracts the refs of one assignment; reports whether the
// statement contains something that must act as a barrier (volatile).
func (ld *LoopDeps) collectStmtRefs(p *il.Proc, loop *il.DoLoop, idx int, dst, src il.Expr) bool {
	barrier := false
	add := func(addr il.Expr, size int, write, volatile bool) {
		r := normalizeRef(loop, addr)
		r.StmtIdx = idx
		r.IsWrite = write
		r.Size = size
		r.Volatile = volatile
		r.Expr = addr
		if volatile {
			barrier = true
		}
		ld.Refs = append(ld.Refs, r)
	}
	if ld, ok := dst.(*il.Load); ok {
		add(ld.Addr, ld.T.Size(), true, ld.Volatile)
	}
	collectLoads := func(e il.Expr) {
		il.WalkExpr(e, func(x il.Expr) bool {
			if l, ok := x.(*il.Load); ok {
				add(l.Addr, l.T.Size(), false, l.Volatile)
			}
			return true
		})
	}
	if ldst, ok := dst.(*il.Load); ok {
		collectLoads(ldst.Addr)
	}
	collectLoads(src)
	// Direct reads/writes of volatile scalars are barriers too.
	if p.HasVolatile(src) {
		barrier = true
	}
	if v, ok := dst.(*il.VarRef); ok && p.Vars[v.ID].IsVolatile() {
		barrier = true
	}
	return barrier
}

// collectPredRefs extracts the refs of one predicated store: the guarded
// destination and source via the assignment collector, plus the guard's
// own loads — if-conversion evaluates the predicate every iteration, so
// its reads participate in the dependence graph like any other use.
func (ld *LoopDeps) collectPredRefs(p *il.Proc, loop *il.DoLoop, idx int, ps *il.PredAssign) bool {
	barrier := ld.collectStmtRefs(p, loop, idx, ps.Dst, ps.Src)
	il.WalkExpr(ps.Cond, func(x il.Expr) bool {
		if l, ok := x.(*il.Load); ok {
			r := normalizeRef(loop, l.Addr)
			r.StmtIdx = idx
			r.IsWrite = false
			r.Size = l.T.Size()
			r.Volatile = l.Volatile
			r.Expr = l.Addr
			if l.Volatile {
				barrier = true
			}
			ld.Refs = append(ld.Refs, r)
		}
		return true
	})
	if p.HasVolatile(ps.Cond) {
		barrier = true
	}
	return barrier
}

// views is the arena of the expressions the analysis builds for itself
// (the index-free part of an address, negated and scaled invariant
// terms): nil, the heap. They describe a reference and never enter a
// body; the graph may be cached past the compile, and the procedure is
// often one the caller only reads (the schedule checker on the tuner's
// base), whose arena is not ours.
var views *il.Arena

// normalizeRef reduces an address expression to base + coef·IV + offset:
// il's one affine descent, then the index-free part flattened into its
// terms. That part must be load-free to count as invariant — a store in
// the body may change what a load reads; otherwise, or when addr is not
// affine in the IV, the reference is non-linear with an unknown base.
func normalizeRef(loop *il.DoLoop, addr il.Expr) Ref {
	coefs, rest, ok := views.Affine(addr, [2]il.VarID{loop.IV, il.NoVar})
	if ok && il.LoadFree(rest) {
		if offset, terms, ok := il.LinearTerms(rest); ok {
			return Ref{Base: classifyBase(terms), Coef: coefs[0], Offset: offset, Linear: true}
		}
	}
	return Ref{Base: Base{Kind: BaseUnknown}}
}

// classifyBase finds the root object among the invariant terms: exactly
// one named object or pointer variable taken once; every other term sums
// into Extra, a −1 multiple as a negation and any other as c·term.
func classifyBase(terms []il.Term) Base {
	var rootVar il.VarID = il.NoVar
	var rootPtr il.VarID = il.NoVar
	var extra il.Expr
	roots := 0
	for _, t := range terms {
		e := t.Expr
		switch n := e.(type) {
		case *il.AddrOf:
			if t.Coef == 1 {
				rootVar = n.ID
				roots++
				continue
			}
		case *il.VarRef:
			if t.Coef == 1 && n.T != nil && n.T.Kind == ctype.Pointer {
				rootPtr = n.ID
				roots++
				continue
			}
		}
		switch t.Coef {
		case 1:
		case -1:
			e = views.NewUn(il.OpNeg, e, e.Type())
		default:
			e = views.Mul(views.Int(t.Coef), e, ctype.IntType)
		}
		if extra == nil {
			extra = e
		} else {
			extra = views.Add(extra, e, ctype.IntType)
		}
	}
	if roots != 1 {
		return Base{Kind: BaseUnknown}
	}
	if rootVar != il.NoVar {
		return Base{Kind: BaseVar, Var: rootVar, Extra: extra}
	}
	return Base{Kind: BasePointer, Var: rootPtr, Extra: extra}
}

// sameBase reports whether two bases denote the same object with the same
// invariant offset (so the subscript test applies).
func sameBase(a, b Base) bool {
	if a.Kind == BaseUnknown || b.Kind == BaseUnknown {
		return false
	}
	if a.Kind != b.Kind || a.Var != b.Var {
		return false
	}
	return il.ExprEqual(a.Extra, b.Extra)
}

// mayAlias reports whether two references with different bases could still
// touch the same memory.
func mayAlias(p *il.Proc, a, b Base, safe bool, opts Options) bool {
	if a.Kind == BaseUnknown || b.Kind == BaseUnknown {
		return true
	}
	if safe || opts.NoAlias {
		// Fortran rules: distinct bases are distinct objects.
		if a.Kind == b.Kind && a.Var == b.Var && !il.ExprEqual(a.Extra, b.Extra) {
			// Same root, different invariant offsets: could still overlap
			// unless both offsets are constants handled by the subscript
			// test; stay conservative.
			return true
		}
		return a.Kind == b.Kind && a.Var == b.Var
	}
	// Two distinct named objects never overlap.
	if a.Kind == BaseVar && b.Kind == BaseVar {
		if a.Var != b.Var {
			return false
		}
		return true
	}
	// A pointer may point anywhere (C imposes no aliasing rules — §1).
	return true
}

// BasesMayAlias reports whether two reference bases might denote
// overlapping storage, under the loop-safe flag and aliasing options.
// Identical bases trivially alias.
func BasesMayAlias(p *il.Proc, a, b Base, safe bool, opts Options) bool {
	if sameBase(a, b) {
		return true
	}
	return mayAlias(p, a, b, safe, opts)
}

// memoryDeps tests every pair of references, a write against itself
// included: a store that is not provably moving may write one location in
// two iterations (s[0] = s[0] + a[i], a[i & 1] = i), which is an output
// dependence of the statement on itself. Only an affine store that
// advances by at least its own size per index step never meets itself.
func (ld *LoopDeps) memoryDeps(p *il.Proc, opts Options) {
	safe := ld.Loop.Safe
	for i := range ld.Refs {
		a := &ld.Refs[i]
		if a.IsWrite && (!a.Linear || a.Coef == 0 || abs64(a.Coef) < int64(a.Size)) {
			ld.Deps = append(ld.Deps, Dep{From: a.StmtIdx, To: a.StmtIdx, Kind: Output, Carried: true})
		}
		for j := i + 1; j < len(ld.Refs); j++ {
			b := &ld.Refs[j]
			if !a.IsWrite && !b.IsWrite {
				continue
			}
			ld.testPair(p, a, b, safe, opts)
		}
	}
}

// testPair adds dependence edges between two references.
func (ld *LoopDeps) testPair(p *il.Proc, a, b *Ref, safe bool, opts Options) {
	if !a.Linear || !b.Linear {
		if a.Base.Kind != BaseUnknown && b.Base.Kind != BaseUnknown &&
			!sameBase(a.Base, b.Base) && !mayAlias(p, a.Base, b.Base, safe, opts) {
			return
		}
		ld.addUnknownDep(a, b)
		return
	}
	if !sameBase(a.Base, b.Base) {
		if !mayAlias(p, a.Base, b.Base, safe, opts) {
			return
		}
		ld.addUnknownDep(a, b)
		return
	}
	// Same object: exact test on  coefA·i1 + offA  =  coefB·i2 + offB.
	// Equal coefficients give exact distances; unequal ones fall back to
	// the GCD test.
	if a.Coef == b.Coef {
		c := a.Coef
		if c == 0 {
			// Invariant addresses: same location iff offsets overlap —
			// and then the same in every iteration, not only this one,
			// so the pair is carried both ways as well.
			if overlaps(a.Offset, a.Size, b.Offset, b.Size) {
				ld.addDep(a, b, 0)
				ld.addUnknownDep(a, b)
			}
			return
		}
		// Same location: c·ia + offA = c·ib + offB ⟹ ib = ia + (offA-offB)/c,
		// so positive diff means b touches the location diff iterations
		// after a.
		diff := a.Offset - b.Offset
		if diff%c != 0 {
			// Strided accesses interleave without touching (assumes
			// aligned same-size elements, which the front end guarantees
			// for scalar element types).
			if !overlapsStride(a, b) {
				return
			}
			ld.addUnknownDep(a, b)
			return
		}
		dist := diff / c
		if dist < 0 {
			dist = -dist
		}
		if ld.Trips >= 0 && dist >= ld.Trips {
			return // too far apart to meet within the loop
		}
		// Signed distance: positive means a's iteration precedes b's.
		ld.addDep(a, b, diff/c)
		return
	}
	// GCD test.
	g := gcd64(abs64(a.Coef), abs64(b.Coef))
	if g != 0 && (b.Offset-a.Offset)%g != 0 {
		return // independent
	}
	ld.addUnknownDep(a, b)
}

// overlaps reports byte-interval overlap.
func overlaps(o1 int64, s1 int, o2 int64, s2 int) bool {
	return o1 < o2+int64(s2) && o2 < o1+int64(s1)
}

// overlapsStride conservatively checks whether unaligned strided accesses
// can overlap given element sizes (they can when sizes exceed the offset
// residue).
func overlapsStride(a, b *Ref) bool {
	c := abs64(a.Coef)
	r := (b.Offset - a.Offset) % c
	if r < 0 {
		r += c
	}
	return r < int64(a.Size) || c-r < int64(b.Size)
}

// addDep records a dependence with signed iteration distance d between the
// iterations of a (source) and b (sink); d>0 means b's access happens d
// iterations after a's.
func (ld *LoopDeps) addDep(a, b *Ref, d int64) {
	// Order the endpoints so the edge runs source→sink in execution
	// order: for d>0 the earlier-iteration access is a; for d<0 it is b;
	// for d==0 statement order decides.
	src, dst := a, b
	dist := d
	if d < 0 {
		src, dst = b, a
		dist = -d
	} else if d == 0 && b.StmtIdx < a.StmtIdx {
		src, dst = b, a
	}
	kind := depKindFor(src.IsWrite, dst.IsWrite)
	ld.Deps = append(ld.Deps, Dep{
		From: src.StmtIdx, To: dst.StmtIdx,
		Kind:    kind,
		Carried: dist != 0,
		Distance: func() int64 {
			return dist
		}(),
		Known: true,
	})
}

// addUnknownDep records a conservative both-direction dependence.
func (ld *LoopDeps) addUnknownDep(a, b *Ref) {
	k1 := depKindFor(a.IsWrite, b.IsWrite)
	k2 := depKindFor(b.IsWrite, a.IsWrite)
	ld.Deps = append(ld.Deps,
		Dep{From: a.StmtIdx, To: b.StmtIdx, Kind: k1, Carried: true},
		Dep{From: b.StmtIdx, To: a.StmtIdx, Kind: k2, Carried: true},
	)
}

func depKindFor(srcWrite, dstWrite bool) DepKind {
	switch {
	case srcWrite && dstWrite:
		return Output
	case srcWrite:
		return Flow
	default:
		return Anti
	}
}

// scalarDeps adds dependences through scalar variables among top-level
// statements: flow (def→use), anti (use→def), output (def→def), both
// within an iteration and carried around the back edge.
func (ld *LoopDeps) scalarDeps(p *il.Proc, loop *il.DoLoop) {
	n := len(loop.Body)
	defs := make([]map[il.VarID]bool, n)
	uses := make([]map[il.VarID]bool, n)
	for i, s := range loop.Body {
		defs[i] = map[il.VarID]bool{}
		uses[i] = map[il.VarID]bool{}
		il.WalkStmts([]il.Stmt{s}, func(sub il.Stmt) bool {
			if dv := il.DefinedVar(sub); dv != il.NoVar {
				defs[i][dv] = true
			}
			for _, u := range usedScalars(sub) {
				uses[i][u] = true
			}
			return true
		})
		// The loop IV is defined by the loop header, not body statements.
		delete(defs[i], loop.IV)
	}
	add := func(from, to int, kind DepKind, carried bool, v il.VarID) {
		ld.Deps = append(ld.Deps, Dep{From: from, To: to, Kind: kind,
			Carried: carried, Distance: 1, Known: carried, Scalar: true, Var: v})
	}
	for i := 0; i < n; i++ {
		for v := range defs[i] {
			// Forward within the iteration until the next def kills it.
			for j := i + 1; j < n; j++ {
				if uses[j][v] {
					add(i, j, Flow, false, v)
				}
				if defs[j][v] {
					add(i, j, Output, false, v)
					break
				}
			}
			// Carried to earlier-or-same statements around the back edge,
			// unless an intervening def kills it first.
			killed := false
			for j := i + 1; j < n && !killed; j++ {
				killed = defs[j][v]
			}
			if !killed {
				for j := 0; j <= i; j++ {
					if uses[j][v] {
						add(i, j, Flow, true, v)
					}
					if defs[j][v] {
						add(i, j, Output, true, v)
						break
					}
				}
			}
		}
		for v := range uses[i] {
			// Anti: use then later def (same iteration).
			for j := i + 1; j < n; j++ {
				if defs[j][v] {
					add(i, j, Anti, false, v)
					break
				}
			}
		}
	}
}

// usedScalars returns scalar variables read by a statement.
func usedScalars(s il.Stmt) []il.VarID {
	var out []il.VarID
	add := func(e il.Expr) {
		il.WalkExpr(e, func(x il.Expr) bool {
			if v, ok := x.(*il.VarRef); ok {
				out = append(out, v.ID)
			}
			return true
		})
	}
	if as, ok := s.(*il.Assign); ok {
		if ld, isStore := as.Dst.(*il.Load); isStore {
			add(ld.Addr)
		}
		add(as.Src)
		return out
	}
	il.StmtExprs(s, add)
	return out
}

// barrierDeps serializes barrier statements against everything.
func (ld *LoopDeps) barrierDeps() {
	n := len(ld.Barrier)
	for i := 0; i < n; i++ {
		if !ld.Barrier[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if j == i {
				// A barrier depends on itself across iterations.
				ld.Deps = append(ld.Deps, Dep{From: i, To: i, Kind: Output, Carried: true})
				continue
			}
			ld.Deps = append(ld.Deps, Dep{From: i, To: j, Kind: Output, Carried: true})
			ld.Deps = append(ld.Deps, Dep{From: j, To: i, Kind: Output, Carried: true})
		}
	}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

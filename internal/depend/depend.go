// Package depend implements the array dependence analysis that drives
// vectorization (§5), parallelization, interchange, and the
// dependence-driven scalar optimizations of §6.
//
// Every memory reference is normalized to the linear form
// base + coef·k + offset (in bytes), k counting iterations of its loop;
// references that resist normalization are treated conservatively. Pairs
// of references are disambiguated by their base objects (distinct named
// arrays cannot overlap; distinct pointer parameters may, unless the loop
// is marked safe or the compiler is told pointer parameters follow Fortran
// aliasing rules — §9), then by one test, testPair: the GCD test and
// Banerjee's bounds under each direction vector, over both levels of a
// 2-nest (AnalyzeNest) or the one level of a loop (AnalyzeLoop).
//
// A loop's graph has statement-level edges labelled flow/anti/output
// and carried/independent, plus the scalar dependences among the body's
// top-level statements. Vectorization legality is then a question of
// strongly connected components (Allen–Kennedy codegen, in package
// vector).
package depend

import (
	"fmt"
	"math"

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
	StmtIdx int
	IsWrite bool
	Base    Base
	Coef    int64 // bytes advanced per iteration (not index unit) of the analyzed loop
	// OuterCoef is the bytes advanced per iteration of a nest's outer
	// loop (zero in a one-loop analysis).
	OuterCoef int64
	Offset    int64 // constant byte offset
	Size      int   // access size in bytes
	Linear    bool  // Coef/Offset valid
	Volatile  bool
	Expr      il.Expr // the original address expression
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
	norm := func(addr il.Expr) Ref { return normalizeRef(addr, [2]*il.DoLoop{loop, nil}) }

	// Gather memory references and barriers.
	for i, s := range loop.Body {
		switch s.(type) {
		case *il.Assign, *il.PredAssign:
			// Predicated stores are ordinary graph nodes, not barriers:
			// the guard's loads, the store, and the source loads all
			// participate, and the SCC machinery decides whether a carried
			// dependence crosses the guard (if it does, the vectorizer
			// rejects the statement's component like any other cycle).
			ld.Barrier[i] = collectRefs(p, i, s, norm, &ld.Refs)
		case *il.Call, *il.VectorAssign, *il.If, *il.While, *il.DoLoop, *il.DoParallel, *il.Goto, *il.Label, *il.Return:
			// Nested control flow is a conservative barrier too (inner
			// loops are analyzed on their own; the outer loop treats them
			// whole).
			ld.Barrier[i] = true
		}
	}

	ld.memoryDeps(opts)
	ld.scalarDeps(p, loop)
	barrierDeps(ld.Barrier, func(from, to int) {
		ld.Deps = append(ld.Deps, Dep{From: from, To: to, Kind: Output, Carried: true})
	})
	return ld
}

// collectRefs appends the memory references of one assignment or
// predicated store to refs, normalized by norm: the store, its address's
// loads, the source's loads and a guard's loads (if-conversion evaluates
// the predicate every iteration, so its reads are uses like any other).
// It reports whether the statement touches volatile storage, which makes
// it a barrier.
func collectRefs(p *il.Proc, idx int, s il.Stmt, norm func(il.Expr) Ref, refs *[]Ref) bool {
	barrier := false
	add := func(l *il.Load, write bool) {
		r := norm(l.Addr)
		r.StmtIdx, r.IsWrite, r.Size, r.Volatile, r.Expr = idx, write, l.T.Size(), l.Volatile, l.Addr
		barrier = barrier || l.Volatile
		*refs = append(*refs, r)
	}
	loads := func(e il.Expr) {
		il.WalkExpr(e, func(x il.Expr) bool {
			if l, ok := x.(*il.Load); ok {
				add(l, false)
			}
			return true
		})
	}
	var dst, src, cond il.Expr
	switch n := s.(type) {
	case *il.Assign:
		dst, src = n.Dst, n.Src
	case *il.PredAssign:
		dst, src, cond = n.Dst, n.Src, n.Cond
	}
	if st, ok := dst.(*il.Load); ok {
		add(st, true)
		loads(st.Addr)
	}
	loads(src)
	if cond != nil {
		loads(cond)
		barrier = barrier || p.HasVolatile(cond)
	}
	// Direct reads/writes of volatile scalars are barriers too.
	if v, ok := dst.(*il.VarRef); ok && p.Vars[v.ID].IsVolatile() {
		barrier = true
	}
	return barrier || p.HasVolatile(src)
}

// views is the arena of the expressions the analysis builds for itself
// (the index-free part of an address, negated and scaled invariant
// terms): nil, the heap. They describe a reference and never enter a
// body; the graph may be cached past the compile, and the procedure is
// often one the caller only reads (the schedule checker on the tuner's
// base), whose arena is not ours.
var views *il.Arena

// normalizeRef reduces an address expression to
// base + Coef·k + OuterCoef·k′ + Offset, with k counting the iterations
// of loops[0] and k′ of loops[1] from their first (either may be nil):
// il's one affine descent over both indices, each index replaced by
// init + step·k — the inner init may move with the outer index — and the
// index-free part flattened into its terms. That part must be load-free
// to count as invariant — a store in the body may change what a load
// reads; otherwise, when addr is not affine in the indices, or when it
// moves with an index whose step is not constant, the reference is
// non-linear with an unknown base.
func normalizeRef(addr il.Expr, loops [2]*il.DoLoop) Ref {
	unknown := Ref{Base: Base{Kind: BaseUnknown}}
	ivs := [2]il.VarID{il.NoVar, il.NoVar}
	for k, l := range loops {
		if l != nil {
			ivs[k] = l.IV
		}
	}
	coefs, rest, ok := views.Affine(addr, ivs)
	if !ok || !il.LoadFree(rest) {
		return unknown
	}
	var per [2]int64
	var offset int64
	for k, l := range loops {
		c := coefs[k]
		if c == 0 {
			continue
		}
		step, constStep := il.IsIntConst(l.Step)
		ic, init, ok := views.Affine(l.Init, ivs)
		if !constStep || !ok || ic[0] != 0 || ic[k] != 0 || !il.LoadFree(init) {
			return unknown
		}
		per[k] = c * step
		coefs[1] += c * ic[1]
		if v, isConst := il.IsIntConst(init); isConst {
			offset += c * v
		} else {
			rest = views.Add(rest, views.Mul(views.Int(c), init, ctype.IntType), ctype.IntType)
		}
	}
	off, terms, ok := il.LinearTerms(rest)
	if !ok {
		return unknown
	}
	return Ref{Base: classifyBase(terms), Coef: per[0], OuterCoef: per[1], Offset: offset + off, Linear: true}
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
	return a.Kind != BaseUnknown && a.Kind == b.Kind && a.Var == b.Var && il.ExprEqual(a.Extra, b.Extra)
}

// BasesMayAlias reports whether two reference bases might denote
// overlapping storage, under the loop-safe flag and aliasing options. One
// root does, whatever the invariant offsets, and an unknown base may be
// anything. Distinct roots are distinct objects when both are named, or
// under Fortran rules (safe, NoAlias — §9); otherwise a pointer may point
// anywhere (C imposes no aliasing rules — §1).
func BasesMayAlias(a, b Base, safe bool, opts Options) bool {
	switch {
	case a.Kind == BaseUnknown || b.Kind == BaseUnknown || a.Kind == b.Kind && a.Var == b.Var:
		return true
	case safe || opts.NoAlias:
		return false
	}
	return a.Kind != BaseVar || b.Kind != BaseVar
}

// memoryDeps tests every pair of references, a write against itself
// included: a store that is not provably moving may write one location in
// two iterations (s[0] = s[0] + a[i], a[i & 1] = i), which is an output
// dependence of the statement on itself. The loop is a nest's inner level
// under one outer iteration, so the edges are testPair's with the inner
// direction read as carried or not.
func (ld *LoopDeps) memoryDeps(opts Options) {
	n := last(ld.Loop)
	edge := func(src, dst *Ref, dir [2]Dir, dist [2]int64, known [2]bool) {
		ld.Deps = append(ld.Deps, Dep{From: src.StmtIdx, To: dst.StmtIdx, Kind: depKindFor(src.IsWrite, dst.IsWrite),
			Carried: dir[1] != EQ, Distance: dist[1], Known: known[1]})
	}
	for i := range ld.Refs {
		for j := i; j < len(ld.Refs); j++ {
			if a, b := &ld.Refs[i], &ld.Refs[j]; a.IsWrite || b.IsWrite {
				testPair(a, b, ld.Loop.Safe, opts, [3]int64{0, n, n}, true, edge)
			}
		}
	}
}

// Dir is the set of directions a dependence may take at one level: how
// the source's iteration relates to the sink's.
type Dir uint8

// Directions; Any is "*", a level the references do not share or could
// not be compared on.
const (
	LT  Dir = 1 << iota // the source's iteration is earlier
	EQ                  // the same iteration
	GT                  // the source's iteration is later
	Any = LT | EQ | GT
)

// String renders the direction (the string is indexed by the bit set).
func (d Dir) String() string { return string("?<=?>??*"[d]) }

// far stands in for the last iteration of a loop whose trip count is not
// known: large enough that no address arithmetic tells it from infinity,
// small enough that bounds over it cannot overflow (coefficients past
// maxCoef are not compared).
const (
	far     = 1 << 31
	maxCoef = 1 << 28
)

// last is the last iteration of loop, -1 when it never runs; 0 for no
// loop (a nest's outer-level statement has one inner iteration).
func last(loop *il.DoLoop) int64 {
	if loop == nil {
		return 0
	}
	if t := loop.TripCount(); t >= 0 && t <= far {
		return t - 1
	}
	return far
}

// testPair is the one dependence test. For references a and b, whose
// last outer iteration and last inner iterations are lasts (the inner
// level is shared when both lie in one loop), it calls edge for every
// direction vector under which some pair of iterations touches a common
// byte, source first, with each level's distance where it is unique.
// Bases that may alias but cannot be compared give the vector (*,*) each
// way. Otherwise the vector is tested with the GCD test and Banerjee's
// bounds over the trip-count box; two accesses of one statement in one
// iteration are no dependence.
func testPair(a, b *Ref, safe bool, opts Options, lasts [3]int64, shared bool,
	edge func(src, dst *Ref, dir [2]Dir, dist [2]int64, known [2]bool)) {
	if !a.Linear || !b.Linear || !sameBase(a.Base, b.Base) || !fitsBounds(a, b) {
		if !BasesMayAlias(a.Base, b.Base, safe, opts) {
			return
		}
		edge(a, b, [2]Dir{Any, Any}, [2]int64{}, [2]bool{})
		if a != b {
			edge(b, a, [2]Dir{Any, Any}, [2]int64{}, [2]bool{})
		}
		return
	}
	inner := []Dir{Any}
	if shared {
		inner = []Dir{LT, EQ, GT}
	}
	delta := a.Offset - b.Offset
	for _, d0 := range []Dir{LT, EQ, GT} {
		for _, d1 := range inner {
			if a == b && d0 != LT && !(d0 == EQ && d1 == LT) {
				continue // the same access, or the mirror of a vector tested
			}
			// a's address minus b's is delta plus one term per level, each
			// bounded under its direction and a multiple of g; the bytes
			// overlap when it lies in [1 - a's size, b's size - 1].
			levels := [2]level{{a.OuterCoef, b.OuterCoef, lasts[0], lasts[0], d0},
				{a.Coef, b.Coef, lasts[1], lasts[2], d1}}
			lo, hi, g, ok := delta, delta, int64(0), true
			for _, l := range levels {
				l0, h0, feasible := l.bounds()
				lo, hi, ok = lo+l0, hi+h0, ok && feasible
				if l.d == EQ {
					g = gcd64(g, abs64(l.ca-l.cb))
				} else {
					g = gcd64(g, gcd64(abs64(l.ca), abs64(l.cb)))
				}
			}
			lo, hi = max(lo, 1-int64(a.Size)), min(hi, int64(b.Size)-1)
			if g != 0 {
				lo += mod64(delta-lo, g) // the least value congruent to delta
			}
			if !ok || lo > hi {
				continue
			}
			var dist [2]int64
			var known [2]bool
			for k, l := range levels {
				o := levels[1-k]
				known[k] = l.d == EQ
				if l.d != EQ && l.d != Any && l.ca == l.cb && l.ca != 0 && o.ca == o.cb && (o.d == EQ || o.ca == 0) {
					dist[k], known[k] = uniqueDistance(l.ca, delta, a.Size, b.Size)
				}
			}
			orient(a, b, [2]Dir{d0, d1}, dist, known, edge)
		}
	}
}

// level is one loop level of a pair test: the two references'
// coefficients, the last iteration each runs, and the direction tested.
type level struct {
	ca, cb, ua, ub int64
	d              Dir
}

// bounds returns the least and greatest value of ca·x − cb·y over the
// iterations 0 ≤ x ≤ ua and 0 ≤ y ≤ ub, with x < y under LT, x = y under
// EQ and x > y under GT (a shared level, ua = ub), and no relation under
// Any; ok is false when no pair of iterations takes the direction. The
// extremes of a linear form lie on the vertices of the region.
func (l level) bounds() (lo, hi int64, ok bool) {
	u := l.ua
	var pts [][2]int64
	switch {
	case l.ua < 0 || l.ub < 0 || l.d != EQ && l.d != Any && u < 1:
		return 0, 0, false
	case l.d == EQ:
		pts = [][2]int64{{0, 0}, {u, u}}
	case l.d == LT:
		pts = [][2]int64{{0, 1}, {0, u}, {u - 1, u}}
	case l.d == GT:
		pts = [][2]int64{{1, 0}, {u, 0}, {u, u - 1}}
	default:
		pts = [][2]int64{{0, 0}, {u, 0}, {0, l.ub}, {u, l.ub}}
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for _, pt := range pts {
		v := l.ca*pt[0] - l.cb*pt[1]
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, true
}

// fitsBounds reports whether bounds over the two references'
// coefficients and offsets stay clear of overflow.
func fitsBounds(a, b *Ref) bool {
	for _, c := range []int64{a.Coef, b.Coef, a.OuterCoef, b.OuterCoef} {
		if abs64(c) > maxCoef {
			return false
		}
	}
	return abs64(a.Offset-b.Offset) <= 1<<60
}

// uniqueDistance solves delta − c·δ ∈ [1 − sa, sb − 1] for the iteration
// distance δ of the second reference after the first, when one δ does.
func uniqueDistance(c, delta int64, sa, sb int) (int64, bool) {
	lo, hi := delta-int64(sb)+1, delta+int64(sa)-1
	if c < 0 {
		c, lo, hi = -c, -hi, -lo
	}
	first := lo + mod64(-lo, c) // the least multiple of c from lo up
	return first / c, first <= hi && first+c > hi
}

// orient hands edge the dependence at direction vector dir, a's
// iteration relative to b's, from whichever access runs first; two
// accesses of one statement in one iteration are none.
func orient(a, b *Ref, dir [2]Dir, dist [2]int64, known [2]bool, edge func(src, dst *Ref, dir [2]Dir, dist [2]int64, known [2]bool)) {
	first := dir[0]
	if first == EQ {
		first = dir[1]
	}
	switch {
	case first == GT:
		a, b = b, a
		for k := range dir {
			dir[k] = flip[dir[k]]
			dist[k] = -dist[k]
		}
	case dir[0] == EQ && first != LT:
		if a.StmtIdx == b.StmtIdx {
			return
		}
		if b.StmtIdx < a.StmtIdx {
			a, b = b, a
		}
	}
	edge(a, b, dir, dist, known)
}

// flip reverses a direction.
var flip = map[Dir]Dir{LT: GT, EQ: EQ, GT: LT, Any: Any}

// mod64 is the non-negative remainder of a modulo m > 0.
func mod64(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
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

// barrierDeps serializes each barrier statement against every
// statement, itself included (a barrier depends on itself across
// iterations).
func barrierDeps(barrier []bool, add func(from, to int)) {
	for i, b := range barrier {
		for j := range barrier {
			if b {
				add(i, j)
			}
			if b && j != i {
				add(j, i)
			}
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

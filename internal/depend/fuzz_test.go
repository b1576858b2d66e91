package depend_test

import (
	"testing"

	. "repro/internal/depend"

	"repro/internal/ctype"
	"repro/internal/il"
)

// FuzzNestDeps checks the dependence test against brute force. The input
// describes a loop, or a 2-nest, of statements *w = *r: each a store and
// an optional load of one array at byte offset d + ci·i + cj·j, with
// sizes 1, 2, 4 or 8, trip counts 1–6 and steps ±1–3 (j, the inner index,
// only in the inner loop). Running the loop and comparing every pair of
// accesses that touch a common byte, one of them a store, gives the
// dependences that really occur:
//
//   - each one of a 2-nest must be an edge of AnalyzeNest's graph whose
//     direction holds the observed one at both levels and whose known
//     distances are the observed ones;
//   - each one that crosses iterations of a single loop — the loop, or the
//     nest's inner loop under one outer iteration — must be a carried
//     edge of AnalyzeLoop's graph with the observed distance where it is
//     known, and each within one iteration an edge not known to be carried
//     any other distance.
func FuzzNestDeps(f *testing.F) {
	for _, seed := range [][]byte{
		// for (i = 0; i <= 9; i += 3) a[i+9] = a[i]: distance 3 iterations,
		// 9 index units.
		{0, 3, 2, 3, 0, 0, 0, 12, 36, 2, 1, 12, 0, 2},
		// a[i][j] = a[i-1][j+1] over bytes, rows of 8: direction (<,>).
		{1, 4, 0, 4, 0, 3, 0, 4, 0, 0, 1, 16, 7, 0, 9, 1, 16, 0, 0, 9},
		// the repeat nest: a[j] = a[j] under every i, direction (<,=).
		{1, 3, 0, 2, 0, 3, 0, 3, 0, 0, 1, 8, 0, 2, 12, 1, 8, 0, 2, 12},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nest := decodeNest(data)
		p, outer, inner := nest.build()
		events := nest.run()
		if inner != nil {
			nd := AnalyzeNest(p, outer, Options{})
			if nd == nil {
				t.Fatalf("not a 2-nest:\n%s", p)
			}
			for _, o := range observe(events, false) {
				if !nestCovers(nd, o) {
					t.Fatalf("%+v is not in the graph %v\n%s", o, nd.Deps, p)
				}
			}
		}
		loop := outer
		if inner != nil {
			loop = inner
		}
		ld := AnalyzeLoop(p, loop, Options{})
		for _, o := range observe(events, inner != nil) {
			if !loopCovers(ld, nest, o) {
				t.Fatalf("%+v is not in the loop's graph %v\n%s", o, ld.Deps, p)
			}
		}
	})
}

// fuzzLoop is one loop header: init, step and trip count.
type fuzzLoop struct{ init, step, trips int64 }

// fuzzStmt is *w = *r at one level: coefficients per unit of i and j and
// offsets in bytes, access sizes, and whether the load is there.
type fuzzStmt struct {
	inner, pre, load bool
	w, r             fuzzRef
}

type fuzzRef struct {
	ci, cj, d int64
	size      int
}

type fuzzNest struct {
	two          bool
	outer, inner fuzzLoop
	stmts        []fuzzStmt // in the order one outer iteration runs them
}

// decodeNest reads a nest description from data, a byte at a time (zero
// once data runs out).
func decodeNest(data []byte) *fuzzNest {
	next := func(n int) int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(int(b) % n)
	}
	header := func() fuzzLoop {
		l := fuzzLoop{init: next(7) - 3, step: next(3) + 1, trips: next(6) + 1}
		if next(2) == 1 {
			l.step = -l.step
		}
		return l
	}
	n := &fuzzNest{two: next(2) == 1}
	n.outer = header()
	if n.two {
		n.inner = header()
	}
	ref := func(inner bool) fuzzRef {
		r := fuzzRef{ci: next(17) - 8, d: next(64), size: 1 << next(4)}
		if inner {
			r.cj = next(17) - 8
		}
		return r
	}
	count := int(next(3)) + 1
	var pre, in, post []fuzzStmt
	for k := 0; k < count; k++ {
		s := fuzzStmt{inner: n.two && next(2) == 1}
		s.pre = !s.inner && next(2) == 1
		s.w = ref(s.inner)
		s.load = next(2) == 1
		s.r = ref(s.inner)
		switch {
		case s.inner:
			in = append(in, s)
		case s.pre:
			pre = append(pre, s)
		default:
			post = append(post, s)
		}
	}
	if n.two && len(in) == 0 {
		in = append(in, fuzzStmt{inner: true, w: fuzzRef{size: 1}})
	}
	n.stmts = append(append(pre, in...), post...)
	return n
}

var sizeTypes = map[int]*ctype.Type{1: ctype.CharType, 2: ctype.ShortType, 4: ctype.IntType, 8: ctype.DoubleType}

// build makes the procedure: the loop over i, or i over j.
func (n *fuzzNest) build() (p *il.Proc, outer, inner *il.DoLoop) {
	var h *il.Arena
	it := ctype.IntType
	p = il.NewProc("f", ctype.VoidType)
	a := p.AddVar(il.Var{Name: "a", Type: ctype.ArrayOf(ctype.CharType, 2048), Class: il.ClassLocal, AddrTaken: true})
	i := p.AddVar(il.Var{Name: "i", Type: it, Class: il.ClassTemp})
	j := p.AddVar(il.Var{Name: "j", Type: it, Class: il.ClassTemp})
	addr := func(r fuzzRef) il.Expr {
		pt := ctype.PointerTo(sizeTypes[r.size])
		e := h.Bin(il.OpAdd, h.AddrOf(a, pt), h.Int(1024+r.d), pt)
		e = h.Bin(il.OpAdd, e, h.Bin(il.OpMul, h.Int(r.ci), h.VarRef(i, it), it), pt)
		if r.cj != 0 {
			e = h.Bin(il.OpAdd, e, h.Bin(il.OpMul, h.Int(r.cj), h.VarRef(j, it), it), pt)
		}
		return e
	}
	header := func(iv il.VarID, l fuzzLoop, body []il.Stmt) *il.DoLoop {
		return h.DoLoop(il.DoLoop{IV: iv, Init: h.Int(l.init), Limit: h.Int(l.init + l.step*(l.trips-1)),
			Step: h.Int(l.step), Body: body})
	}
	var body, innerBody []il.Stmt
	for _, s := range n.stmts {
		wt := sizeTypes[s.w.size]
		var src il.Expr = h.Int(0)
		if s.load {
			src = h.Cast(h.Load(addr(s.r), sizeTypes[s.r.size], false), wt)
		}
		st := h.Assign(il.Assign{Dst: h.Load(addr(s.w), wt, false), Src: src})
		switch {
		case s.inner:
			if innerBody == nil {
				inner = header(j, n.inner, nil)
				body = append(body, inner)
			}
			innerBody = append(innerBody, st)
		default:
			body = append(body, st)
		}
	}
	if inner != nil {
		inner.Body = innerBody
	}
	outer = header(i, n.outer, body)
	p.Body = []il.Stmt{outer}
	return p, outer, inner
}

// event is one access as the loop runs it: the statement (its index in
// the order one outer iteration runs them), the iteration of each level
// (-1 at the outer level of a 2-nest for an outer-level statement), and
// the bytes touched.
type event struct {
	stmt   int
	write  bool
	iter   [2]int64
	lo, hi int64
}

// run lists every access in execution order.
func (n *fuzzNest) run() []event {
	var evs []event
	at := func(r fuzzRef, i, j int64) (int64, int64) {
		lo := r.d + r.ci*i + r.cj*j
		return lo, lo + int64(r.size)
	}
	exec := func(k int, s fuzzStmt, iter [2]int64, i, j int64) {
		if s.load {
			lo, hi := at(s.r, i, j)
			evs = append(evs, event{stmt: k, iter: iter, lo: lo, hi: hi})
		}
		lo, hi := at(s.w, i, j)
		evs = append(evs, event{stmt: k, write: true, iter: iter, lo: lo, hi: hi})
	}
	for k0 := int64(0); k0 < n.outer.trips; k0++ {
		i := n.outer.init + n.outer.step*k0
		innerDone := false
		for k, s := range n.stmts {
			if !s.inner {
				exec(k, s, [2]int64{k0, -1}, i, 0)
				continue
			}
			if innerDone {
				continue
			}
			innerDone = true
			for k1 := int64(0); k1 < n.inner.trips; k1++ {
				j := n.inner.init + n.inner.step*k1
				for kk, ss := range n.stmts {
					if ss.inner {
						exec(kk, ss, [2]int64{k0, k1}, i, j)
					}
				}
			}
		}
	}
	return evs
}

// observed is one dependence that occurred: statement to on from, kind,
// and the sink's iteration minus the source's at each level (shared
// reports whether both lie in the inner loop).
type observed struct {
	from, to int
	kind     DepKind
	dist     [2]int64
	shared   bool
}

// observe pairs the accesses that touch a common byte, a store among
// them, in execution order; two of one statement in one iteration are
// the statement itself. With innerOnly it keeps the pairs of inner-loop
// statements in one outer iteration, the inner loop's own view.
func observe(evs []event, innerOnly bool) []observed {
	var out []observed
	for x := range evs {
		for y := x + 1; y < len(evs); y++ {
			e1, e2 := evs[x], evs[y]
			if !e1.write && !e2.write || e1.hi <= e2.lo || e2.hi <= e1.lo ||
				e1.stmt == e2.stmt && e1.iter == e2.iter {
				continue
			}
			shared := e1.iter[1] >= 0 && e2.iter[1] >= 0
			if innerOnly && (!shared || e1.iter[0] != e2.iter[0]) {
				continue
			}
			kind := Anti
			switch {
			case e1.write && e2.write:
				kind = Output
			case e1.write:
				kind = Flow
			}
			out = append(out, observed{from: e1.stmt, to: e2.stmt, kind: kind, shared: shared,
				dist: [2]int64{e2.iter[0] - e1.iter[0], e2.iter[1] - e1.iter[1]}})
		}
	}
	return out
}

func dirOf(d int64) Dir {
	switch {
	case d > 0:
		return LT
	case d < 0:
		return GT
	}
	return EQ
}

// nestCovers reports whether some edge of the nest's graph holds o.
func nestCovers(nd *NestDeps, o observed) bool {
	for _, d := range nd.Deps {
		if d.From != o.from || d.To != o.to || d.Kind != o.kind {
			continue
		}
		ok := true
		for k := 0; k < 2; k++ {
			if k == 1 && !o.shared {
				ok = ok && d.Dir[1] == Any && !d.Known[1]
				continue
			}
			ok = ok && d.Dir[k]&dirOf(o.dist[k]) != 0 && (!d.Known[k] || d.Dist[k] == o.dist[k])
		}
		if ok {
			return true
		}
	}
	return false
}

// loopCovers reports whether some edge of a single loop's graph holds o:
// the statements are numbered within the loop, and the distance is the
// loop's level of o.
func loopCovers(ld *LoopDeps, n *fuzzNest, o observed) bool {
	level, first := 0, 0
	if n.two {
		level = 1
		for _, s := range n.stmts {
			if s.pre {
				first++
			}
		}
	}
	dist := o.dist[level]
	for _, d := range ld.Deps {
		if d.From != o.from-first || d.To != o.to-first || d.Kind != o.kind || d.Scalar {
			continue
		}
		if dist == 0 && (!d.Carried || !d.Known) || dist > 0 && d.Carried && (!d.Known || d.Distance == dist) {
			return true
		}
	}
	return false
}

package codegen

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/ctype"
	"repro/internal/il"
)

// varRegs is how many registers of each file, from varLo up, hold
// variables.
var varRegs = varHi - varLo + 1

// liveRange is what allocation knows of one variable: its references
// weighted by loop depth, and the statements over which its value may be
// live.
type liveRange struct {
	// weight sums 8^depth over the references; 0 means unreferenced.
	weight int64
	// pinned ranks a loop IV or a region scalar above every weight.
	pinned bool
	// region is the first do parallel whose body references the
	// variable; nil outside every region.
	region *il.DoParallel
	// lo and hi bound the interval in preorder statement numbers, 1 up;
	// a parameter's starts at 0, the prologue that binds it.
	lo, hi int
}

func (r *liveRange) overlaps(o *liveRange) bool {
	return r.weight > 0 && o.weight > 0 && r.lo <= o.hi && o.lo <= r.hi
}

// liveness numbers p's statements in preorder and returns every
// variable's live range, in storage s keeps for the next procedure. An
// interval runs from the first reference to the last, then grows to cover
// each loop or backward-goto span it overlaps, until none straddles it: a
// value defined in such a span may come round to a use before its
// definition, so the span is live throughout.
func (s *scan) liveness(p *il.Proc) []liveRange {
	s.ranges = slices.Grow(s.ranges[:0], len(p.Vars))[:len(p.Vars)]
	clear(s.ranges)
	s.n, s.depth, s.region = 0, 0, nil
	s.spans, s.labels, s.gotos = s.spans[:0], s.labels[:0], s.gotos[:0]
	s.stmts(p.Body)
	for _, gt := range s.gotos {
		for _, l := range s.labels {
			if l.name == gt.name && l.at <= gt.at {
				s.spans = append(s.spans, [2]int{l.at, gt.at})
			}
		}
	}
	for _, id := range p.Params {
		s.ranges[id].lo = 0
	}
	for i := range s.ranges {
		r := &s.ranges[i]
		for grown := r.weight > 0; grown; {
			grown = false
			for _, sp := range s.spans {
				if sp[0] <= r.hi && r.lo <= sp[1] && (sp[0] < r.lo || sp[1] > r.hi) {
					r.lo, r.hi = min(r.lo, sp[0]), max(r.hi, sp[1])
					grown = true
				}
			}
		}
	}
	return s.ranges
}

// mark is a label or a goto's target, at the statement's number.
type mark struct {
	name string
	at   int
}

// scan is a preorder walk over a procedure's statements. One serves every
// procedure of a program, reusing its storage.
type scan struct {
	ranges        []liveRange
	n, depth      int
	region        *il.DoParallel
	spans         [][2]int // loop bodies with their headers
	labels, gotos []mark
	cands         [2][]il.VarID // integer and float candidates
}

// newScan sizes a scan's storage for the largest procedure of prog.
func newScan(prog *il.Program) *scan {
	n := 0
	for _, p := range prog.Procs {
		n = max(n, len(p.Vars))
	}
	ids := make([]il.VarID, 2*n)
	return &scan{
		ranges: make([]liveRange, n),
		spans:  make([][2]int, 0, 16),
		cands:  [2][]il.VarID{ids[:0:n], ids[n:n]},
	}
}

func (s *scan) stmts(list []il.Stmt) {
	for _, st := range list {
		s.n++
		at := s.n
		if _, ok := st.(*il.While); ok {
			s.depth++ // its condition runs every iteration
		}
		il.StmtExprs(st, func(e il.Expr) {
			il.WalkExpr(e, func(x il.Expr) bool {
				if v, ok := x.(*il.VarRef); ok {
					s.use(v.ID, at, false)
				}
				return true
			})
		})
		switch n := st.(type) {
		case *il.Call:
			if n.Dst != il.NoVar {
				s.use(n.Dst, at, false)
			}
		case *il.If:
			s.stmts(n.Then)
			s.stmts(n.Else)
		case *il.While:
			s.stmts(n.Body)
			s.depth--
			s.spans = append(s.spans, [2]int{at, s.n})
		case *il.DoLoop:
			s.loop(at, n.IV, n.Body)
		case *il.DoParallel:
			outer := s.region
			if outer == nil {
				s.region = n
			}
			s.loop(at, n.IV, n.Body)
			s.region = outer
		case *il.Label:
			s.labels = append(s.labels, mark{n.Name, at})
		case *il.Goto:
			s.gotos = append(s.gotos, mark{n.Target, at})
		}
	}
}

// loop scans a DO loop's body; its IV is read and bumped every iteration.
func (s *scan) loop(at int, iv il.VarID, body []il.Stmt) {
	s.depth++
	s.use(iv, at, true)
	s.stmts(body)
	s.depth--
	s.spans = append(s.spans, [2]int{at, s.n})
}

func (s *scan) use(id il.VarID, at int, iv bool) {
	r := &s.ranges[id]
	if r.weight == 0 {
		r.lo = at
	}
	r.hi = at
	r.weight += 1 << (3 * min(s.depth, 20))
	r.pinned = r.pinned || iv || s.region != nil
	if r.region == nil {
		r.region = s.region
	}
}

// allocate gives every variable its location. Globals and statics live
// in the data segment; arrays, aggregates and address-taken scalars in
// the frame. Every other scalar is a candidate for a variable register of
// its file: candidates go heaviest first, and the first varRegs take a
// fresh register each, numbered in declaration order (so a file whose
// scalars all fit keeps one register per scalar). A later candidate
// shares a register none of whose holders' intervals overlaps its own;
// an unreferenced one gets no location. Only then does a candidate take
// a frame slot, which a region scalar may not: the processors of a
// region share the frame.
func (g *gen) allocate() error {
	g.locs = make([]location, len(g.p.Vars))
	cands := &g.scan.cands
	cands[0], cands[1] = cands[0][:0], cands[1][:0]
	for i := range g.p.Vars {
		v := &g.p.Vars[i]
		switch {
		case v.Class == il.ClassGlobal || v.Class == il.ClassStatic:
			a, ok := g.tp.GlobalAddr[v.Name]
			if !ok {
				// An extern never defined in this unit: give it a fresh
				// address at the end of the data segment.
				a = g.tp.DataBase + int64(len(g.tp.Data))
				g.tp.GlobalAddr[v.Name] = a
				g.tp.Data = append(g.tp.Data, make([]byte, v.Type.Size())...)
			}
			g.locs[i] = location{kind: locGlobal, off: a}
		case v.AddrTaken || v.Type.Kind == ctype.Array || v.Type.IsAggregate():
			g.locs[i] = location{kind: locStack, off: g.frameSlot(int64(v.Type.Size()))}
		case v.Type.IsFloat():
			cands[1] = append(cands[1], il.VarID(i))
		default:
			cands[0] = append(cands[0], il.VarID(i))
		}
	}
	ranges := g.scan.liveness(g.p)
	for file, kind := range [2]locKind{locIntReg, locFltReg} {
		if err := g.assignRegs(cands[file], ranges, kind); err != nil {
			return err
		}
	}
	return nil
}

// assignRegs places one file's candidates, given in declaration order.
func (g *gen) assignRegs(cands []il.VarID, ranges []liveRange, kind locKind) error {
	slices.SortStableFunc(cands, func(a, b il.VarID) int {
		ra, rb := &ranges[a], &ranges[b]
		if ra.pinned != rb.pinned {
			if ra.pinned {
				return -1
			}
			return 1
		}
		return cmp.Compare(rb.weight, ra.weight)
	})
	fresh := min(len(cands), varRegs)
	slices.Sort(cands[:fresh])
	for k, id := range cands[:fresh] {
		g.locs[id] = location{kind: kind, reg: varLo + k}
	}
	for i, id := range cands[fresh:] {
		r := &ranges[id]
		if r.weight == 0 {
			continue
		}
		var busy uint64
		for _, o := range cands[:fresh+i] {
			if loc := g.locs[o]; loc.kind == kind && r.overlaps(&ranges[o]) {
				busy |= 1 << (loc.reg - varLo)
			}
		}
		if k := bits.TrailingZeros64(^busy); k < varRegs {
			g.locs[id] = location{kind: kind, reg: varLo + k}
			continue
		}
		if r.region != nil {
			return errf("%v: %s is a scalar of a do parallel region and no register is free for it", r.region.Pos, g.p.Vars[id].Name)
		}
		g.locs[id] = location{kind: locStack, off: g.frameSlot(8)}
	}
	return nil
}

// frameSlot reserves an 8-aligned slot of size bytes (4 if size is 0).
func (g *gen) frameSlot(size int64) int64 {
	if size == 0 {
		size = 4
	}
	g.frame = (g.frame + 7) / 8 * 8
	off := g.frame
	g.frame += size
	return off
}

package codegen

// Loop values: §6's loop-invariant code motion and common subexpressions,
// for the loops its strength reducer never sees — vector strips, do
// parallel bodies and DOACROSS bodies.
//
// Codegen evaluates each expression into fresh virtual registers, so a
// loop body reloads every constant it needs (a global array's base, a
// vector stride, an FP scalar) and multiplies its IV by an element size
// once per reference. Before allocation, two rewrites on the virtual
// registers keep those values in registers over the loop:
//
//   - an ldi or fldi inside a loop moves to the entry of the outermost
//     enclosing loop, after its guard and before its top label, so the
//     back branch skips it (in a do parallel, after pid and nproc: once per
//     processor). Equal constants merge into one register;
//   - a muli of a loop's IV by c that appears twice or more before the IV's
//     one definition in the body is computed once, at the top of the body.
//
// Either rewrite moves a value only if its register has that one
// definition, and merging is the substitution of one such register for
// another. A value that is only copied is left to the allocator, which
// coalesces the copy away. A loop that a branch enters from outside gets
// nothing. The pass only moves and deletes instructions, so a function
// never grows.

import (
	"math"
	"slices"

	"repro/internal/titan"
)

// lvScratch is the pass's storage, part of regAlloc's.
type lvScratch struct {
	ndefs, nuses []int32 // per virtual register: definitions, non-copy uses
	rename       []int32 // per virtual register: the one it reads instead, or -1
	hoistable    []bool  // per loop: no branch from outside enters it
	moved        []int32 // per instruction: the loop it moves to; -1 stays, -2 deleted
	muls         []bool  // per instruction: moved to its loop's top, after the label
	groups       []lvGroup
	index        map[lvKey]int32 // each group's, by what it computes
	order        []int32         // the moved instructions, by where they go
	buf          []titan.Instr
}

// lvGroup is one value a loop keeps: the instruction computing it, whose
// register the others that compute it read instead.
type lvGroup struct {
	loop, at, count int
}

// loopValues rewrites g.f, and its loops and register references
// (regAlloc.load).
func (g *gen) loopValues() {
	a, f := g.ra, g.f
	lv := &a.lv
	n := len(f.Instrs)
	lv.ndefs = resize(lv.ndefs, a.nv)
	lv.nuses = resize(lv.nuses, a.nv)
	lv.rename = resize(lv.rename, a.nv)
	clear(lv.ndefs)
	clear(lv.nuses)
	for v := range lv.rename {
		lv.rename[v] = -1
	}
	for i := range f.Instrs {
		in, refs := &f.Instrs[i], &a.refs[i]
		for _, d := range refs.Defs() {
			if v := a.val(d); v >= 0 {
				lv.ndefs[v]++
			}
		}
		if in.Op != titan.OpMov && in.Op != titan.OpFmov {
			for _, u := range refs.Uses() {
				if v := a.val(u); v >= 0 {
					lv.nuses[v]++
				}
			}
		}
	}
	// A loop a branch from outside enters, bypassing its entry, keeps
	// nothing.
	lv.hoistable = resize(lv.hoistable, len(a.loops))
	for li := range lv.hoistable {
		lv.hoistable[li] = true
	}
	for b := range f.Instrs {
		if in := &f.Instrs[b]; in.Op == titan.OpJmp || in.Op == titan.OpBeqz || in.Op == titan.OpBnez {
			if t, ok := f.Labels[in.Sym]; ok {
				for li := range a.loops {
					if l := &a.loops[li]; l.contains(t) && !l.contains(b) {
						lv.hoistable[li] = false
					}
				}
			}
		}
	}
	lv.moved = resize(lv.moved, n)
	lv.muls = resize(lv.muls, n)
	for i := range lv.moved {
		lv.moved[i], lv.muls[i] = -1, false
	}
	lv.groups = lv.groups[:0]
	if lv.index == nil {
		lv.index = map[lvKey]int32{}
	}
	clear(lv.index)
	moving := false

	// Constants: each to its outermost hoistable loop.
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if (in.Op != titan.OpLdi && in.Op != titan.OpFldi) || !lv.movable(a, in) {
			continue
		}
		to := -1
		for li := range a.loops {
			if l := &a.loops[li]; lv.hoistable[li] && l.contains(i) && (to < 0 || l.top < a.loops[to].top) {
				to = li
			}
		}
		if to >= 0 {
			lv.keep(g, to, i)
			moving = true
		}
	}
	// IV multiples: each loop's, to the top of its body.
	for li := range a.loops {
		l := &a.loops[li]
		if l.iv < 0 || !lv.hoistable[li] {
			continue
		}
		def := -1
		for i := l.top; i <= l.back; i++ {
			if f.Instrs[i].Writes(titan.Ref{File: titan.IntReg, Num: int32(l.iv)}) {
				if def >= 0 {
					def = -1
					break
				}
				def = i
			}
		}
		first := len(lv.groups)
		for i := l.top; i < def; i++ {
			if in := &f.Instrs[i]; in.Op == titan.OpMuli && in.Rs1 == l.iv && lv.moved[i] < 0 && lv.movable(a, in) {
				lv.keep(g, li, i)
			}
		}
		// A multiple that occurs once stays where it is.
		for k := first; k < len(lv.groups); k++ {
			gr := &lv.groups[k]
			if gr.count < 2 {
				lv.moved[gr.at] = -1
			} else {
				lv.muls[gr.at], moving = true, true
			}
		}
		for _, gr := range lv.groups[first:] {
			in := &f.Instrs[gr.at]
			delete(lv.index, lvKey{int32(li), in.Op, in.Imm, 0})
		}
		lv.groups = lv.groups[:first]
	}
	if moving {
		g.placeLoopValues()
	}
}

// movable reports whether in writes a virtual register with no other
// definition, read other than by a copy.
func (lv *lvScratch) movable(a *regAlloc, in *titan.Instr) bool {
	v := in.Rd - vregBase
	return v >= 0 && lv.ndefs[v] == 1 && lv.nuses[v] > 0
}

// keep files instruction i under loop li's group of the value it
// computes: the group's first instruction moves, and the others' registers
// are read as its.
func (lv *lvScratch) keep(g *gen, li, i int) {
	in := &g.f.Instrs[i]
	key := lvKey{int32(li), in.Op, in.Imm, math.Float64bits(in.FImm)}
	if k, ok := lv.index[key]; ok {
		gr := &lv.groups[k]
		gr.count++
		lv.moved[i] = -2 // deleted
		lv.rename[in.Rd-vregBase] = int32(g.f.Instrs[gr.at].Rd)
		return
	}
	lv.index[key] = int32(len(lv.groups))
	lv.groups = append(lv.groups, lvGroup{loop: li, at: i, count: 1})
	lv.moved[i] = int32(li)
}

// lvKey is what a group computes: the constant, or the IV's multiple, one
// loop keeps.
type lvKey struct {
	loop int32
	op   titan.Op
	imm  int64
	fimm uint64
}

// placeLoopValues rebuilds g.f's instructions with the kept values in their
// places — a constant before its loop's top label, an IV multiple after it
// — without the deleted ones and with every register renamed, and moves
// the labels and loops along.
func (g *gen) placeLoopValues() {
	a, f := g.ra, g.f
	lv := &a.lv
	n := len(f.Instrs)
	// at is where moved instruction j goes: twice its loop's top, plus one
	// after the label.
	at := func(j int32) int { return 2*a.loops[lv.moved[j]].top + b2i(lv.muls[j]) }
	lv.order = lv.order[:0]
	for j := range n {
		if lv.moved[j] >= 0 {
			lv.order = append(lv.order, int32(j))
		}
	}
	slices.SortStableFunc(lv.order, func(x, y int32) int { return at(x) - at(y) })
	a.oldToNew = resize(a.oldToNew, n+1)
	out, order := lv.buf[:0], lv.order
	put := func(j int32) {
		out = append(out, f.Instrs[j])
		for _, u := range a.refs[j].Uses() {
			if v := a.val(u); v >= 0 && lv.rename[v] >= 0 {
				out[len(out)-1].RenameUses(u, int(lv.rename[v]))
			}
		}
	}
	for i := 0; i <= n; i++ {
		for ; len(order) > 0 && at(order[0]) == 2*i; order = order[1:] {
			put(order[0])
		}
		a.oldToNew[i] = len(out)
		for ; len(order) > 0 && at(order[0]) == 2*i+1; order = order[1:] {
			put(order[0])
		}
		if i < n && lv.moved[i] == -1 {
			put(int32(i))
		}
	}
	for l, i := range f.Labels {
		f.Labels[l] = a.oldToNew[i]
	}
	for li := range a.loops {
		l := &a.loops[li]
		l.top, l.back = a.oldToNew[l.top], a.oldToNew[l.back]
	}
	lv.buf, f.Instrs = out, out
	a.load(f)
}

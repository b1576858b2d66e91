package codegen

// Loop values in registers: §6's loop-invariant code motion and common
// subexpressions, for the loops its strength reducer never sees — vector
// strips, do parallel bodies and DOACROSS bodies.
//
// Codegen evaluates each expression into pool scratches afresh, so a loop
// body reloads every constant it needs (a global array's base, a vector
// stride, an FP scalar) and multiplies its IV by an element size once per
// reference. After coalesceCopies, one pass over each procedure's loops,
// innermost first, keeps those values in variable registers the allocator
// left free:
//
//   - an ldi or fldi of a constant into a pool scratch anywhere in a loop
//     moves to the loop's entry, after its guard and before its top label,
//     so the back branch skips it (in a do parallel, after pid and nproc:
//     once per processor). Equal constants share one register, and a
//     constant an inner loop hoisted rises again when the outer loop has a
//     register for it;
//   - a muli of the loop's IV by c that appears twice or more before the
//     IV's one definition in the body is computed once, at the top of the
//     body, and shared.
//
// Registers come from the varRegs budget, and only ones that no variable
// whose live interval overlaps the loop holds: a value the pass keeps
// behaves as one more variable live over the loop. Renaming goes only
// through pool scratches, whose values die in their own statement (the
// coalesceCopies invariant). A scratch codegen holds past a label or a
// branch — a loop's limit, a region's init — is marked held where it is
// emitted and never moves. The DOACROSS cells outlive their block as well
// but need no mark: their last writers are a mov, a rem and a sub, which
// the pass never moves. A loop that a branch enters from outside is left
// alone. The pass only moves and deletes instructions, so a function
// never grows.

import (
	"math"
	"slices"
	"sync"

	"repro/internal/titan"
)

// loopSpan is one DO or do parallel loop as codegen emitted it.
type loopSpan struct {
	top  int // the top label's instruction, the body's first
	back int // the back branch
	iv   int // the IV's register
	// at and end number the loop statement and its last body statement in
	// the allocator's preorder (scan.stmts).
	at, end int
}

func (l *loopSpan) encloses(o *loopSpan) bool { return l.top <= o.top && o.back <= l.back }

// placed is a value the pass keeps in a register over a loop: a constant
// hoisted to the loop's entry, or an IV multiple at the top of its body.
type placed struct {
	in    titan.Instr // its one instruction, writing the register
	loop  int         // the loop, an index into loopVals.loops
	ivMul bool
	alive bool // false once an enclosing loop absorbed the constant
}

// lvCand is one instruction, or one placed constant (at < 0), that a loop's
// value group replaces; next is the group's next candidate, -1 after its
// last.
type lvCand struct{ at, place, next int }

// lvGroup is the candidates of one loop that compute one value, in, an
// instruction that writes no register yet.
type lvGroup struct {
	in          titan.Instr
	count, head int
}

// loopVals is the pass's storage, and the loop spans and held scratches
// codegen records for it: reused by every procedure of a Generate call and
// kept between calls in lvPool, so that steady state never allocates.
type loopVals struct {
	loops []loopSpan
	held  []int // instructions defining a scratch held past a label or branch

	isTarget, dead, heldAt []bool
	ndead                  int      // how many instructions dead marks
	branches               [][2]int // each branch and its target
	oldToNew               []int
	places                 []placed
	cands                  []lvCand
	groups                 []lvGroup
	order                  []int // group indices, most candidates first
}

var lvPool = sync.Pool{New: func() any { return new(loopVals) }}

// hold marks the instruction that last wrote scratch r as the definition of
// a value codegen keeps past a label or branch.
func (g *gen) hold(r int) {
	if r < scratchLo || r > scratchHi {
		return
	}
	for i := len(g.f.Instrs) - 1; i >= 0; i-- {
		if g.f.Instrs[i].Writes(regOf(r, false)) {
			g.lv.held = append(g.lv.held, i)
			return
		}
	}
}

// loopValues runs the pass over g.f, whose loops g.lv.loops lists
// innermost first, and returns an exactly sized copy of the result; g.f's
// own instructions are left in their emit buffer, renamed.
func (g *gen) loopValues() []titan.Instr {
	lv, f := g.lv, g.f
	if len(lv.loops) == 0 {
		out := make([]titan.Instr, len(f.Instrs))
		copy(out, f.Instrs)
		return out
	}
	n := len(f.Instrs)
	lv.isTarget = resize(lv.isTarget, n+1)
	clear(lv.isTarget)
	for _, idx := range f.Labels {
		lv.isTarget[idx] = true
	}
	lv.dead = resize(lv.dead, n)
	clear(lv.dead)
	lv.ndead = 0
	lv.heldAt = resize(lv.heldAt, n)
	clear(lv.heldAt)
	for _, i := range lv.held {
		lv.heldAt[i] = true
	}
	lv.branches = lv.branches[:0]
	for i := range f.Instrs {
		if in := &f.Instrs[i]; in.Op == titan.OpJmp || in.Op == titan.OpBeqz || in.Op == titan.OpBnez {
			if t, ok := f.Labels[in.Sym]; ok {
				lv.branches = append(lv.branches, [2]int{i, t})
			}
		}
	}
	lv.places = lv.places[:0]
	for li := range lv.loops {
		if !g.enteredFromOutside(li) {
			busy, inside := g.busyOver(&lv.loops[li]), g.placedInside(li)
			g.hoistConstants(li, busy, &inside)
			g.shareIVMultiples(li, busy[0], &inside[0])
		}
	}
	return g.placeLoopValues()
}

// enteredFromOutside reports whether a branch outside loop li targets an
// instruction of it, bypassing its entry.
func (g *gen) enteredFromOutside(li int) bool {
	l := &g.lv.loops[li]
	for _, bt := range g.lv.branches {
		if b, t := bt[0], bt[1]; t >= l.top && t <= l.back && (b < l.top || b > l.back) {
			return true
		}
	}
	return false
}

// busyOver is, per file (integer, float), the variable registers of the
// budget that a variable whose interval overlaps loop l holds (bit k:
// varLo+k), and every register past the budget.
func (g *gen) busyOver(l *loopSpan) [2]uint64 {
	busy := [2]uint64{^uint64(0) << varRegs, ^uint64(0) << varRegs}
	ranges := g.scan.ranges
	for id, loc := range g.locs {
		if loc.kind != locIntReg && loc.kind != locFltReg {
			continue
		}
		if r := &ranges[id]; r.weight > 0 && r.lo <= l.end && l.at <= r.hi {
			busy[loc.kind-locIntReg] |= 1 << (loc.reg - varLo)
		}
	}
	return busy
}

// placedInside counts, per file and register (varLo+k), the values placed
// inside loop li that hold it.
func (g *gen) placedInside(li int) (n [2][64]int32) {
	lv := g.lv
	for i := range lv.places {
		if p := &lv.places[i]; p.alive && lv.loops[li].encloses(&lv.loops[p.loop]) {
			n[b2i(p.in.Op == titan.OpFldi)][p.in.Rd-varLo]++
		}
	}
	return n
}

// firstFree is the first register of the budget that busy leaves and no
// count of n holds, or -1.
func firstFree(busy uint64, n *[64]int32) int {
	for k := range varRegs {
		if busy&(1<<k) == 0 && n[k] == 0 {
			return varLo + k
		}
	}
	return -1
}

// poolDef reports whether instruction i writes a pool scratch whose value
// dies in its own statement.
func (g *gen) poolDef(i int) bool {
	rd := g.f.Instrs[i].Rd
	return !g.lv.dead[i] && !g.lv.heldAt[i] && rd >= scratchLo && rd <= scratchHi
}

// hoistConstants moves loop li's constant loads to its entry, each value
// into one register; busy is the registers variables hold over the loop
// and inside counts the placed values that hold each, kept up to date.
func (g *gen) hoistConstants(li int, busy [2]uint64, inside *[2][64]int32) {
	lv, f := g.lv, g.f
	l := &lv.loops[li]
	lv.cands, lv.groups = lv.cands[:0], lv.groups[:0]
	for i := l.top; i <= l.back; i++ {
		if in := &f.Instrs[i]; (in.Op == titan.OpLdi || in.Op == titan.OpFldi) && g.poolDef(i) {
			g.addCand(titan.Instr{Op: in.Op, Imm: in.Imm, FImm: in.FImm}, i, -1)
		}
	}
	for pi := range lv.places {
		if p := &lv.places[pi]; p.alive && !p.ivMul && p.loop != li && l.encloses(&lv.loops[p.loop]) {
			g.addCand(titan.Instr{Op: p.in.Op, Imm: p.in.Imm, FImm: p.in.FImm}, -1, pi)
		}
	}
	// The values that occur most take registers first.
	for _, k := range g.groupOrder() {
		gr := &lv.groups[k]
		flt := gr.in.Op == titan.OpFldi
		n := &inside[b2i(flt)]
		// The value's own inner registers are free for it, and the first
		// of them that is free over this loop too saves renaming.
		for c := gr.head; c >= 0; c = lv.cands[c].next {
			if pi := lv.cands[c].place; pi >= 0 {
				n[lv.places[pi].in.Rd-varLo]--
			}
		}
		reg := -1
		for c := gr.head; c >= 0 && reg < 0; c = lv.cands[c].next {
			if pi := lv.cands[c].place; pi >= 0 {
				if r := lv.places[pi].in.Rd; busy[b2i(flt)]&(1<<(r-varLo)) == 0 && n[r-varLo] == 0 {
					reg = r
				}
			}
		}
		if reg < 0 {
			reg = firstFree(busy[b2i(flt)], n)
		}
		if reg < 0 {
			for c := gr.head; c >= 0; c = lv.cands[c].next {
				if pi := lv.cands[c].place; pi >= 0 {
					n[lv.places[pi].in.Rd-varLo]++
				}
			}
			continue // no register: the value stays where it is
		}
		n[reg-varLo]++
		in := gr.in
		in.Rd = reg
		lv.places = append(lv.places, placed{in: in, loop: li, alive: true})
		for c := gr.head; c >= 0; c = lv.cands[c].next {
			if at := lv.cands[c].at; at >= 0 {
				g.renameScratch(at, reg)
				continue
			}
			p := &lv.places[lv.cands[c].place]
			p.alive = false
			if p.in.Rd != reg {
				inner := &lv.loops[p.loop]
				from := regOf(p.in.Rd, flt)
				for i := inner.top; i <= inner.back; i++ {
					f.Instrs[i].RenameUses(from, reg)
				}
			}
		}
	}
}

// addCand files instruction at, or placed value place, under the group
// that computes in.
func (g *gen) addCand(in titan.Instr, at, place int) {
	lv := g.lv
	k := 0
	for ; k < len(lv.groups); k++ {
		if gi := &lv.groups[k].in; gi.Op == in.Op && gi.Imm == in.Imm && math.Float64bits(gi.FImm) == math.Float64bits(in.FImm) {
			break
		}
	}
	if k == len(lv.groups) {
		lv.groups = append(lv.groups, lvGroup{in: in, head: -1})
	}
	gr := &lv.groups[k]
	lv.cands = append(lv.cands, lvCand{at: at, place: place, next: gr.head})
	gr.head, gr.count = len(lv.cands)-1, gr.count+1
}

// groupOrder is the groups' indices, most candidates first.
func (g *gen) groupOrder() []int {
	lv := g.lv
	lv.order = lv.order[:0]
	for k := range lv.groups {
		lv.order = append(lv.order, k)
	}
	slices.SortStableFunc(lv.order, func(a, b int) int { return lv.groups[b].count - lv.groups[a].count })
	return lv.order
}

// shareIVMultiples computes each muli of loop li's IV by a constant that
// its body repeats before the IV's one definition once, at the top of the
// body; busy and inside are hoistConstants' for the integer file.
func (g *gen) shareIVMultiples(li int, busy uint64, inside *[64]int32) {
	lv, f := g.lv, g.f
	l := &lv.loops[li]
	ivRef := regOf(l.iv, false)
	def := -1
	for i := l.top; i <= l.back; i++ {
		if f.Instrs[i].Writes(ivRef) {
			if def >= 0 {
				return
			}
			def = i
		}
	}
	lv.cands, lv.groups = lv.cands[:0], lv.groups[:0]
	for i := l.top; i < def; i++ {
		if in := &f.Instrs[i]; in.Op == titan.OpMuli && in.Rs1 == l.iv && g.poolDef(i) {
			g.addCand(titan.Instr{Op: titan.OpMuli, Rs1: l.iv, Imm: in.Imm}, i, -1)
		}
	}
	for _, gr := range lv.groups {
		if gr.count < 2 {
			continue
		}
		reg := firstFree(busy, inside)
		if reg < 0 {
			return
		}
		inside[reg-varLo]++
		in := gr.in
		in.Rd = reg
		lv.places = append(lv.places, placed{in: in, loop: li, ivMul: true, alive: true})
		for c := gr.head; c >= 0; c = lv.cands[c].next {
			g.renameScratch(lv.cands[c].at, reg)
		}
	}
}

// renameScratch deletes instruction at, which writes a pool scratch, and
// makes the reads of its value read register r instead: up to the
// scratch's next definition, label or control transfer.
func (g *gen) renameScratch(at, r int) {
	f, lv := g.f, g.lv
	lv.dead[at] = true
	lv.ndead++
	flt := f.Instrs[at].Op == titan.OpFldi
	s := regOf(f.Instrs[at].Rd, flt)
	for i := at + 1; i < len(f.Instrs) && !lv.isTarget[i]; i++ {
		in := &f.Instrs[i]
		in.RenameUses(s, r)
		if in.Op.Transfers() || in.Writes(s) {
			return
		}
	}
}

// placeLoopValues returns g.f's instructions in an exactly sized slice,
// without the dead ones and with each value kept in a register in its
// place: a constant before its loop's top label, an IV multiple after it.
// Every other label stays with its instruction.
func (g *gen) placeLoopValues() []titan.Instr {
	lv, f := g.lv, g.f
	// at is where the value of lv.places[i] goes: twice its loop's top,
	// plus one after the label.
	at := func(i int) int { return 2*lv.loops[lv.places[i].loop].top + b2i(lv.places[i].ivMul) }
	lv.order = lv.order[:0]
	for i := range lv.places {
		if lv.places[i].alive {
			lv.order = append(lv.order, i)
		}
	}
	slices.SortStableFunc(lv.order, func(a, b int) int { return at(a) - at(b) })
	n, order := len(f.Instrs), lv.order
	out := make([]titan.Instr, 0, n-lv.ndead+len(order))
	lv.oldToNew = resize(lv.oldToNew, n+1)
	next := 2 * n // where the next value goes
	if len(order) > 0 {
		next = at(order[0])
	}
	run := 0 // the first instruction not yet copied to out
	for i := 0; i <= n; i++ {
		if next/2 == i {
			out = append(out, f.Instrs[run:i]...)
			run = i
			for ; len(order) > 0 && at(order[0]) == 2*i; order = order[1:] {
				out = append(out, lv.places[order[0]].in)
			}
		}
		lv.oldToNew[i] = len(out) + i - run
		if next/2 == i {
			for ; len(order) > 0 && at(order[0]) == 2*i+1; order = order[1:] {
				out = append(out, lv.places[order[0]].in)
			}
			next = 2 * n
			if len(order) > 0 {
				next = at(order[0])
			}
		}
		if i < n && lv.dead[i] {
			out = append(out, f.Instrs[run:i]...)
			run = i + 1
		}
	}
	out = append(out, f.Instrs[run:]...)
	for l, idx := range f.Labels {
		f.Labels[l] = lv.oldToNew[idx]
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

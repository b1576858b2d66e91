package codegen

// Register allocation. Codegen emits virtual registers: every scalar
// variable that may live in a register is one, and every expression
// temporary is a fresh one, numbered from vregBase up. Physical numbers
// appear only where the machine fixes them: sp, the result registers r2
// and f2, the argument registers r8–r15 and f8–f15, asmTemp, vector slots
// and mask registers. After the loop-values pass, one allocator per
// function maps the virtual registers of both files onto the varRegs
// registers of each file from regLo up:
//
//   - Liveness is solved over the basic blocks that labels and control
//     transfers delimit. A value's interval is the list of instruction
//     positions where it is live, so a value live around a loop's back
//     branch holds the whole loop.
//   - A copy between two values whose intervals miss each other is
//     coalesced: the two become one value and the copy goes. Two
//     variables are left apart. A value copied into a register the machine
//     fixes (an argument, a result) right after its one definition, and
//     read nowhere else, is written there directly.
//   - Values are placed heaviest first. A value's weight sums 8^depth over
//     its references, depth counted in the loops codegen records (up to
//     maxDepth), and loop IVs and the values a do parallel region
//     references come before every weight. While a register no other value has held is left, a value
//     takes one, because a reused register adds anti and output edges that
//     the list scheduler must keep. After that it takes the first register
//     whose holders' intervals miss its own, searching on from the one the
//     previous value took, so reuse rotates over the file. If that leaves
//     a value without a register, placement starts again packed: each
//     value takes the lowest register its holders leave free. Spread
//     placement scatters short heavy values over the whole file, so a long
//     light one can find every register taken somewhere along it: without
//     the retry 7 manyprocs procedures spill at the full file
//     (TestFullRegisterFileSpillsNothing).
//   - A value that finds no register is rematerialized before each use
//     when all its definitions load one constant, and otherwise spills to
//     an 8-byte frame slot, loaded into a spill temporary before each use
//     and stored after each definition. A value a do parallel region
//     defines may not spill, because the processors of a region share the
//     frame: codegen refuses it, naming the region.

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/il"
	"repro/internal/titan"
	"repro/internal/token"
)

const (
	// vregBase is the first virtual register number, above every physical
	// register of either file.
	vregBase = titan.NumIntRegs
	// regLo is the first allocatable register of each file.
	regLo = 16
)

// varRegs is how many registers of each file, from regLo up, hold values.
var varRegs = titan.NumIntRegs - regLo

// spillTemps are the registers of each file, below regLo and above the
// result register, that a spilled or rematerialized operand is loaded into
// for its one instruction; a spilled definition is written to the first.
var spillTemps = [2]int{3, 4}

// loopSpan is one loop as codegen emitted it.
type loopSpan struct {
	top  int // the top label's instruction, the body's first
	back int // the back branch
	iv   int // the IV's register; -1 for a while loop
}

func (l *loopSpan) contains(i int) bool { return l.top <= i && i <= l.back }

// span is positions lo..hi of one value's interval: instruction i reads
// its operands at 2i and writes its result at 2i+1. next links a value's
// spans in increasing order.
type span struct{ lo, hi, next int32 }

// value is one virtual register: before coalescing its own, after it the
// class its representative (parent == itself) stands for.
type value struct {
	parent int32
	spans  int32 // the first span, -1 if none
	flt    bool
	isVar  bool // a variable's register, or a class holding one
	pinned bool
	// remat: every definition loads the constant def.
	remat  bool
	def    konst
	region int32 // the first region that defines it, -1 if none
	weight int64
	reg    int   // the register, or 0: spilled
	slot   int64 // the spill slot
	// live is the position its interval is open at during the backward
	// walk (-1 closed), and global its index in the block sets (-1 for a
	// value live in one block only).
	live, global int32
	defBlock     int32
}

// konst is a constant load: ldi or fldi, and its immediate.
type konst struct {
	op   titan.Op
	imm  int64
	fimm float64
}

// Weights count loop depth up to maxDepth and saturate at maxWeight, 8
// references at that depth, so that a class's rank, weight and number
// (below 2^keyBits) pack into one key.
const (
	keyBits   = 26
	maxDepth  = 11
	maxWeight = 1<<(62-keyBits) - 1
)

// classKey is class v's placement key: classes are placed in increasing
// key order, which is rank, then weight, both descending, then v.
func classKey(v int, val *value) uint64 {
	return uint64(2-rank(val))<<62 | uint64(maxWeight-val.weight)<<keyBits | uint64(v)
}

// regAlloc is the allocator's storage, with what codegen records for it:
// the loops, the do parallel regions' positions and the variables' virtual
// registers. One serves every procedure of a Generate call, and raPool
// keeps it between calls.
type regAlloc struct {
	nv      int        // virtual registers numbered so far
	vars    []il.VarID // the variable of virtual register vregBase+k
	loops   []loopSpan
	regions []token.Pos

	vals     []value
	spans    []span
	blocks   []block
	blockOf  []int32
	refs     []titan.Refs // of each instruction (load)
	globals  []int32      // value of each global index
	sets     []uint64
	open     []int32
	depth    []int32
	dead     []bool
	order    []uint64 // classKey of each class
	occ      []uint64
	out      []titan.Instr
	oldToNew []int

	// Storage of the loop-values pass.
	lv lvScratch
}

// block is instructions start..end-1, and the blocks control may go to
// next (-1: none).
type block struct {
	start, end int32
	succ       [2]int32
}

var raPool = sync.Pool{New: func() any { return new(regAlloc) }}

// vreg numbers a fresh virtual register.
func (g *gen) vreg() int {
	g.ra.nv++
	return vregBase + g.ra.nv - 1
}

// reset readies a for a procedure.
func (a *regAlloc) reset() {
	a.nv = 0
	a.vars, a.loops, a.regions = a.vars[:0], a.loops[:0], a.regions[:0]
}

// val is the value r names, or -1 for a physical register.
func (a *regAlloc) val(r titan.Ref) int {
	if (r.File == titan.IntReg || r.File == titan.FltReg) && r.Num >= vregBase {
		return int(r.Num) - vregBase
	}
	return -1
}

func (a *regAlloc) find(v int) int {
	for int(a.vals[v].parent) != v {
		a.vals[v].parent = a.vals[a.vals[v].parent].parent
		v = int(a.vals[v].parent)
	}
	return v
}

// load readies a for f: the registers each instruction reads and writes,
// which the loop-values pass keeps up to date and allocate reads.
func (a *regAlloc) load(f *titan.Func) {
	a.refs = resize(a.refs, len(f.Instrs))
	for i := range f.Instrs {
		a.refs[i] = f.Instrs[i].Refs()
	}
}

// allocate maps the virtual registers of f, which a is loaded with, onto
// physical ones and leaves f.Instrs an exactly sized slice. Instruction 0
// reserves the frame, which grows by the spill slots; it is dropped if
// the frame stays empty. p names the variables in errors.
func (a *regAlloc) allocate(f *titan.Func, p *il.Proc, frame *int64) error {
	ins := f.Instrs
	n := len(ins)
	a.vals = resize(a.vals, a.nv)
	for v := range a.vals {
		a.vals[v] = value{parent: int32(v), spans: -1, remat: true, region: -1, live: -1, global: -1, defBlock: -1,
			isVar: v < len(a.vars)}
	}
	a.dead = resize(a.dead, n)
	clear(a.dead)
	a.liveness(f)
	a.coalesce(f)
	a.weigh(ins)
	if err := a.assign(n, p, frame); err != nil {
		return err
	}
	a.rewrite(f, *frame)
	return nil
}

// liveness splits f into blocks, solves which values are live into and out
// of each, and builds every value's interval.
func (a *regAlloc) liveness(f *titan.Func) {
	ins := f.Instrs
	n := len(ins)
	a.blockOf = resize(a.blockOf, n+1)
	for i := range a.blockOf {
		a.blockOf[i] = 0
	}
	for _, i := range f.Labels {
		a.blockOf[i] = 1
	}
	a.blocks = a.blocks[:0]
	for i := range n {
		if i == 0 || a.blockOf[i] == 1 || ins[i-1].Op.Transfers() {
			a.blocks = append(a.blocks, block{start: int32(i)})
		}
		a.blockOf[i] = int32(len(a.blocks) - 1)
		a.blocks[len(a.blocks)-1].end = int32(i + 1)
	}
	a.blockOf[n] = -1
	nb := len(a.blocks)
	for b := range a.blocks {
		bl := &a.blocks[b]
		bl.succ = [2]int32{-1, -1}
		last := &ins[bl.end-1]
		switch last.Op {
		case titan.OpJmp, titan.OpBeqz, titan.OpBnez:
			if t, ok := f.Labels[last.Sym]; ok {
				bl.succ[0] = a.blockOf[t]
			}
		}
		if last.Op != titan.OpJmp && last.Op != titan.OpRet && last.Op != titan.OpHalt && b+1 < nb {
			bl.succ[1] = int32(b + 1)
		}
	}

	// A value read in a block it was not written in before is global: it
	// may be live across a block boundary. The others live in one block.
	a.globals = a.globals[:0]
	for b, bl := range a.blocks {
		for i := bl.start; i < bl.end; i++ {
			refs := &a.refs[i]
			for _, u := range refs.Uses() {
				if v := a.val(u); v >= 0 && a.vals[v].defBlock != int32(b) && a.vals[v].global < 0 {
					a.vals[v].global = int32(len(a.globals))
					a.globals = append(a.globals, int32(v))
				}
			}
			for _, d := range refs.Defs() {
				if v := a.val(d); v >= 0 {
					a.vals[v].defBlock = int32(b)
				}
			}
		}
	}

	// Per block, the global values read before any write (use), written
	// (def), live in and live out, one bit each.
	words := (len(a.globals) + 63) / 64
	a.sets = resize(a.sets, 4*nb*words)
	clear(a.sets)
	set := func(k, b int) []uint64 { return a.sets[(k*nb+b)*words : (k*nb+b+1)*words] }
	for b, bl := range a.blocks {
		use, def := set(0, b), set(1, b)
		for i := bl.start; i < bl.end; i++ {
			refs := &a.refs[i]
			for _, u := range refs.Uses() {
				if v := a.val(u); v >= 0 {
					if g := a.vals[v].global; g >= 0 && def[g/64]&(1<<(g%64)) == 0 {
						use[g/64] |= 1 << (g % 64)
					}
				}
			}
			for _, d := range refs.Defs() {
				if v := a.val(d); v >= 0 {
					if g := a.vals[v].global; g >= 0 {
						def[g/64] |= 1 << (g % 64)
					}
				}
			}
		}
	}
	for changed := words > 0; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			use, def, in, out := set(0, b), set(1, b), set(2, b), set(3, b)
			for _, s := range a.blocks[b].succ {
				if s >= 0 {
					for w, x := range set(2, int(s)) {
						out[w] |= x
					}
				}
			}
			for w := range in {
				if x := use[w] | out[w]&^def[w]; x != in[w] {
					in[w], changed = x, true
				}
			}
		}
	}

	// Walk each block backward, from the last, so that every value's spans
	// come in decreasing order.
	a.spans = a.spans[:0]
	for b := nb - 1; b >= 0; b-- {
		bl := &a.blocks[b]
		a.open = a.open[:0]
		for w, x := range set(3, b) {
			for ; x != 0; x &= x - 1 {
				v := a.globals[w*64+bits.TrailingZeros64(x)]
				a.vals[v].live = 2*bl.end - 1
				a.open = append(a.open, v)
			}
		}
		for i := bl.end - 1; i >= bl.start; i-- {
			refs := &a.refs[i]
			for _, d := range refs.Defs() {
				if v := a.val(d); v >= 0 {
					val := &a.vals[v]
					a.vals[v].flt = d.File == titan.FltReg
					a.addSpan(v, 2*i+1, max(val.live, 2*i+1))
					val.live = -1
				}
			}
			for _, u := range refs.Uses() {
				if v := a.val(u); v >= 0 && a.vals[v].live < 0 {
					a.vals[v].flt = u.File == titan.FltReg
					a.vals[v].live = 2 * i
					a.open = append(a.open, int32(v))
				}
			}
		}
		for _, v := range a.open {
			if val := &a.vals[v]; val.live >= 0 {
				a.addSpan(int(v), 2*bl.start, val.live)
				val.live = -1
			}
		}
	}
}

// addSpan puts lo..hi in front of v's spans, which all lie after it.
func (a *regAlloc) addSpan(v int, lo, hi int32) {
	val := &a.vals[v]
	if val.spans >= 0 && a.spans[val.spans].lo == hi+1 {
		a.spans[val.spans].lo = lo
		return
	}
	a.spans = append(a.spans, span{lo, hi, val.spans})
	val.spans = int32(len(a.spans) - 1)
}

// overlaps reports whether the intervals of values x and y share a position.
func (a *regAlloc) overlaps(x, y int) bool {
	s, t := a.vals[x].spans, a.vals[y].spans
	for s >= 0 && t >= 0 {
		p, q := &a.spans[s], &a.spans[t]
		switch {
		case p.hi < q.lo:
			s = p.next
		case q.hi < p.lo:
			t = q.next
		default:
			return true
		}
	}
	return false
}

// coalesce merges the two sides of every copy whose intervals miss each
// other, and marks the copy dead. A value defined by the instruction
// before a copy into a fixed register, and read nowhere else, is written to
// that register directly.
func (a *regAlloc) coalesce(f *titan.Func) {
	ins := f.Instrs
	for i := range ins {
		in := &ins[i]
		if in.Op != titan.OpMov && in.Op != titan.OpFmov {
			continue
		}
		file := titan.IntReg
		if in.Op == titan.OpFmov {
			file = titan.FltReg
		}
		s := a.val(titan.Ref{File: file, Num: int32(in.Rs1)})
		if s < 0 {
			continue
		}
		if d := a.val(titan.Ref{File: file, Num: int32(in.Rd)}); d >= 0 {
			x, y := a.find(d), a.find(s)
			if x != y && !(a.vals[x].isVar && a.vals[y].isVar) && !a.overlaps(x, y) {
				a.merge(x, y)
			}
			a.dead[i] = x == a.find(y)
			continue
		}
		// A fixed destination: s must live from the instruction before,
		// dead copies aside, to here and no further.
		j := i - 1
		for j >= 0 && a.dead[j] {
			j--
		}
		c := a.find(s)
		if sp := a.vals[c].spans; j >= 0 && a.blockOf[j] == a.blockOf[i] && sp >= 0 && a.spans[sp].next < 0 &&
			a.spans[sp].lo == int32(2*j+1) && a.spans[sp].hi == int32(2*i) {
			ins[j].Rd = in.Rd
			a.refs[j] = ins[j].Refs()
			a.dead[i] = true
			a.vals[c].spans = -1
		}
	}
}

// merge makes y's class part of x's: their spans, which miss each other,
// merged in order.
func (a *regAlloc) merge(x, y int) {
	vx, vy := &a.vals[x], &a.vals[y]
	vy.parent = int32(x)
	vx.isVar = vx.isVar || vy.isVar
	s, t := vx.spans, vy.spans
	head, tail := int32(-1), int32(-1)
	for s >= 0 || t >= 0 {
		var k int32
		if t < 0 || s >= 0 && a.spans[s].lo < a.spans[t].lo {
			k, s = s, a.spans[s].next
		} else {
			k, t = t, a.spans[t].next
		}
		if tail >= 0 && a.spans[tail].hi+1 == a.spans[k].lo {
			a.spans[tail].hi = a.spans[k].hi
			continue
		}
		if tail >= 0 {
			a.spans[tail].next = k
		} else {
			head = k
		}
		tail = k
	}
	if tail >= 0 {
		a.spans[tail].next = -1
	}
	vx.spans, vy.spans = head, -1
}

// weigh gives every class its weight, pins loop IVs and the classes a
// region references, and finds which classes only load one constant.
func (a *regAlloc) weigh(ins []titan.Instr) {
	n := len(ins)
	a.depth = resize(a.depth, n+1)
	clear(a.depth)
	for _, l := range a.loops {
		a.depth[l.top]++
		a.depth[l.back+1]--
	}
	nest, region, seq := 0, int32(-1), int32(0)
	for i := range ins {
		if i > 0 {
			a.depth[i] += a.depth[i-1]
		}
		switch ins[i].Op {
		case titan.OpParBegin:
			if nest == 0 {
				region = seq
			}
			nest, seq = nest+1, seq+1
			continue
		case titan.OpParEnd:
			if nest--; nest == 0 {
				region = -1
			}
		}
		if a.dead[i] {
			continue
		}
		w := int64(1) << (3 * min(a.depth[i], maxDepth))
		refs := &a.refs[i]
		for _, u := range refs.Uses() {
			if v := a.val(u); v >= 0 {
				c := &a.vals[a.find(v)]
				c.weight = min(c.weight+w, maxWeight)
				c.pinned = c.pinned || region >= 0
			}
		}
		for _, d := range refs.Defs() {
			if v := a.val(d); v >= 0 {
				c := &a.vals[a.find(v)]
				c.weight = min(c.weight+w, maxWeight)
				c.pinned = c.pinned || region >= 0
				if region >= 0 && c.region < 0 {
					c.region = region
				}
				in := &ins[i]
				if in.Op != titan.OpLdi && in.Op != titan.OpFldi {
					c.remat = false
				} else if c.def.op == titan.OpNop {
					c.def = konst{in.Op, in.Imm, in.FImm}
				} else if c.def.imm != in.Imm || math.Float64bits(c.def.fimm) != math.Float64bits(in.FImm) {
					c.remat = false
				}
			}
		}
	}
	for _, l := range a.loops {
		if v := a.val(titan.Ref{File: titan.IntReg, Num: int32(l.iv)}); v >= 0 {
			a.vals[a.find(v)].pinned = true
		}
	}
}

// assign places every class heaviest first: spread while that spills
// nothing, and packed otherwise. A class that finds no register is
// rematerialized or gets a frame slot, unless a region defines it.
func (a *regAlloc) assign(n int, p *il.Proc, frame *int64) error {
	a.order = a.order[:0]
	for v := range a.vals {
		if val := &a.vals[v]; val.parent == int32(v) && val.spans >= 0 {
			val.remat = val.remat && val.def.op != titan.OpNop // a class with no definition is not
			a.order = append(a.order, classKey(v, val))
		}
	}
	slices.Sort(a.order)
	words := (2*n + 63) / 64
	if !a.place(words, false) {
		a.place(words, true)
	}
	for _, k := range a.order {
		v := int(k & (1<<keyBits - 1))
		switch val := &a.vals[v]; {
		case val.reg > 0 || val.remat:
		case val.region >= 0:
			name := "a temporary"
			if w := a.varOf(v); w != il.NoVar && p != nil {
				name = p.Vars[w].Name
			}
			return errf("%v: %s is a scalar of a do parallel region and no register is free for it", a.regions[val.region], name)
		default:
			*frame = (*frame + 7) / 8 * 8
			val.slot = *frame
			*frame += 8
		}
	}
	return nil
}

// place gives the classes registers in order, and reports whether every
// class found one. Spread, a class takes a register no other has held
// while one is left, then the first free for it after the register the
// previous search took; packed, the lowest free for it.
func (a *regAlloc) place(words int, pack bool) bool {
	a.occ = resize(a.occ, 2*varRegs*words)
	clear(a.occ)
	var held, next [2]int // per file: registers some class holds, where the next search starts
	all := true
	for _, o := range a.order {
		v := int(o & (1<<keyBits - 1))
		val := &a.vals[v]
		file := b2i(val.flt)
		k := held[file]
		switch {
		case pack:
			k = a.pick(v, file, words, 0)
		case k >= varRegs:
			k = a.pick(v, file, words, next[file])
			next[file] = k + 1
		}
		held[file] = max(held[file], k+1)
		val.reg = 0
		if k < 0 {
			all = false
			continue
		}
		val.reg = regLo + k
		occ := a.occ[(file*varRegs+k)*words:][:words]
		for s := val.spans; s >= 0; s = a.spans[s].next {
			bitRange(occ, a.spans[s].lo, a.spans[s].hi, true)
		}
	}
	return all
}

// rank orders classes before weights: a class a region defines, which may
// not spill, before any other pinned one, and those before the rest.
func rank(v *value) int { return b2i(v.region >= 0) + b2i(v.pinned) }

// varOf is the variable in class v, or NoVar.
func (a *regAlloc) varOf(v int) il.VarID {
	for w := range a.vars {
		if a.find(w) == v {
			return a.vars[w]
		}
	}
	return il.NoVar
}

// pick is the register of file whose holders' intervals miss value v's:
// the first from start on, cyclically. It is -1 if there is none.
func (a *regAlloc) pick(v, file, words, start int) int {
	val := &a.vals[v]
	for i := range varRegs {
		k := (start + i) % varRegs
		occ := a.occ[(file*varRegs+k)*words:][:words]
		free := true
		for s := val.spans; s >= 0 && free; s = a.spans[s].next {
			free = !bitRange(occ, a.spans[s].lo, a.spans[s].hi, false)
		}
		if free {
			return k
		}
	}
	return -1
}

// bitRange reports whether any of bits lo..hi of bs is set, after setting
// them all if set is true.
func bitRange(bs []uint64, lo, hi int32, set bool) bool {
	any := false
	for w := lo / 64; w <= hi/64; w++ {
		m := ^uint64(0)
		if w == lo/64 {
			m &= ^uint64(0) << (lo % 64)
		}
		if w == hi/64 {
			m &= ^uint64(0) >> (63 - hi%64)
		}
		any = any || bs[w]&m != 0
		if set {
			bs[w] |= m
		}
	}
	return any
}

// rewrite gives every operand its register, loads spilled and
// rematerialized operands into spill temporaries, stores spilled results,
// drops dead copies, and leaves f.Instrs an exactly sized slice with its
// labels moved along.
func (a *regAlloc) rewrite(f *titan.Func, frame int64) {
	ins := f.Instrs
	a.out = a.out[:0]
	a.oldToNew = resize(a.oldToNew, len(ins)+1)
	for i := range ins {
		a.oldToNew[i] = len(a.out)
		if a.dead[i] {
			continue
		}
		in := ins[i]
		if i == 0 {
			if frame > 0 {
				a.out = append(a.out, titan.Instr{Op: titan.OpAddi, Rd: regSP, Rs1: regSP, Imm: -frame})
			}
			continue
		}
		refs := &a.refs[i]
		var temps [2]int  // spill temporaries taken, per file
		var loaded [5]int // classes loaded into them, as val+1
		for k, u := range refs.Uses() {
			v := a.val(u)
			if v < 0 {
				continue
			}
			c := a.find(v)
			val := &a.vals[c]
			if val.reg > 0 {
				in.RenameUses(u, val.reg)
				continue
			}
			file := b2i(val.flt)
			if slices.Contains(loaded[:k], c+1) {
				continue // the same register, read twice and renamed once
			}
			t := spillTemps[temps[file]]
			temps[file]++
			loaded[k] = c + 1
			switch {
			case val.remat:
				a.out = append(a.out, titan.Instr{Op: val.def.op, Rd: t, Imm: val.def.imm, FImm: val.def.fimm})
			case val.flt:
				a.out = append(a.out, titan.Instr{Op: titan.OpFld8, Rd: t, Rs1: regSP, Imm: val.slot})
			default:
				a.out = append(a.out, titan.Instr{Op: titan.OpLd8, Rd: t, Rs1: regSP, Imm: val.slot})
			}
			in.RenameUses(u, t)
		}
		var store *value
		drop := false // a definition of a rematerialized constant
		for _, d := range refs.Defs() {
			if v := a.val(d); v >= 0 {
				switch val := &a.vals[a.find(v)]; {
				case val.reg > 0:
					in.Rd = val.reg
				case val.remat:
					drop = true
				default:
					in.Rd, store = spillTemps[0], val
				}
			}
		}
		if !drop && !((in.Op == titan.OpMov || in.Op == titan.OpFmov) && in.Rd == in.Rs1) {
			a.out = append(a.out, in)
		}
		if store != nil {
			op := titan.OpSt8
			if store.flt {
				op = titan.OpFst8
			}
			a.out = append(a.out, titan.Instr{Op: op, Rs1: regSP, Rs2: spillTemps[0], Imm: store.slot})
		}
	}
	a.oldToNew[len(ins)] = len(a.out)
	for l, i := range f.Labels {
		f.Labels[l] = a.oldToNew[i]
	}
	f.Instrs = append(make([]titan.Instr, 0, len(a.out)), a.out...)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

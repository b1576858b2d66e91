package codegen

// This file implements §6's instruction scheduling: within each basic
// block, instructions are list-scheduled by critical-path priority so that
// independent integer and floating-point instructions interleave and loads
// issue as early as their operands allow. The Titan dispatches in order,
// one instruction per cycle at best, so emission order is the schedule —
// hoisting loads above a dependent FP chain hides the memory latency, and
// mixing pointer bumps between FP operations fills the integer unit's
// otherwise idle slots ("changing the instruction order so that integer
// and floating point instructions overlap and so that memory access and
// computation overlap can provide a significant speedup in many
// programs", §2).
//
// Memory ordering is conservative: stores order against all other memory
// operations; loads reorder freely with loads. The dependence information
// that justified more aggressive reordering at the IL level has already
// been spent (register promotion removed the conflicting references), so
// the conservative rule loses nothing on the §6 workloads. post and wait
// order like stores: the accesses around them are what they synchronize.
//
// Which registers an instruction reads and writes, how it orders against
// memory and whether it ends a block are the machine's facts and come from
// its opcode table (titan.Instr.Refs, titan.Op.Mem, titan.Op.IsControl).

import "repro/internal/titan"

// Schedule reorders every function's basic blocks in place. A block never
// moves, only the instructions inside it, so every label keeps its index.
// One scratch serves every block of the call and is never shared.
func Schedule(tp *titan.Program) {
	var s scheduler
	for _, f := range tp.Funcs {
		s.scheduleFunc(f)
	}
}

// scheduler is the list scheduler's scratch, grown to the largest
// function and block of one Schedule call.
type scheduler struct {
	isTarget                                 []bool
	edges                                    []depEdge
	npred, off, fill, succ, prio, ord, loads []int
	tmp                                      []titan.Instr
	refs                                     refTable
}

type depEdge struct{ from, to int }

// resize returns s with length n, reusing its backing when it is large
// enough; callers clear or overwrite what they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *scheduler) scheduleFunc(f *titan.Func) {
	// Block boundaries: label targets and control transfers.
	s.isTarget = resize(s.isTarget, len(f.Instrs)+1)
	clear(s.isTarget)
	for _, idx := range f.Labels {
		s.isTarget[idx] = true
	}
	start := 0
	for i, in := range f.Instrs {
		if s.isTarget[i] {
			s.scheduleBlock(f.Instrs[start:i])
			start = i
		}
		if in.Op.IsControl() {
			// The control instruction stays the block's terminator.
			s.scheduleBlock(f.Instrs[start:i])
			start = i + 1
		}
	}
	s.scheduleBlock(f.Instrs[start:])
}

// latencyOf is the scheduler's priority weight for an op's result: a
// heuristic, not an ISA fact — the machine's latencies are titan's opcode
// table, and these depart from it (DESIGN.md, "Execution engine", lists
// where). They are kept because they are what the pinned schedules were
// chosen with: the machine's own numbers reorder masked kernels, some for
// the better and some for the worse.
func latencyOf(op titan.Op) int {
	switch op {
	case titan.OpMul, titan.OpMuli:
		return 4
	case titan.OpDiv, titan.OpRem:
		return 12
	case titan.OpLd1, titan.OpLd2, titan.OpLd4, titan.OpFld4, titan.OpFld8:
		return 6
	case titan.OpFadd, titan.OpFsub, titan.OpFmul, titan.OpFneg,
		titan.OpCvtIF, titan.OpCvtFI, titan.OpFmov, titan.OpFldi:
		return 6
	case titan.OpFdiv:
		return 18
	case titan.OpVld, titan.OpVst, titan.OpVadd, titan.OpVsub, titan.OpVmul,
		titan.OpVadds, titan.OpVsubs, titan.OpVsubsr, titan.OpVmuls, titan.OpVbcast,
		titan.OpVldm, titan.OpVstm, titan.OpVaddm, titan.OpVsubm, titan.OpVmulm,
		titan.OpVcmpLt, titan.OpVcmpLe, titan.OpVcmpEq, titan.OpVcmpNe,
		titan.OpVcmpLts, titan.OpVcmpLes, titan.OpVcmpEqs, titan.OpVcmpNes:
		return 16
	case titan.OpVdiv, titan.OpVdivs, titan.OpVdivsr, titan.OpVdivm:
		return 32
	default:
		return 1
	}
}

// scheduleBlock reorders block in place into a legal execution order that
// greedily minimizes the in-order dispatch makespan: list scheduling with
// critical-path priority.
func (s *scheduler) scheduleBlock(block []titan.Instr) {
	n := len(block)
	if n <= 2 {
		return // nothing to reorder
	}

	// Build dependences. Every edge runs from an earlier instruction to a
	// later one, so the graph is acyclic and program order is legal.
	s.edges = s.edges[:0]
	npred := resize(s.npred, n)
	clear(npred)
	addEdge := func(a, b int) {
		s.edges = append(s.edges, depEdge{a, b})
		npred[b]++
	}
	s.refs.reset()
	lastStore := -1
	loads := s.loads[:0]
	for i := range block {
		refs := block[i].Refs()
		for _, u := range refs.Uses() {
			r := s.refs.slot(u)
			if r.def >= 0 {
				addEdge(r.def, i) // RAW
			}
			s.refs.use(r, i)
		}
		for _, d := range refs.Defs() {
			r := s.refs.slot(d)
			if r.def >= 0 {
				addEdge(r.def, i) // WAW
			}
			for u := r.uses; u >= 0; u = s.refs.uses[u].next {
				if at := s.refs.uses[u].at; at != i {
					addEdge(at, i) // WAR
				}
			}
			r.def, r.uses = i, -1
		}
		// Memory ordering.
		switch block[i].Op.Mem() {
		case titan.MemStore, titan.MemFence:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			for _, l := range loads {
				addEdge(l, i)
			}
			lastStore = i
			loads = loads[:0]
		case titan.MemLoad:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			loads = append(loads, i)
		}
	}
	s.loads = loads

	// Successors in CSR form: node i's are succ[off[i]:off[i+1]].
	off := resize(s.off, n+1)
	clear(off)
	for _, e := range s.edges {
		off[e.from+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	fill := resize(s.fill, n)
	copy(fill, off)
	succ := resize(s.succ, len(s.edges))
	for _, e := range s.edges {
		succ[fill[e.from]] = e.to
		fill[e.from]++
	}

	// Critical-path priority: longest latency-weighted path to any sink.
	// Loads get a small bonus — a load whose consumer lives in a later
	// block has no in-block successors, yet issuing it early still hides
	// its latency downstream.
	prio := resize(s.prio, n)
	for i := n - 1; i >= 0; i-- {
		best := 0
		for _, t := range succ[off[i]:off[i+1]] {
			best = max(best, prio[t])
		}
		prio[i] = best + latencyOf(block[i].Op)
		if block[i].Op.Mem() == titan.MemLoad {
			prio[i] += 2
		}
	}

	// List schedule: among ready instructions pick highest priority,
	// breaking ties by original order (stability). The earliest
	// unscheduled instruction is always ready; npred −1 marks a scheduled
	// one.
	order := s.ord[:0]
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if npred[i] != 0 {
				continue
			}
			if best == -1 || prio[i] > prio[best] {
				best = i
			}
		}
		npred[best] = -1
		order = append(order, best)
		for _, t := range succ[off[best]:off[best+1]] {
			npred[t]--
		}
	}
	s.tmp = append(s.tmp[:0], block...)
	for k, i := range order {
		block[k] = s.tmp[i]
	}
	s.npred, s.off, s.fill, s.succ, s.prio, s.ord = npred, off, fill, succ, prio, order
}

// refTable maps each register one block touches to the block's last
// definition of it and the uses since. Integer, float, mask and VL
// registers have dense slots, which belong to the block only while they
// carry its epoch, so starting a block clears nothing. Vector slots, and
// any number outside its file, go in a short list each block empties.
// The uses are linked lists threaded through one pool.
type refTable struct {
	epoch uint32
	dense [denseRefs]refSlot
	other []otherRef
	uses  []useNode
}

type refSlot struct {
	epoch     uint32
	def, uses int // last definition and head of the uses since; -1 if none
}

type otherRef struct {
	ref titan.Ref
	refSlot
}

type useNode struct{ at, next int }

const (
	denseFlt  = titan.NumIntRegs
	denseMask = denseFlt + titan.NumFltRegs
	denseVL   = denseMask + titan.NumMaskRegs
	denseRefs = denseVL + 1
)

func (t *refTable) reset() {
	t.epoch++
	t.other = t.other[:0]
	t.uses = t.uses[:0]
}

// slot returns r's entry for the current block.
func (t *refTable) slot(r titan.Ref) *refSlot {
	i := -1
	switch {
	case r.File == titan.IntReg && uint(r.Num) < titan.NumIntRegs:
		i = r.Num
	case r.File == titan.FltReg && uint(r.Num) < titan.NumFltRegs:
		i = denseFlt + r.Num
	case r.File == titan.MaskReg && uint(r.Num) < titan.NumMaskRegs:
		i = denseMask + r.Num
	case r.File == titan.VLReg && r.Num == 0:
		i = denseVL
	}
	if i >= 0 {
		if t.dense[i].epoch != t.epoch {
			t.dense[i] = refSlot{epoch: t.epoch, def: -1, uses: -1}
		}
		return &t.dense[i]
	}
	for k := range t.other {
		if t.other[k].ref == r {
			return &t.other[k].refSlot
		}
	}
	t.other = append(t.other, otherRef{r, refSlot{def: -1, uses: -1}})
	return &t.other[len(t.other)-1].refSlot
}

// use records that instruction at reads r's register.
func (t *refTable) use(r *refSlot, at int) {
	t.uses = append(t.uses, useNode{at, r.uses})
	r.uses = len(t.uses) - 1
}

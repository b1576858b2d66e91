package codegen

// This file implements §6's instruction scheduling: within each basic
// block, instructions are list-scheduled against an estimate of the
// Titan's own dispatch so that independent integer and floating-point
// instructions interleave and loads issue as early as their operands
// allow. The Titan dispatches in order, one instruction per cycle at best,
// each as soon as the operands it waits for are ready and its unit is
// free, so emission order is the schedule — hoisting loads above a
// dependent FP chain hides the memory latency, and mixing pointer bumps
// between FP operations fills the integer unit's otherwise idle slots
// ("changing the instruction order so that integer and floating point
// instructions overlap and so that memory access and computation overlap
// can provide a significant speedup in many programs", §2).
//
// Memory ordering is conservative: stores order against all other memory
// operations; loads reorder freely with loads. The dependence information
// that justified more aggressive reordering at the IL level has already
// been spent (register promotion removed the conflicting references), so
// the conservative rule loses nothing on the §6 workloads. post and wait
// order like stores: the accesses around them are what they synchronize.
//
// Which registers an instruction reads and writes, how it orders against
// memory, whether it ends a block and when it issues are the machine's
// facts (titan.Instr.Refs, titan.Op.Mem, titan.Op.IsControl,
// titan.Scoreboard), a vector op issuing at the strip length.

import (
	"sync"

	"repro/internal/schedule"
	"repro/internal/titan"
)

// Schedule reorders every function's basic blocks in place. A block never
// moves, only the instructions inside it, so every label keeps its index.
// One scratch serves every block of the call and is never shared.
func Schedule(tp *titan.Program) {
	s := schedulers.Get().(*scheduler)
	defer schedulers.Put(s)
	for _, f := range tp.Funcs {
		s.scheduleFunc(f)
	}
}

// schedulers keeps scratches between calls, so that a call neither
// allocates nor clears a scoreboard's VRF-sized array.
var schedulers = sync.Pool{New: func() any { return new(scheduler) }}

// scheduler is the list scheduler's scratch, grown to the largest
// function and block it has scheduled.
type scheduler struct {
	isTarget                       []bool
	edges, succ                    []depEdge
	npred, off, prio, loads, avail []int
	tmp                            []titan.Instr
	refs                           refTable
	sb                             titan.Scoreboard
}

// depEdge orders instruction to after instruction from. Where to waits
// for from's result, to dispatches no earlier than that result is ready;
// any other edge only orders, and to may dispatch a cycle after from.
type depEdge struct {
	from, to int32
	waits    bool
}

// delay is how many cycles after from issues to may issue, lat being
// from's result latency.
func (e depEdge) delay(lat int) int {
	if e.waits {
		return lat
	}
	return 1
}

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

// scheduleBlock reorders block in place into a legal execution order that
// greedily minimizes the in-order dispatch makespan: list scheduling
// against an estimate of the machine's own dispatch.
func (s *scheduler) scheduleBlock(block []titan.Instr) {
	n := len(block)
	if n <= 2 {
		return // nothing to reorder
	}

	// Build dependences. Every edge runs from an earlier instruction to a
	// later one, so the graph is acyclic and program order is legal. Only
	// a read waits for the value it reads, and a store's data is not
	// waited for: it drains through the store buffer. Anti, output and
	// memory edges order and nothing more, as the machine has it.
	s.edges = s.edges[:0]
	npred := resize(s.npred, n)
	clear(npred)
	addEdge := func(a, b int, waits bool) {
		s.edges = append(s.edges, depEdge{int32(a), int32(b), waits})
		npred[b]++
	}
	s.refs.reset()
	lastStore := -1
	loads := s.loads[:0]
	for i := range block {
		refs := block[i].Refs()
		for k, u := range refs.Uses() {
			r := s.refs.slot(u)
			if r.def >= 0 {
				addEdge(r.def, i, !refs.IsData(k)) // RAW
			}
			s.refs.use(r, i)
		}
		for _, d := range refs.Defs() {
			r := s.refs.slot(d)
			if r.def >= 0 {
				addEdge(r.def, i, false) // WAW
			}
			for u := r.uses; u >= 0; u = s.refs.uses[u].next {
				if at := s.refs.uses[u].at; at != i {
					addEdge(at, i, false) // WAR
				}
			}
			r.def, r.uses = i, -1
		}
		// Memory ordering.
		switch block[i].Op.Mem() {
		case titan.MemStore, titan.MemFence:
			if lastStore >= 0 {
				addEdge(lastStore, i, false)
			}
			for _, l := range loads {
				addEdge(l, i, false)
			}
			lastStore = i
			loads = loads[:0]
		case titan.MemLoad:
			if lastStore >= 0 {
				addEdge(lastStore, i, false)
			}
			loads = append(loads, i)
		}
	}
	s.loads = loads

	// Successors in CSR form: node i's are succ[off[i]:off[i+1]]. off[i]
	// counts up to the end of i's and back down to their start.
	off := resize(s.off, n+1)
	clear(off)
	for _, e := range s.edges {
		off[e.from]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	succ := resize(s.succ, len(s.edges))
	for _, e := range s.edges {
		off[e.from]--
		succ[off[e.from]] = e
	}

	// Critical-path priority: longest path to the end of the block, each
	// edge weighing its delay and a sink its latency. Loads get a small
	// bonus — a load whose consumer lives in a later block has no in-block
	// successors, yet issuing it early still hides its latency downstream.
	prio := resize(s.prio, n)
	for i := n - 1; i >= 0; i-- {
		lat := int(s.sb.Latency(block[i].Op, schedule.DefaultVL))
		p := 0
		for _, e := range succ[off[i]:off[i+1]] {
			p = max(p, e.delay(lat)+prio[e.to])
		}
		if p == 0 { // a sink
			p = lat
		}
		if block[i].Op.Mem() == titan.MemLoad {
			p += 2
		}
		prio[i] = p
	}

	// List schedule on a scoreboard idle at the block's start, which waits
	// for what each edge carries (WAR and WAW edges keep a use's RAW
	// source the register's last placed definition). Of the instructions
	// whose predecessors are all placed (avail), pick the one that issues
	// earliest, then the highest priority, then the earliest in the block.
	avail := resize(s.avail, n)[:0]
	for i := range n {
		if npred[i] == 0 {
			avail = append(avail, i)
		}
	}
	s.tmp = append(s.tmp[:0], block...)
	s.sb.Reset()
	for placed := range n {
		k, at := 0, int64(0)
		for j, i := range avail {
			issue := s.sb.IssueAt(&s.tmp[i])
			if b := avail[k]; j == 0 || issue < at || issue == at && (prio[i] > prio[b] || prio[i] == prio[b] && i < b) {
				k, at = j, issue
			}
		}
		best := avail[k]
		avail[k] = avail[len(avail)-1]
		avail = avail[:len(avail)-1]
		block[placed] = s.tmp[best]
		s.sb.Issue(&s.tmp[best], schedule.DefaultVL)
		for _, e := range succ[off[best]:off[best+1]] {
			if npred[e.to]--; npred[e.to] == 0 {
				avail = append(avail, int(e.to))
			}
		}
	}
	s.npred, s.off, s.succ, s.prio, s.avail = npred, off, succ, prio, avail
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
	i, n := -1, int(r.Num)
	switch {
	case r.File == titan.IntReg && uint(n) < titan.NumIntRegs:
		i = n
	case r.File == titan.FltReg && uint(n) < titan.NumFltRegs:
		i = denseFlt + n
	case r.File == titan.MaskReg && uint(n) < titan.NumMaskRegs:
		i = denseMask + n
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

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

// Schedule reorders every function's basic blocks in place.
func Schedule(tp *titan.Program) {
	for _, f := range tp.Funcs {
		scheduleFunc(f)
	}
}

func scheduleFunc(f *titan.Func) {
	// Block boundaries: label targets and control transfers.
	isTarget := make([]bool, len(f.Instrs)+1)
	for _, idx := range f.Labels {
		isTarget[idx] = true
	}
	var out []titan.Instr
	// oldToNew maps old block-start indices to new positions; labels only
	// ever point at block starts (label targets force boundaries).
	oldToNew := map[int]int{}

	flush := func(block []titan.Instr, oldStart int) {
		oldToNew[oldStart] = len(out)
		if len(block) <= 2 {
			// Nothing to reorder; skip the scheduler's bookkeeping.
			out = append(out, block...)
			return
		}
		order := scheduleBlock(block)
		for _, oi := range order {
			out = append(out, block[oi])
		}
	}

	start := 0
	for i := 0; i <= len(f.Instrs); i++ {
		atEnd := i == len(f.Instrs)
		if !atEnd && isTarget[i] {
			if i > start {
				flush(f.Instrs[start:i], start)
			}
			oldToNew[i] = len(out)
			start = i
		}
		if atEnd {
			if i > start {
				flush(f.Instrs[start:i], start)
			}
			oldToNew[i] = len(out)
			break
		}
		if f.Instrs[i].Op.IsControl() {
			// Schedule the straight-line prefix, keep the control
			// instruction as the block terminator.
			if i > start {
				flush(f.Instrs[start:i], start)
			}
			oldToNew[i] = len(out)
			out = append(out, f.Instrs[i])
			start = i + 1
		}
	}

	// Remap labels. Every label target was recorded as a block start or a
	// control-instruction position.
	newLabels := make(map[string]int, len(f.Labels))
	for l, idx := range f.Labels {
		n, ok := oldToNew[idx]
		if !ok {
			// Defensive: leave the function unscheduled rather than emit
			// a wrong branch target.
			return
		}
		newLabels[l] = n
	}
	f.Labels = newLabels
	f.Instrs = out
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

// scheduleBlock returns a legal execution order (indices into block) that
// greedily minimizes the in-order dispatch makespan: list scheduling with
// critical-path priority.
func scheduleBlock(block []titan.Instr) []int {
	n := len(block)
	if n <= 2 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}

	// Build dependences. Edges are collected into one pooled list and the
	// per-node successor slices carved from a single backing array
	// afterwards (insertion order preserved), instead of growing n small
	// slices.
	type depEdge struct{ from, to int }
	var edges []depEdge
	npred := make([]int, n)
	addEdge := func(a, b int) {
		edges = append(edges, depEdge{a, b})
		npred[b]++
	}
	lastDef := map[titan.Ref]int{}
	lastUses := map[titan.Ref][]int{}
	lastStore := -1
	var loadsSinceStore []int
	for i := 0; i < n; i++ {
		refs := block[i].Refs()
		for _, u := range refs.Uses() {
			if d, ok := lastDef[u]; ok {
				addEdge(d, i) // RAW
			}
			lastUses[u] = append(lastUses[u], i)
		}
		for _, d := range refs.Defs() {
			if pd, ok := lastDef[d]; ok {
				addEdge(pd, i) // WAW
			}
			for _, u := range lastUses[d] {
				if u != i {
					addEdge(u, i) // WAR
				}
			}
			lastDef[d] = i
			lastUses[d] = nil
		}
		// Memory ordering.
		switch block[i].Op.Mem() {
		case titan.MemStore, titan.MemFence:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			for _, l := range loadsSinceStore {
				addEdge(l, i)
			}
			lastStore = i
			loadsSinceStore = nil
		case titan.MemLoad:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		}
	}
	succ := make([][]int, n)
	succBacking := make([]int, len(edges))
	cnt := make([]int, n)
	for _, e := range edges {
		cnt[e.from]++
	}
	off := 0
	for i := 0; i < n; i++ {
		succ[i] = succBacking[off : off : off+cnt[i]]
		off += cnt[i]
	}
	for _, e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}

	// Critical-path priority: longest latency-weighted path to any sink.
	// Loads get a small bonus — a load whose consumer lives in a later
	// block has no in-block successors, yet issuing it early still hides
	// its latency downstream.
	prio := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		best := 0
		for _, s := range succ[i] {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[i] = best + latencyOf(block[i].Op)
		if block[i].Op.Mem() == titan.MemLoad {
			prio[i] += 2
		}
	}

	// List schedule: among ready instructions pick highest priority,
	// breaking ties by original order (stability).
	order := make([]int, 0, n)
	scheduled := make([]bool, n)
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if scheduled[i] || npred[i] > 0 {
				continue
			}
			if best == -1 || prio[i] > prio[best] {
				best = i
			}
		}
		if best == -1 {
			// Cycle (cannot happen with a well-formed DAG); bail out to
			// original order for safety.
			order = order[:0]
			for i := 0; i < n; i++ {
				order = append(order, i)
			}
			return order
		}
		scheduled[best] = true
		order = append(order, best)
		for _, s := range succ[best] {
			npred[s]--
		}
	}
	return order
}

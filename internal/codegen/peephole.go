package codegen

// Copy coalescing: the expression generator evaluates into scratch
// registers and then moves results into variable registers, producing
//
//	addi r16, r43, 4        fadd f16, f40, f41
//	mov  r43, r16           fmov f40, f16
//
// pairs. The peephole rewrites the defining instruction to target the
// variable register directly and deletes the move, provided the scratch
// value has no later use. Beyond code size, this matters for timing: a
// trailing fmov adds a full FP-unit latency to every loop-carried
// recurrence (the §6 f_reg chain).
//
// It runs as each procedure is generated, before the loop-values pass, and
// compacts the function's instructions where they are, carrying the loop
// spans and held scratches lv records along, with lv's storage.

import (
	"slices"

	"repro/internal/titan"
)

func coalesceCopies(f *titan.Func, lv *loopVals) {
	// Branch targets invalidate adjacency assumptions.
	lv.isTarget = resize(lv.isTarget, len(f.Instrs)+1)
	clear(lv.isTarget)
	isTarget := lv.isTarget
	for _, idx := range f.Labels {
		isTarget[idx] = true
	}

	lv.dead = resize(lv.dead, len(f.Instrs))
	clear(lv.dead)
	removed := lv.dead
	for i := 0; i+1 < len(f.Instrs); i++ {
		if removed[i] || isTarget[i+1] {
			continue
		}
		mv := f.Instrs[i+1]
		isFlt := mv.Op == titan.OpFmov
		if !isFlt && mv.Op != titan.OpMov {
			continue
		}
		s := mv.Rs1
		if s < scratchLo || s > scratchHi {
			continue
		}
		def := &f.Instrs[i]
		if !def.Writes(regOf(s, isFlt)) {
			continue
		}
		// The scratch value must not be read again before its next write
		// (or a control transfer, which conservatively blocks).
		if scratchLiveAfter(f, i+2, s, isFlt, isTarget) {
			continue
		}
		def.Rd = mv.Rd
		removed[i+1] = true
	}
	if !slices.Contains(removed, true) {
		return
	}
	lv.oldToNew = resize(lv.oldToNew, len(f.Instrs)+1)
	oldToNew := lv.oldToNew
	w := 0
	for i, in := range f.Instrs {
		oldToNew[i] = w
		if !removed[i] {
			f.Instrs[w] = in
			w++
		}
	}
	oldToNew[len(f.Instrs)] = w
	for l, idx := range f.Labels {
		f.Labels[l] = oldToNew[idx]
	}
	for k := range lv.loops {
		l := &lv.loops[k]
		l.top, l.back = oldToNew[l.top], oldToNew[l.back]
	}
	for k, i := range lv.held {
		lv.held[k] = oldToNew[i]
	}
	f.Instrs = f.Instrs[:w]
}

// regOf names register r of the integer or the float file.
func regOf(r int, flt bool) titan.Ref {
	if flt {
		return titan.Ref{File: titan.FltReg, Num: r}
	}
	return titan.Ref{File: titan.IntReg, Num: r}
}

// scratchLiveAfter reports whether register s may be read at or after
// position i before being rewritten.
//
// The scan exploits a code-generator invariant: scratch registers from the
// free pool never carry values across statement boundaries, and registers
// held across a region (a DO loop's limit register, a parallel loop's
// stride) are removed from the pool for the region's duration, so they can
// never be the destination of a coalescing candidate. A control transfer
// or label therefore ends the scratch's live range.
func scratchLiveAfter(f *titan.Func, i int, s int, flt bool, isTarget []bool) bool {
	reg := regOf(s, flt)
	for ; i < len(f.Instrs); i++ {
		if isTarget[i] {
			return false // statement boundary: pool scratches are dead
		}
		refs := f.Instrs[i].Refs()
		if slices.Contains(refs.Uses(), reg) {
			return true
		}
		if slices.Contains(refs.Defs(), reg) {
			return false // rewritten before any read
		}
		if f.Instrs[i].Op.Transfers() {
			return false // statement boundary
		}
	}
	return false
}

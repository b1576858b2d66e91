package codegen

import (
	"fmt"

	"repro/internal/il"
	"repro/internal/titan"
)

// SetVarRegs lets n registers of each file hold variables, until the
// returned function restores the count.
func SetVarRegs(n int) (restore func()) {
	old := varRegs
	varRegs = n
	return func() { varRegs = old }
}

// LoopValuesSizes generates every procedure of prog and returns each
// function's instruction count as coalesceCopies leaves it and after the
// loop-values pass.
func LoopValuesSizes(prog *il.Program) (before, after map[string]int, err error) {
	tp := layout(prog)
	sc, lv := newScan(prog), new(loopVals)
	before, after = map[string]int{}, map[string]int{}
	for _, p := range prog.Procs {
		g, err := genBody(p, tp, nil, sc, lv)
		if err != nil {
			return nil, nil, err
		}
		before[p.Name] = len(g.f.Instrs)
		after[p.Name] = len(g.loopValues())
	}
	return before, after, nil
}

// UnheldCrossingScratches generates prog and lists, per function, each
// instruction the loop-values pass could move — an ldi or fldi into a pool
// scratch, or a muli of a variable register into one — whose value is
// live past the end of its basic block although codegen did not mark it
// held. Liveness is solved over the blocks of the function as coalesceCopies
// leaves it, for the pool scratches of both files.
func UnheldCrossingScratches(prog *il.Program) ([]string, error) {
	tp := layout(prog)
	sc, lv := newScan(prog), new(loopVals)
	var bad []string
	for _, p := range prog.Procs {
		g, err := genBody(p, tp, nil, sc, lv)
		if err != nil {
			return nil, err
		}
		bad = append(bad, unheldCrossing(g.f, lv.held)...)
	}
	return bad, nil
}

func unheldCrossing(f *titan.Func, held []int) []string {
	n := len(f.Instrs)
	bit := func(r titan.Ref) uint32 {
		if (r.File != titan.IntReg && r.File != titan.FltReg) || r.Num < scratchLo || r.Num > scratchHi {
			return 0
		}
		return 1 << (r.Num - scratchLo + 16*b2i(r.File == titan.FltReg))
	}
	// Blocks start at 0, at every label and after every transfer.
	start := make([]bool, n+1)
	start[0] = true
	for _, idx := range f.Labels {
		start[idx] = true
	}
	for i, in := range f.Instrs {
		if in.Op.Transfers() {
			start[i+1] = true
		}
	}
	var blocks [][2]int
	blockAt := make([]int, n+1)
	for i := 0; i < n; i++ {
		if start[i] {
			blocks = append(blocks, [2]int{i, i})
		}
		blocks[len(blocks)-1][1] = i + 1
		blockAt[i] = len(blocks) - 1
	}
	blockAt[n] = len(blocks)
	succs := func(b int) []int {
		last := f.Instrs[blocks[b][1]-1]
		var s []int
		if t, ok := f.Labels[last.Sym]; ok && (last.Op == titan.OpJmp || last.Op == titan.OpBeqz || last.Op == titan.OpBnez) {
			s = append(s, blockAt[t])
		}
		if last.Op != titan.OpJmp && last.Op != titan.OpRet && last.Op != titan.OpHalt {
			s = append(s, b+1)
		}
		return s
	}
	in, out := make([]uint32, len(blocks)+1), make([]uint32, len(blocks)+1)
	for changed := true; changed; {
		changed = false
		for b := len(blocks) - 1; b >= 0; b-- {
			var o uint32
			for _, s := range succs(b) {
				o |= in[s]
			}
			live := o
			for i := blocks[b][1] - 1; i >= blocks[b][0]; i-- {
				refs := f.Instrs[i].Refs()
				for _, d := range refs.Defs() {
					live &^= bit(d)
				}
				for _, u := range refs.Uses() {
					live |= bit(u)
				}
			}
			if o != out[b] || live != in[b] {
				out[b], in[b], changed = o, live, true
			}
		}
	}
	isHeld := map[int]bool{}
	for _, i := range held {
		isHeld[i] = true
	}
	var bad []string
	for i, ins := range f.Instrs {
		movable := ins.Op == titan.OpLdi || ins.Op == titan.OpFldi || (ins.Op == titan.OpMuli && ins.Rs1 >= varLo)
		if !movable || ins.Rd < scratchLo || ins.Rd > scratchHi || isHeld[i] {
			continue
		}
		s := regOf(ins.Rd, ins.Op == titan.OpFldi)
		b, crosses := blockAt[i], true
		for j := i + 1; j < blocks[b][1]; j++ {
			if f.Instrs[j].Writes(s) {
				crosses = false
				break
			}
		}
		if crosses && out[b]&bit(s) != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d: %s", f.Name, i, ins))
		}
	}
	return bad
}

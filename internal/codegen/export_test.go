package codegen

import "repro/internal/il"

// SetVarRegs lets n registers of each file hold values, until the
// returned function restores the count.
func SetVarRegs(n int) (restore func()) {
	old := varRegs
	varRegs = n
	return func() { varRegs = old }
}

// LoopValuesSizes generates every procedure of prog and returns each
// function's instruction count as codegen emits it and after the
// loop-values pass.
func LoopValuesSizes(prog *il.Program) (before, after map[string]int, err error) {
	tp := layout(prog)
	ra := new(regAlloc)
	before, after = map[string]int{}, map[string]int{}
	for _, p := range prog.Procs {
		g, err := genBody(p, tp, nil, ra)
		if err != nil {
			return nil, nil, err
		}
		before[p.Name] = len(g.f.Instrs)
		ra.load(g.f)
		g.loopValues()
		after[p.Name] = len(g.f.Instrs)
	}
	return before, after, nil
}

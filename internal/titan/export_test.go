package titan

import "reflect"

// What the external tests (package titan_test, which may import the
// compiler) need of a machine's insides.

// NewUnpooled is NewMachine on state no other machine ever held.
func NewUnpooled(prog *Program, processors int) *Machine {
	m := new(Machine)
	m.load(prog, processors)
	return m
}

// Mem is the machine's memory image.
func (m *Machine) Mem() []byte { return m.mem }

// Leftover names a piece of state, the image apart, that is not as a new
// machine has it; "" when there is none.
func (m *Machine) Leftover() string {
	switch {
	case !reflect.DeepEqual(&m.root, &cpu{}) || m.rootUsed:
		return "root cpu"
	case m.scratch != nil && !reflect.DeepEqual(m.scratch, &regionScratch{}) || m.scratchBusy.Load():
		return "region scratch"
	case m.procStats != [MaxProcessors]ProcStat{}:
		return "processor statistics"
	case m.out.Len() != 0:
		return "output"
	case m.Trace != nil || m.MaxInstrs != 0:
		return "Trace or MaxInstrs"
	}
	return ""
}

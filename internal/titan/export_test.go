package titan

import (
	"fmt"
	"math"
	"reflect"
	"slices"
)

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

// VectorDirty reports, for the root context and then each scratch
// context, whether its vector file or scoreboard holds a non-zero word.
func (m *Machine) VectorDirty() []bool {
	dirty := func(c *cpu) bool {
		return slices.ContainsFunc(c.vrf[:], func(v float64) bool { return v != 0 }) ||
			slices.ContainsFunc(c.vecReady[:], func(t int64) bool { return t != 0 })
	}
	out := []bool{dirty(m.root)}
	if m.scratch != nil {
		for i := range m.scratch.subs {
			out = append(out, dirty(&m.scratch.subs[i]))
		}
	}
	return out
}

// Leftover names a piece of state, the image apart, that is not as a new
// machine has it; "" when there is none.
func (m *Machine) Leftover() string {
	switch {
	case !reflect.DeepEqual(m.root, &cpu{}) || m.rootUsed:
		return "root cpu"
	case m.scratchBusy.Load():
		return "region scratch claim"
	case m.scratch != nil:
		if what := m.scratch.leftover(); what != "" {
			return what
		}
	}
	switch {
	case m.procStats != [MaxProcessors]ProcStat{}:
		return "processor statistics"
	case m.out.Len() != 0:
		return "output"
	case m.Trace != nil || m.MaxInstrs != 0 || m.ReverseRegions:
		return "Trace, MaxInstrs or ReverseRegions"
	}
	return ""
}

// leftover is Leftover for the region scratch: every context, output sink,
// error slot, and the fabric down to its histories' spare capacity.
func (s *regionScratch) leftover() string {
	for i := range s.subs {
		if !reflect.DeepEqual(&s.subs[i], &cpu{}) {
			return fmt.Sprintf("scratch context %d", i)
		}
	}
	for i := range s.outs {
		if s.outs[i].Len() != 0 || s.errs[i] != nil {
			return fmt.Sprintf("scratch output or error of pid %d", i)
		}
	}
	ss := &s.fabric
	for i := range ss.cells {
		cl := &ss.cells[i]
		if cl.val != math.MinInt64 || len(cl.hist) != 0 ||
			slices.ContainsFunc(cl.hist[:cap(cl.hist)], func(e syncEntry) bool { return e != syncEntry{} }) {
			return fmt.Sprintf("sync cell %d", i)
		}
	}
	if ss.procs != 0 || ss.waiting != 0 || ss.done != 0 || ss.dead || ss.waiters != [MaxProcessors]syncWaiter{} {
		return "sync fabric"
	}
	return ""
}

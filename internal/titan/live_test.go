package titan

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// randomVectorProg is a random run of vsetl and vector writes: lengths
// from negative to past MaxVL (vl = 0 included), slots below a random
// bound and, in a third of the programs, negative or wrapping past
// VRFWords, through every kind of VRF write — loads, masked loads,
// arithmetic, masked arithmetic, moves, broadcasts.
func randomVectorProg(rng *rand.Rand) *Program {
	hi, wild := 1+rng.Intn(VRFWords), rng.Intn(3) == 0
	slot := func() int {
		switch {
		case wild && rng.Intn(4) == 0:
			return VRFWords - 1 - rng.Intn(64) // wraps at any vl > 64
		case wild && rng.Intn(4) == 0:
			return -1 - rng.Intn(VRFWords) // names slot VRFWords-1-…
		}
		return rng.Intn(hi)
	}
	instrs := []Instr{
		{Op: OpLdi, Rd: 11, Imm: 4096},
		{Op: OpLdi, Rd: 12, Imm: 4},
		{Op: OpFldi, Rd: 1, FImm: 1.5},
	}
	for i := 0; i < 12; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			vl := []int64{-3, 0, 1, int64(rng.Intn(MaxVL)), MaxVL, MaxVL + 100}[rng.Intn(6)]
			instrs = append(instrs, Instr{Op: OpLdi, Rd: 10, Imm: vl}, Instr{Op: OpVsetl, Rs1: 10})
		case 2:
			instrs = append(instrs, Instr{Op: OpVbcast, Rd: slot(), Rs1: 1})
		case 3:
			instrs = append(instrs, Instr{Op: OpVld, Rd: slot(), Rs1: 11, Rs2: 12, Imm: ElemF32})
		case 4:
			instrs = append(instrs, Instr{Op: OpVadd, Rd: slot(), Rs1: slot(), Rs2: slot()})
		case 5:
			instrs = append(instrs, Instr{Op: OpVmov, Rd: slot(), Rs1: slot()},
				Instr{Op: OpVadds, Rd: slot(), Rs1: slot(), Rs2: 1})
		case 6:
			instrs = append(instrs, Instr{Op: OpVcmpLts, Rd: 1, Rs1: slot(), Rs2: 1},
				Instr{Op: OpVldm, Rd: slot(), Rs1: 11, Rs2: 12, Imm: maskImm(ElemF32, 1)})
		case 7:
			instrs = append(instrs, Instr{Op: OpVmulm, Rd: slot(), Rs1: slot(), Rs2: slot(), Imm: maskImm(0, 1)})
		}
	}
	return mkProg(append(instrs, Instr{Op: OpRet}), nil)
}

// ranContext is the context a run of prog on the given engine ends on.
func ranContext(t *testing.T, prog *Program, fast bool) *cpu {
	t.Helper()
	m := NewMachine(prog, 1)
	for i := int64(0); i < MaxVL; i++ {
		putF32(m.mem, 4096+4*i, float32(i%7)-3)
	}
	m.prog.decode()
	c, maxInstrs, err := m.begin("main", 0)
	if err == nil && fast {
		err = c.runFast(m.prog.decoded["main"], 0, -1, maxInstrs)
	} else if err == nil {
		err = c.exec(m.prog.Funcs["main"], 0, -1, maxInstrs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// zeroPastLive reports the first word at or past c.vhi that is not zero.
func zeroPastLive(c *cpu) (int, bool) {
	for i := c.vhi; i < VRFWords; i++ {
		if c.vrf[i] != 0 || c.vecReady[i] != 0 {
			return i, false
		}
	}
	return 0, true
}

// The live extent is exact enough to copy by: after any run, every vector
// word past vhi is zero, so forking into a scratch context that another
// run left dirty gives exactly the whole-struct copy, and reset gives a
// new context.
func TestForkCopiesLiveExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	partial, shrinking := 0, 0
	for trial := 0; trial < 200; trial++ {
		fast := trial%2 == 0
		c := ranContext(t, randomVectorProg(rng), fast)
		sub := ranContext(t, randomVectorProg(rng), !fast)
		for _, x := range []*cpu{c, sub} {
			if i, ok := zeroPastLive(x); !ok {
				t.Fatalf("trial %d: word %d past the live extent %d is not zero", trial, i, x.vhi)
			}
		}
		if c.vhi < VRFWords {
			partial++
		}
		if sub.vhi > c.vhi {
			shrinking++
		}

		var out strings.Builder
		want := new(cpu)
		*want = *c
		want.pid, want.out, want.args = 3, &out, slices.Clone(c.args)
		c.forkTo(sub, 3, &out)
		if !reflect.DeepEqual(sub, want) {
			t.Fatalf("trial %d: a fork over the live extent %d (scratch at %d) is not the whole-struct copy", trial, c.vhi, sub.vhi)
		}
		sub.reset()
		if !reflect.DeepEqual(sub, &cpu{}) {
			t.Fatalf("trial %d: reset over the live extent %d leaves state behind", trial, c.vhi)
		}
	}
	if partial < 50 || shrinking < 50 {
		t.Errorf("of 200 forks, %d had a live extent short of the file and %d forked into a wider one: too few to test", partial, shrinking)
	}
}

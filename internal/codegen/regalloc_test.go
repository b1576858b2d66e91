package codegen

import (
	"fmt"
	"testing"

	"repro/internal/titan"
)

// v names virtual register k.
func v(k int) int { return vregBase + k }

// intervals solves f's liveness and returns every value's spans.
func intervals(f *titan.Func, nv int) [][][2]int32 {
	a := &regAlloc{nv: nv, vals: make([]value, nv)}
	for k := range a.vals {
		a.vals[k] = value{parent: int32(k), spans: -1, live: -1, global: -1, defBlock: -1}
	}
	a.load(f)
	a.liveness(f)
	out := make([][][2]int32, nv)
	for k := range a.vals {
		for s := a.vals[k].spans; s >= 0; s = a.spans[s].next {
			out[k] = append(out[k], [2]int32{a.spans[s].lo, a.spans[s].hi})
		}
	}
	return out
}

// TestLiveIntervals pins liveness on the shapes that decide which values
// may share a register. Instruction i reads at position 2i and writes at
// 2i+1; a value live around a loop's back branch holds the whole loop.
func TestLiveIntervals(t *testing.T) {
	cases := []struct {
		name   string
		instrs []titan.Instr
		labels map[string]int
		// want maps a value to its spans.
		want map[int][][2]int32
	}{
		{
			// x is live across the loop, w only from its definition to
			// its use in each iteration, and the counter n around the
			// back branch, so over the whole loop.
			name: "across-loop-against-inside",
			instrs: []titan.Instr{
				{Op: titan.OpLdi, Rd: v(0), Imm: 1},               // 0 x
				{Op: titan.OpLdi, Rd: v(1), Imm: 4},               // 1 n
				{Op: titan.OpMuli, Rd: v(2), Rs1: v(1), Imm: 2},   // 2 top: w
				{Op: titan.OpSt8, Rs1: v(2), Rs2: v(2)},           // 3
				{Op: titan.OpAddi, Rd: v(1), Rs1: v(1), Imm: -1},  // 4
				{Op: titan.OpBnez, Rs1: v(1), Sym: "top"},         // 5
				{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: v(0)}, // 6
				{Op: titan.OpRet},
			},
			labels: map[string]int{"top": 2},
			want: map[int][][2]int32{
				0: {{1, 12}},
				1: {{3, 11}},
				2: {{5, 6}},
			},
		},
		{
			// The arms of a branch run one or the other: p and q are
			// apart, and c, read after both, is live across them.
			name: "if-arms",
			instrs: []titan.Instr{
				{Op: titan.OpPid, Rd: v(0)},                       // 0 c
				{Op: titan.OpBeqz, Rs1: v(0), Sym: "else"},        // 1
				{Op: titan.OpAddi, Rd: v(1), Rs1: v(0), Imm: 1},   // 2 p
				{Op: titan.OpSt8, Rs1: v(0), Rs2: v(1)},           // 3
				{Op: titan.OpJmp, Sym: "end"},                     // 4
				{Op: titan.OpAddi, Rd: v(2), Rs1: v(0), Imm: 2},   // 5 else: q
				{Op: titan.OpSt8, Rs1: v(0), Rs2: v(2)},           // 6
				{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: v(0)}, // 7 end
				{Op: titan.OpRet},
			},
			labels: map[string]int{"else": 5, "end": 7},
			want: map[int][][2]int32{
				0: {{1, 14}},
				1: {{5, 6}},
				2: {{11, 12}},
			},
		},
		{
			// t comes round the backward branch, so it holds the whole
			// span from the label; u is written and read inside one pass
			// over it, and v, after it, shares nothing with u.
			name: "backward-goto",
			instrs: []titan.Instr{
				{Op: titan.OpLdi, Rd: v(0), Imm: 0},                 // 0 t
				{Op: titan.OpMov, Rd: v(1), Rs1: v(0)},              // 1 again: u
				{Op: titan.OpAddi, Rd: v(0), Rs1: v(1), Imm: 1},     // 2
				{Op: titan.OpCmpLt, Rd: v(2), Rs1: v(0), Rs2: v(0)}, // 3
				{Op: titan.OpBnez, Rs1: v(2), Sym: "again"},         // 4
				{Op: titan.OpMuli, Rd: v(3), Rs1: v(0), Imm: 2},     // 5 v
				{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: v(3)},   // 6
				{Op: titan.OpRet},
			},
			labels: map[string]int{"again": 1},
			want: map[int][][2]int32{
				0: {{1, 2}, {5, 10}},
				1: {{3, 4}},
				3: {{11, 12}},
			},
		},
		{
			// A parameter is live from the prologue's copy that binds it.
			name: "parameter",
			instrs: []titan.Instr{
				{Op: titan.OpAddi, Rd: regSP, Rs1: regSP},         // 0
				{Op: titan.OpMov, Rd: v(0), Rs1: titan.RegArg0},   // 1 n
				{Op: titan.OpLdi, Rd: v(1), Imm: 2},               // 2 k
				{Op: titan.OpAdd, Rd: v(2), Rs1: v(0), Rs2: v(1)}, // 3
				{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: v(2)}, // 4
				{Op: titan.OpRet},
			},
			want: map[int][][2]int32{
				0: {{3, 6}},
				1: {{5, 6}},
				2: {{7, 8}},
			},
		},
		{
			// A value defined and never read still holds its register
			// where it is written.
			name: "dead-definition",
			instrs: []titan.Instr{
				{Op: titan.OpLdi, Rd: v(0), Imm: 1},
				{Op: titan.OpRet},
			},
			want: map[int][][2]int32{0: {{1, 1}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			labels := tc.labels
			if labels == nil {
				labels = map[string]int{}
			}
			got := intervals(&titan.Func{Name: tc.name, Instrs: tc.instrs, Labels: labels}, 4)
			for k, want := range tc.want {
				if fmt.Sprint(got[k]) != fmt.Sprint(want) {
					t.Errorf("v%d: spans %v, want %v", k, got[k], want)
				}
			}
		})
	}
}

// TestRegistersSharedOnlyUnderPressure: while the file lasts every value
// has a register no other value holds, so c, p and q, written by the load
// and the addi of each arm, are three; with two registers they share the
// two, no value spills, and the program still exits 2.
func TestRegistersSharedOnlyUnderPressure(t *testing.T) {
	prog := lowerProgram(t, `
int a[2];
int main(void)
{
	int c, p, q;
	c = a[0];
	if (c) {
		p = c + 1;
		a[1] = p;
	} else {
		q = c + 2;
		a[1] = q;
	}
	return a[1];
}
`)
	defer SetVarRegs(varRegs)()
	for _, regs := range []int{varRegs, 2} {
		varRegs = regs
		tp, err := Generate(prog)
		if err != nil {
			t.Fatal(err)
		}
		f := tp.Funcs["main"]
		var cpq []int
		used := map[int]bool{}
		for _, in := range f.Instrs {
			if (in.Op == titan.OpLd4 || in.Op == titan.OpAddi) && in.Rd != regRet {
				cpq = append(cpq, in.Rd)
			}
			refs := in.Refs()
			for _, r := range append(refs.Defs(), refs.Uses()...) {
				if r.File == titan.IntReg && r.Num != regSP && r.Num != regRet {
					used[int(r.Num)] = true
				}
			}
		}
		distinct := len(cpq) == 3 && cpq[0] != cpq[1] && cpq[1] != cpq[2] && cpq[0] != cpq[2]
		if regs > 2 && !distinct || regs == 2 && (len(used) != 2 || used[spillTemps[0]]) {
			t.Errorf("%d registers: c, p and q in %v, %d registers used:\n%s", regs, cpq, len(used), f.Disassemble())
		}
		if r := runMain(t, tp); r.ExitCode != 2 {
			t.Errorf("%d registers: exit %d", regs, r.ExitCode)
		}
	}
}

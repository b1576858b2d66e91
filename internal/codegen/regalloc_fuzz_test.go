package codegen

import (
	"slices"
	"testing"

	"repro/internal/titan"
)

// fuzzValues is how many integer and float values a fuzzed function
// computes with, besides its loop counter and store base: more than
// fuzzTightRegs, so that values share registers, spill and are
// rematerialized.
const (
	fuzzInts, fuzzFlts = 10, 6
	fuzzTightRegs      = 3
	fuzzData           = 4096 // DataBase of the fuzzed program
)

// fuzzFunc builds blk from data: every value loaded with a constant, then
// a loop of one to three iterations whose body is integer, float, convert
// and store ops over the values, then every value stored to the data
// window and value 0 returned. It returns the function and its loop.
func fuzzFunc(data []byte) (*titan.Func, [2]int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	iv := func(k int) int { return vregBase + k%fuzzInts }
	fv := func(k int) int { return vregBase + fuzzInts + k%fuzzFlts }
	counter, base := vregBase+fuzzInts+fuzzFlts, vregBase+fuzzInts+fuzzFlts+1
	in := []titan.Instr{{Op: titan.OpAddi, Rd: regSP, Rs1: regSP}}
	for k := range fuzzInts {
		in = append(in, titan.Instr{Op: titan.OpLdi, Rd: iv(k), Imm: int64(int8(next())) << (k % 40)})
	}
	for k := range fuzzFlts {
		in = append(in, titan.Instr{Op: titan.OpFldi, Rd: fv(k), FImm: float64(int8(next())) / 4})
	}
	in = append(in, titan.Instr{Op: titan.OpLdi, Rd: counter, Imm: int64(1 + next()%3)})
	top := len(in)
	intOps := []titan.Op{titan.OpAdd, titan.OpSub, titan.OpMul, titan.OpAnd, titan.OpXor, titan.OpCmpLt}
	fltOps := []titan.Op{titan.OpFadd, titan.OpFsub, titan.OpFmul}
	for n := next() % 24; n >= 0 && len(data) > 0; n-- {
		d, a, b := next(), next(), next()
		switch next() % 6 {
		case 0, 1:
			in = append(in, titan.Instr{Op: intOps[d%len(intOps)], Rd: iv(d), Rs1: iv(a), Rs2: iv(b)})
		case 2:
			in = append(in, titan.Instr{Op: titan.OpAddi, Rd: iv(d), Rs1: iv(a), Imm: int64(int8(b))})
		case 3:
			in = append(in, titan.Instr{Op: fltOps[d%len(fltOps)], Rd: fv(d), Rs1: fv(a), Rs2: fv(b)})
		case 4:
			in = append(in, titan.Instr{Op: titan.OpCvtIF, Rd: fv(d), Rs1: iv(a)})
		case 5:
			in = append(in,
				titan.Instr{Op: titan.OpLdi, Rd: base, Imm: fuzzData},
				titan.Instr{Op: titan.OpSt8, Rs1: base, Rs2: iv(a), Imm: int64(8 * (d % 16))},
				titan.Instr{Op: titan.OpFst8, Rs1: base, Rs2: fv(b), Imm: int64(8 * (16 + d%16))})
		}
	}
	in = append(in,
		titan.Instr{Op: titan.OpAddi, Rd: counter, Rs1: counter, Imm: -1},
		titan.Instr{Op: titan.OpBnez, Rs1: counter, Sym: "top"},
		titan.Instr{Op: titan.OpLdi, Rd: base, Imm: fuzzData})
	back := len(in) - 2
	for k := range fuzzInts {
		in = append(in, titan.Instr{Op: titan.OpSt8, Rs1: base, Rs2: iv(k), Imm: int64(8 * (32 + k))})
	}
	for k := range fuzzFlts {
		in = append(in, titan.Instr{Op: titan.OpFst8, Rs1: base, Rs2: fv(k), Imm: int64(8 * (48 + k))})
	}
	in = append(in, titan.Instr{Op: titan.OpMov, Rd: titan.RegRetInt, Rs1: iv(0)}, titan.Instr{Op: titan.OpRet})
	return &titan.Func{Name: "blk", Instrs: in, Labels: map[string]int{"top": top}}, [2]int{top, back}
}

// allocFunc allocates a copy of f with n registers of each file.
func allocFunc(t *testing.T, f *titan.Func, loop [2]int, n int) *titan.Func {
	t.Helper()
	defer SetVarRegs(n)()
	g := &titan.Func{Name: f.Name, Instrs: slices.Clone(f.Instrs), Labels: map[string]int{"top": f.Labels["top"]}}
	a := &regAlloc{nv: fuzzInts + fuzzFlts + 2, loops: []loopSpan{{top: loop[0], back: loop[1], iv: -1}}}
	a.load(g)
	if err := a.allocate(g, nil, &g.Frame); err != nil {
		t.Fatalf("%d registers: %v\n%s", n, err, f.Disassemble())
	}
	return g
}

// runFunc runs blk, called from main, on the reference engine.
func runFunc(t *testing.T, f *titan.Func) titan.Result {
	t.Helper()
	m := titan.NewMachine(&titan.Program{
		Funcs: map[string]*titan.Func{
			"main": {Name: "main", Instrs: []titan.Instr{{Op: titan.OpCall, Sym: "blk"}, {Op: titan.OpRet}}, Labels: map[string]int{}},
			"blk":  f,
		},
		Data: make([]byte, 8*64), DataBase: fuzzData, MemSize: 1 << 16,
	}, 1)
	defer m.Release()
	r, err := m.RunReference("main")
	if err != nil {
		t.Fatalf("%v:\n%s", err, f.Disassemble())
	}
	return r
}

// FuzzAllocate: a random function over more values than registers, with
// one loop, allocated with fuzzTightRegs registers of each file and with
// the full budget, leaves the same exit code and memory.
func FuzzAllocate(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 2, 20, 0, 1, 2, 0, 3, 4, 5, 3, 6, 7, 8, 5},
		{255, 128, 7, 9, 33, 200, 1, 1, 1, 1, 40, 41, 42, 43, 44, 45, 1, 12, 9, 8, 7, 4, 1, 2, 3, 2, 5, 5, 5, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, loop := fuzzFunc(data)
		tight, full := allocFunc(t, fn, loop, fuzzTightRegs), allocFunc(t, fn, loop, varRegs)
		got, want := runFunc(t, tight), runFunc(t, full)
		if got.ExitCode != want.ExitCode || got.Globals != want.Globals {
			t.Fatalf("with %d registers: exit %d globals %x; with %d: exit %d globals %x\n%s\n%s",
				fuzzTightRegs, got.ExitCode, got.Globals, varRegs, want.ExitCode, want.Globals, tight.Disassemble(), full.Disassemble())
		}
	})
}

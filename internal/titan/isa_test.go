package titan

import (
	"math"
	"strings"
	"testing"
)

// The opcode table is every consumer's source: a row missing or half
// filled in is a wrong disassembly, a wrong timing and a wrong schedule at
// once, so the rows are checked for what every row must have.
func TestOpTable(t *testing.T) {
	names := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		info := opTable[op]
		if info.name == "" {
			t.Errorf("op %d has no row", op)
			continue
		}
		if prev, dup := names[info.name]; dup {
			t.Errorf("ops %d and %d are both named %q", prev, op, info.name)
		}
		names[info.name] = op
		if info.time.Lat < 1 || info.time.Occ < 1 {
			t.Errorf("%s: latency %d, occupancy %d", info.name, info.time.Lat, info.time.Occ)
		}
		data := 0
		for _, o := range []operand{info.rd, info.rs1, info.rs2} {
			if (o.file == NoReg) != (o.role == roleNone) {
				t.Errorf("%s: operand %+v has a file without a role or a role without a file", info.name, o)
			}
			if o.role == roleData {
				data++
			}
		}
		if want := b2i(info.mem == MemStore); int64(data) != want {
			t.Errorf("%s: %d store-data operands, memory class %d", info.name, data, info.mem)
		}
		if strings.HasSuffix(info.name, ".m") != info.masked {
			t.Errorf("%s: masked = %v", info.name, info.masked)
		}
		if (info.time.VScale > 0 || info.flops == flopPerLane || info.masked) && info.vl != vlRead {
			t.Errorf("%s works lane by lane but does not read VL", info.name)
		}
	}
}

// An instruction waits for the operands it names and no others. The
// per-engine tables this one replaced had vmov wait on the vector at its
// unused rs2 field and pid/nproc on the integer register at their unused
// rs1 — slot 0 and r0 in practice. Each engine runs the one instruction
// with both busy until cycle 1000.
func TestDispatchIgnoresUnusedFields(t *testing.T) {
	for _, in := range []Instr{{Op: OpPid, Rd: 5}, {Op: OpNproc, Rd: 5}, {Op: OpVmov, Rd: 128, Rs1: 256}} {
		prog := &Program{Funcs: map[string]*Func{"main": {Name: "main", Instrs: []Instr{in}}}}
		var done [2]int64
		for k, fast := range []bool{false, true} {
			m := NewMachine(prog, 1)
			m.prog.decode()
			c, maxInstrs, err := m.begin("main", 0)
			c.intReady[0], c.vecReady[0] = 1000, 1000
			if err == nil && fast {
				err = c.runFast(m.prog.decoded["main"], 0, -1, maxInstrs)
			} else if err == nil {
				err = c.exec(prog.Funcs["main"], 0, -1, maxInstrs)
			}
			if err != nil {
				t.Fatal(err)
			}
			done[k] = c.cycles
			m.Release()
		}
		if done[0] >= 1000 || done[1] != done[0] {
			t.Errorf("%v: done at cycle %d (reference), %d (engine); register 0, busy until 1000, is not an operand",
				in, done[0], done[1])
		}
	}
}

// What the compiler's scheduler reads of the table: Refs marks a store's
// data and nothing else as not waited for.
func TestRefsMarkStoreData(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		refs := Instr{Op: op}.Refs()
		data := int64(0)
		for k := range refs.Uses() {
			data += b2i(refs.IsData(k))
		}
		if want := b2i(op.Mem() == MemStore); data != want {
			t.Errorf("%s: %d uses marked store data, want %d", opTable[op].name, data, want)
		}
	}
}

func TestDisassembleAllOpcodes(t *testing.T) {
	// Every opcode disassembles to its own mnemonic, then operands.
	for op := Op(0); op < numOps; op++ {
		got := Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 4 | 5<<8, Sym: "L"}.String()
		if name := opTable[op].name; got != name && !strings.HasPrefix(got, name+" ") {
			t.Errorf("String(op %d) = %q, want mnemonic %q", op, got, name)
		}
	}
	// One spelling of each operand syntax and register file.
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpLdi, Rd: 1, Imm: 5}, "ldi r1, 5"},
		{Instr{Op: OpFldi, Rd: 2, FImm: 1.5}, "fldi f2, 1.5"},
		{Instr{Op: OpMov, Rd: 1, Rs1: 2}, "mov r1, r2"},
		{Instr{Op: OpLd8, Rd: 3, Rs1: 1, Imm: 16}, "ld8 r3, 16(r1)"},
		{Instr{Op: OpSt8, Rs1: 1, Rs2: 3, Imm: 16}, "st8 r3, 16(r1)"},
		{Instr{Op: OpFmov, Rd: 1, Rs1: 2}, "fmov f1, f2"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Instr{Op: OpMuli, Rd: 1, Rs1: 2, Imm: 8}, "muli r1, r2, 8"},
		{Instr{Op: OpLd4, Rd: 1, Rs1: 2, Imm: 12}, "ld4 r1, 12(r2)"},
		{Instr{Op: OpSt2, Rs1: 2, Rs2: 3, Imm: 6}, "st2 r3, 6(r2)"},
		{Instr{Op: OpFld8, Rd: 4, Rs1: 5}, "fld8 f4, 0(r5)"},
		{Instr{Op: OpFst4, Rs1: 5, Rs2: 6, Imm: 8}, "fst4 f6, 8(r5)"},
		{Instr{Op: OpFadd, Rd: 1, Rs1: 2, Rs2: 3}, "fadd f1, f2, f3"},
		{Instr{Op: OpFcmpLt, Rd: 1, Rs1: 2, Rs2: 3}, "fcmplt r1, f2, f3"},
		{Instr{Op: OpCvtIF, Rd: 1, Rs1: 2}, "cvtif f1, r2"},
		{Instr{Op: OpCvtFI, Rd: 1, Rs1: 2}, "cvtfi r1, f2"},
		{Instr{Op: OpVsetl, Rs1: 3}, "vsetl r3"},
		{Instr{Op: OpVld, Rd: 0, Rs1: 1, Rs2: 2, Imm: ElemF32}, "vld v0, (r1), r2, ek4"},
		{Instr{Op: OpVadd, Rd: 0, Rs1: 64, Rs2: 128}, "vadd v0, v64, v128"},
		{Instr{Op: OpVmuls, Rd: 0, Rs1: 64, Rs2: 3}, "vmuls v0, v64, f3"},
		{Instr{Op: OpVmov, Rd: 0, Rs1: 64}, "vmov v0, v64"},
		{Instr{Op: OpVbcast, Rd: 0, Rs1: 3}, "vbcast v0, f3"},
		{Instr{Op: OpJmp, Sym: "L"}, "jmp L"},
		{Instr{Op: OpBeqz, Rs1: 1, Sym: "L"}, "beqz r1, L"},
		{Instr{Op: OpCall, Sym: "f"}, "call f"},
		{Instr{Op: OpRet}, "ret"},
		{Instr{Op: OpArg, Rs1: 2}, "arg r2"},
		{Instr{Op: OpFarg, Rs1: 2}, "farg f2"},
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpParBegin}, "par.begin"},
		{Instr{Op: OpParEnd}, "par.end"},
		{Instr{Op: OpNeg, Rd: 1, Rs1: 2}, "neg r1, r2"},
		{Instr{Op: OpPid, Rd: 5}, "pid r5, r0, r0"},
		{Instr{Op: OpPost, Rs1: 7, Rs2: 8}, "post r7, r8"},
		{Instr{Op: OpVst, Rd: 64, Rs1: 1, Rs2: 2, Imm: ElemF64}, "vst v64, (r1), r2, ek8"},
		{Instr{Op: OpVcmpLts, Rd: 1, Rs1: 64, Rs2: 3}, "vcmp.lts m1, v64, f3"},
		{Instr{Op: OpMnot, Rd: 1, Rs1: 2}, "mnot m1, m2"},
		{Instr{Op: OpVldm, Rd: 0, Rs1: 1, Rs2: 2, Imm: ElemF32 | 3<<8}, "vld.m v0, (r1), r2, ek4, m3"},
		{Instr{Op: OpVaddm, Rd: 0, Rs1: 64, Rs2: 128, Imm: 2 << 8}, "vadd.m v0, v64, v128, m2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestFuncDisassembleWithLabels(t *testing.T) {
	f := &Func{Name: "f", Labels: map[string]int{"top": 1, "end": 2},
		Instrs: []Instr{
			{Op: OpLdi, Rd: 1, Imm: 0},
			{Op: OpAddi, Rd: 1, Rs1: 1, Imm: 1},
			{Op: OpRet},
		}}
	out := f.Disassemble()
	for _, want := range []string{"f:", "top:", "end:", "ldi r1, 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// Labels that share an address print in name order, so a listing (and
// every hash of one) is the same on every call.
func TestFuncDisassembleIsDeterministic(t *testing.T) {
	f := &Func{Name: "f", Labels: map[string]int{".c": 1, ".a": 1, ".e": 1, ".b": 1, ".d": 1, ".z": 2, ".y": 2},
		Instrs: []Instr{
			{Op: OpLdi, Rd: 16, Imm: 0},
			{Op: OpAddi, Rd: 16, Rs1: 16, Imm: 1},
		}}
	want := f.Disassemble()
	if !strings.Contains(want, ".a:\n.b:\n.c:\n.d:\n.e:\n") || !strings.HasSuffix(want, ".y:\n.z:\n") {
		t.Errorf("labels at one address out of name order:\n%s", want)
	}
	for range 50 {
		if got := f.Disassemble(); got != want {
			t.Fatalf("listing changed between calls:\n%s\nthen\n%s", want, got)
		}
	}
}

func TestRemainingVectorOps(t *testing.T) {
	// Functional checks for the vector ops not covered elsewhere:
	// vsub, vdiv, vsubs, vsubsr, vdivs, vdivsr, vmov, i32/f64 elements.
	n := int64(8)
	prog := mkProg([]Instr{
		{Op: OpLdi, Rd: 10, Imm: n},
		{Op: OpVsetl, Rs1: 10},
		{Op: OpLdi, Rd: 11, Imm: 4096},
		{Op: OpLdi, Rd: 13, Imm: 8},
		{Op: OpVld, Rd: 0, Rs1: 11, Rs2: 13, Imm: ElemF64},
		{Op: OpFldi, Rd: 20, FImm: 2},
		{Op: OpVsubs, Rd: 128, Rs1: 0, Rs2: 20},  // v - 2
		{Op: OpVsubsr, Rd: 256, Rs1: 0, Rs2: 20}, // 2 - v
		{Op: OpVdivs, Rd: 384, Rs1: 0, Rs2: 20},  // v / 2
		{Op: OpVdivsr, Rd: 512, Rs1: 0, Rs2: 20}, // 2 / v
		{Op: OpVsub, Rd: 640, Rs1: 128, Rs2: 256},
		{Op: OpVdiv, Rd: 768, Rs1: 0, Rs2: 0},
		{Op: OpVmov, Rd: 896, Rs1: 768},
		{Op: OpLdi, Rd: 12, Imm: 8192},
		{Op: OpVst, Rd: 640, Rs1: 12, Rs2: 13, Imm: ElemF64},
		{Op: OpLdi, Rd: 14, Imm: 12288},
		{Op: OpVst, Rd: 896, Rs1: 14, Rs2: 13, Imm: ElemF64},
		{Op: OpRet},
	}, nil)
	m := NewMachine(prog, 1)
	for i := int64(0); i < n; i++ {
		putF64(m.mem, 4096+8*i, float64(i+1))
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		v := float64(i + 1)
		wantSub := (v - 2) - (2 - v)
		if got := getF64(m.mem, 8192+8*i); got != wantSub {
			t.Errorf("vsub[%d] = %g want %g", i, got, wantSub)
		}
		if got := getF64(m.mem, 12288+8*i); got != 1 {
			t.Errorf("vdiv/vmov[%d] = %g want 1", i, got)
		}
	}
}

func TestVectorI32Elements(t *testing.T) {
	n := int64(4)
	prog := mkProg([]Instr{
		{Op: OpLdi, Rd: 10, Imm: n},
		{Op: OpVsetl, Rs1: 10},
		{Op: OpLdi, Rd: 11, Imm: 4096},
		{Op: OpLdi, Rd: 13, Imm: 4},
		{Op: OpVld, Rd: 0, Rs1: 11, Rs2: 13, Imm: ElemI32},
		{Op: OpFldi, Rd: 20, FImm: 3},
		{Op: OpVmuls, Rd: 128, Rs1: 0, Rs2: 20},
		{Op: OpVst, Rd: 128, Rs1: 11, Rs2: 13, Imm: ElemI32},
		{Op: OpRet},
	}, nil)
	m := NewMachine(prog, 1)
	for i := int64(0); i < n; i++ {
		m.mem[4096+4*i] = byte(i + 1) // small ints, little endian
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		got := int64(int32(uint32(m.mem[4096+4*i]) | uint32(m.mem[4096+4*i+1])<<8 |
			uint32(m.mem[4096+4*i+2])<<16 | uint32(m.mem[4096+4*i+3])<<24))
		if got != 3*(i+1) {
			t.Errorf("i32[%d] = %d want %d", i, got, 3*(i+1))
		}
	}
}

func TestVsetlClamping(t *testing.T) {
	prog := mkProg([]Instr{
		{Op: OpLdi, Rd: 10, Imm: 99999},
		{Op: OpVsetl, Rs1: 10},
		{Op: OpLdi, Rd: 11, Imm: -5},
		{Op: OpVsetl, Rs1: 11},
		{Op: OpRet},
	}, nil)
	if _, err := NewMachine(prog, 1).Run("main"); err != nil {
		t.Fatal(err)
	}
}

func TestVectorLoadFaults(t *testing.T) {
	prog := mkProg([]Instr{
		{Op: OpLdi, Rd: 10, Imm: 4},
		{Op: OpVsetl, Rs1: 10},
		{Op: OpLdi, Rd: 11, Imm: -64},
		{Op: OpLdi, Rd: 13, Imm: 4},
		{Op: OpVld, Rd: 0, Rs1: 11, Rs2: 13, Imm: ElemF32},
		{Op: OpRet},
	}, nil)
	if _, err := NewMachine(prog, 1).Run("main"); err == nil {
		t.Error("negative vector load address accepted")
	}
}

func TestUnknownLabelErrors(t *testing.T) {
	prog := mkProg([]Instr{{Op: OpJmp, Sym: "nowhere"}}, nil)
	if _, err := NewMachine(prog, 1).Run("main"); err == nil {
		t.Error("unknown label accepted")
	}
	prog2 := mkProg([]Instr{{Op: OpCall, Sym: "missing"}, {Op: OpRet}}, nil)
	if _, err := NewMachine(prog2, 1).Run("main"); err == nil {
		t.Error("undefined function accepted")
	}
}

func TestStrayParEnd(t *testing.T) {
	prog := mkProg([]Instr{{Op: OpParEnd}, {Op: OpRet}}, nil)
	if _, err := NewMachine(prog, 1).Run("main"); err == nil {
		t.Error("stray par.end accepted")
	}
	prog2 := mkProg([]Instr{{Op: OpParBegin}, {Op: OpRet}}, nil)
	if _, err := NewMachine(prog2, 1).Run("main"); err == nil {
		t.Error("unmatched par.begin accepted")
	}
}

func TestProcessorClamp(t *testing.T) {
	prog := mkProg([]Instr{{Op: OpNproc, Rd: RegRetInt}, {Op: OpRet}}, nil)
	m := NewMachine(prog, 99)
	r, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 4 {
		t.Errorf("nproc %d (clamp to 4)", r.ExitCode)
	}
	m0 := NewMachine(prog, 0)
	r0, _ := m0.Run("main")
	if r0.ExitCode != 1 {
		t.Errorf("nproc %d (clamp to 1)", r0.ExitCode)
	}
}

func putF64(mem []byte, addr int64, v float64) {
	bits := mathFloat64bitsT(v)
	for i := 0; i < 8; i++ {
		mem[addr+int64(i)] = byte(bits >> (8 * i))
	}
}

func getF64(mem []byte, addr int64) float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(mem[addr+int64(i)]) << (8 * i)
	}
	return mathFloat64frombitsT(bits)
}

func mathFloat64bitsT(v float64) uint64     { return math.Float64bits(v) }
func mathFloat64frombitsT(b uint64) float64 { return math.Float64frombits(b) }

// Program.Equal is the autotuner's memo key: it must tell apart any two
// programs a Machine could run differently, and nothing else.
func TestProgramEqual(t *testing.T) {
	build := func() *Program {
		return &Program{
			Funcs: map[string]*Func{
				"main": {Name: "main", Labels: map[string]int{".L1": 1}, Instrs: []Instr{
					{Op: OpLdi, Rd: 2, Imm: 7},
					{Op: OpFldi, Rd: 3, FImm: 0},
					{Op: OpCall, Sym: "leaf"},
					{Op: OpRet},
				}},
				"leaf": {Name: "leaf", Labels: map[string]int{}, Instrs: []Instr{{Op: OpRet}}},
			},
			Data:       []byte{1, 2, 3, 4},
			DataBase:   4096,
			GlobalAddr: map[string]int64{"g": 4096},
			MemSize:    1 << 20,
		}
	}
	a := build()
	if !a.Equal(build()) || !a.Equal(a) {
		t.Fatal("identical programs compare unequal")
	}
	other := build()
	other.GlobalAddr["h"] = 5000
	if !a.Equal(other) {
		t.Error("GlobalAddr, which no execution reads, made programs unequal")
	}
	nan := build()
	nan.Funcs["main"].Instrs[1].FImm = math.NaN()
	nan2 := build()
	nan2.Funcs["main"].Instrs[1].FImm = math.NaN()
	if !nan.Equal(nan2) {
		t.Error("the same NaN immediate compares unequal")
	}

	differs := map[string]func(p *Program){
		"one immediate":      func(p *Program) { p.Funcs["main"].Instrs[0].Imm = 8 },
		"a float immediate":  func(p *Program) { p.Funcs["main"].Instrs[1].FImm = math.Copysign(0, -1) },
		"one register":       func(p *Program) { p.Funcs["main"].Instrs[0].Rd = 3 },
		"a callee symbol":    func(p *Program) { p.Funcs["main"].Instrs[2].Sym = "other" },
		"one label's target": func(p *Program) { p.Funcs["main"].Labels[".L1"] = 2 },
		"one label's name":   func(p *Program) { p.Funcs["main"].Labels = map[string]int{".L2": 1} },
		"an extra label":     func(p *Program) { p.Funcs["leaf"].Labels[".L9"] = 0 },
		"a frame":            func(p *Program) { p.Funcs["leaf"].Frame = 16 },
		"an extra instr":     func(p *Program) { f := p.Funcs["leaf"]; f.Instrs = append(f.Instrs, Instr{Op: OpNop}) },
		"a function's name":  func(p *Program) { p.Funcs["leaf2"] = p.Funcs["leaf"]; delete(p.Funcs, "leaf") },
		"an extra function":  func(p *Program) { p.Funcs["more"] = &Func{Name: "more"} },
		"one data byte":      func(p *Program) { p.Data[2] = 9 },
		"the data's length":  func(p *Program) { p.Data = p.Data[:3] },
		"DataBase":           func(p *Program) { p.DataBase = 8192 },
		"MemSize":            func(p *Program) { p.MemSize = 1 << 21 },
	}
	for name, mutate := range differs {
		b := build()
		mutate(b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("programs differing in %s compare equal", name)
		}
	}
}

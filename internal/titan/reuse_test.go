package titan_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/titan"
)

// scribbler fills its whole image — globals, stack and all — with 0xFF,
// a quarter per processor, has every processor broadcast -1 into a full
// strip wrapping the end of its vector file and post to a sync cell, and
// prints a byte: run at four processors it leaves every piece of a
// machine's state dirty.
func scribbler(size int64) *titan.Program {
	return &titan.Program{
		Funcs: map[string]*titan.Func{"main": {Name: "main", Instrs: []titan.Instr{
			{Op: titan.OpParBegin},
			{Op: titan.OpPid, Rd: 10},
			{Op: titan.OpLdi, Rd: 11, Imm: size / 4},
			{Op: titan.OpMul, Rd: 12, Rs1: 10, Rs2: 11},
			{Op: titan.OpAdd, Rd: 13, Rs1: 12, Rs2: 11},
			{Op: titan.OpLdi, Rd: 14, Imm: -1},
			{Op: titan.OpSt4, Rs1: 12, Rs2: 14},
			{Op: titan.OpAddi, Rd: 12, Rs1: 12, Imm: 4},
			{Op: titan.OpCmpLt, Rd: 15, Rs1: 12, Rs2: 13},
			{Op: titan.OpBnez, Rs1: 15, Sym: "L"},
			{Op: titan.OpLdi, Rd: 17, Imm: titan.MaxVL},
			{Op: titan.OpVsetl, Rs1: 17},
			{Op: titan.OpCvtIF, Rd: 1, Rs1: 14},
			{Op: titan.OpVbcast, Rd: titan.VRFWords - titan.MaxVL/2, Rs1: 1},
			{Op: titan.OpPost, Rs1: 10, Rs2: 11},
			{Op: titan.OpParEnd},
			{Op: titan.OpLdi, Rd: 16, Imm: '!'},
			{Op: titan.OpArg, Rs1: 16},
			{Op: titan.OpCall, Sym: "putchar"},
			{Op: titan.OpRet},
		}, Labels: map[string]int{"L": 6}}},
		DataBase: 4096,
		Data:     []byte{1, 2, 3},
		MemSize:  size,
	}
}

// engines are the two ways to run a machine.
var engines = []struct {
	name string
	run  func(*titan.Machine) (titan.Result, error)
}{
	{"fast", func(m *titan.Machine) (titan.Result, error) { return m.Run("main") }},
	{"reference", func(m *titan.Machine) (titan.Result, error) { return m.RunReference("main") }},
}

// dirtyPool runs the scribbler on a machine with run, sets its public
// knobs and releases it, so the next NewMachine has the worst possible
// predecessor.
func dirtyPool(t *testing.T, size int64, run func(*titan.Machine) (titan.Result, error)) *titan.Machine {
	t.Helper()
	m := titan.NewMachine(scribbler(size), 4)
	r, err := run(m)
	if err != nil || r.Output != "!" {
		t.Fatalf("scribbler: %q, %v", r.Output, err)
	}
	if mem := m.Mem(); mem[0] != 0xFF || mem[len(mem)-1] != 0xFF {
		t.Fatal("scribbler left the ends of its image alone")
	}
	if dirty := m.VectorDirty(); !reflect.DeepEqual(dirty, []bool{true, true, true, true}) {
		t.Fatalf("scribbler left some processor context's vector state clean (root, then scratch): %v", dirty)
	}
	m.MaxInstrs = 7
	m.Trace = func(string) {}
	m.ReverseRegions = true
	m.Release()
	return m
}

// recycled returns a machine for prog that is a just-released scribbler's
// machine again, the scribbler run with dirty.
func recycled(t *testing.T, size int64, prog *titan.Program, procs int, dirty func(*titan.Machine) (titan.Result, error)) *titan.Machine {
	t.Helper()
	d := dirtyPool(t, size, dirty)
	m := titan.NewMachine(prog, procs)
	if m != d {
		t.Fatal("NewMachine did not reuse the machine just released")
	}
	return m
}

// A recycled machine shows nothing of the one it was: the image has the
// new program's exact length and holds its Data and zeros, whether the
// old image was larger or smaller, and contexts (the root and every
// scratch one, vector files and the sync fabric included), statistics,
// output and knobs are a new machine's, whichever engine dirtied them.
func TestReuseIsInvisible(t *testing.T) {
	const dirty = 1 << 20
	data := []byte("globals")
	ret := map[string]*titan.Func{"main": {Name: "main", Instrs: []titan.Instr{{Op: titan.OpRet}}}}
	for _, tc := range []struct {
		name  string
		size  int64
		procs int
	}{{"smaller", 1 << 17, 1}, {"larger", 1 << 22, 4}, {"smaller at 4 processors", 1 << 18, 4}} {
		for _, dirtier := range engines {
			name := tc.name + " after the " + dirtier.name + " engine"
			prog := &titan.Program{Funcs: ret, DataBase: 4096, Data: data, MemSize: tc.size}
			m := recycled(t, dirty, prog, tc.procs, dirtier.run)
			mem := m.Mem()
			if int64(len(mem)) != tc.size {
				t.Errorf("%s: image of %d bytes, want %d", name, len(mem), tc.size)
			}
			end := prog.DataBase + int64(len(data))
			if !bytes.Equal(mem[prog.DataBase:end], data) {
				t.Errorf("%s: data segment %q", name, mem[prog.DataBase:end])
			}
			for _, part := range [][]byte{mem[:prog.DataBase], mem[end:]} {
				if i := bytes.IndexFunc(part, func(r rune) bool { return r != 0 }); i >= 0 {
					t.Errorf("%s: image not zero outside its data (%#x at %d of a %d-byte part)", name, part[i], i, len(part))
				}
			}
			if what := m.Leftover(); what != "" {
				t.Errorf("%s: %s left from the previous program", name, what)
			}
			if m.Processors != tc.procs {
				t.Errorf("%s: %d processors, want %d", name, m.Processors, tc.procs)
			}
			m.Release()
			m.Release() // a second Release is a no-op, not a second owner
		}
	}
}

// On every E-series workload, at one and four processors and on both
// engines, a machine drawn after the scribbler's release — the scribbler
// run on either engine — runs to the Result and the final memory of a
// machine built on fresh state.
func TestReuseMatchesUnpooled(t *testing.T) {
	for _, w := range bench.Suite(repro.ESeries) {
		res, err := driver.Compile(w.Src, driver.FullOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			for _, engine := range engines {
				fresh := titan.NewUnpooled(res.Machine, procs)
				want, err := engine.run(fresh)
				if err != nil {
					t.Fatal(err)
				}
				for _, dirtier := range engines {
					m := recycled(t, 1<<19, res.Machine, procs, dirtier.run)
					got, err := engine.run(m)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s p=%d %s after %s: recycled %+v, fresh %+v", w.Name, procs, engine.name, dirtier.name, got, want)
					}
					if !bytes.Equal(m.Mem(), fresh.Mem()) {
						t.Errorf("%s p=%d %s after %s: final memory differs from a fresh machine's", w.Name, procs, engine.name, dirtier.name)
					}
					m.Release()
				}
			}
		}
	}
}

// A released machine keeps its contexts but not an image past
// maxPooledImage: one huge program must not pin its memory for good.
func TestReuseDropsHugeImages(t *testing.T) {
	ret := map[string]*titan.Func{"main": {Name: "main", Instrs: []titan.Instr{{Op: titan.OpRet}}}}
	huge := titan.NewMachine(&titan.Program{Funcs: ret, DataBase: 4096, MemSize: 17 << 20}, 1)
	huge.Release()
	m := titan.NewMachine(&titan.Program{Funcs: ret, DataBase: 4096, MemSize: 1 << 17}, 1)
	defer m.Release()
	if m != huge {
		t.Fatal("NewMachine did not reuse the machine just released")
	}
	if c := cap(m.Mem()); c != 1<<17 {
		t.Errorf("a %d-byte image came back with the machine, want a new one of %d", c, 1<<17)
	}
}

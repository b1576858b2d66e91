package codegen_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/titan"
)

// backLoops is every loop of f as its back branch closes it: the top
// label's index and the branch's.
func backLoops(f *titan.Func) [][2]int {
	var loops [][2]int
	for i, in := range f.Instrs {
		if top, ok := f.Labels[in.Sym]; ok && top <= i && in.Op.Transfers() {
			loops = append(loops, [2]int{top, i})
		}
	}
	return loops
}

// Daxpy's strips run as do parallel bodies, which §6's strength reducer
// never sees. At full options no strip body loads a constant into a
// register nothing else in the body writes (the base of each array, the
// stride and alpha stay in registers over the loop; a variable assigned a
// constant, such as the strip length, is not one), and the strip's IV is
// multiplied by the element size once however many sections it addresses.
func TestLoopValuesDaxpyStrip(t *testing.T) {
	res, err := driver.Compile(bench.Kernel("daxpy", 512).Src, driver.FullOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Machine.Funcs["main"]
	strips := 0
	for _, l := range backLoops(f) {
		body := f.Instrs[l[0] : l[1]+1]
		vector := false
		type mul struct {
			iv int
			c  int64
		}
		muls := map[mul]int{}
		writes := map[titan.Ref]int{}
		for _, in := range body {
			refs := in.Refs()
			for _, d := range refs.Defs() {
				writes[d]++
			}
		}
		for _, in := range body {
			switch in.Op {
			case titan.OpVld, titan.OpVst:
				vector = true
			case titan.OpLdi, titan.OpFldi:
				if refs := in.Refs(); writes[refs.Defs()[0]] == 1 {
					t.Errorf("%s in the loop at %d..%d", in, l[0], l[1])
				}
			case titan.OpMuli:
				muls[mul{in.Rs1, in.Imm}]++
			}
		}
		if !vector {
			continue
		}
		strips++
		for m, n := range muls {
			if n > 1 {
				t.Errorf("the strip at %d..%d multiplies r%d by %d %d times", l[0], l[1], m.iv, m.c, n)
			}
		}
	}
	if strips == 0 {
		t.Fatalf("no vector strip loop in main:\n%s", f.Disassemble())
	}
}

// A DO loop's limit lives in a register of its own over the loop. Here
// the inner loop's limit, 7, is the constant the inner body divides by,
// and both sit in the outer loop: both move to the outer loop's entry as
// one value, and the limit must keep it.
func TestLoopValuesKeepHeldLimit(t *testing.T) {
	const src = `
int a[64];

int main(void)
{
	int i, j, chk;
	for (i = 0; i < 64; i++)
		a[i] = 5 * i + 1;
	for (i = 0; i < 8; i++)
		for (j = 0; j < 8; j++)
			a[8 * i + j] = (a[8 * i + j] + i) % 7;
	chk = 0;
	for (i = 0; i < 64; i++)
		chk = chk * 3 + a[i];
	return chk % 251;
}
`
	want, err := driver.Run(src, driver.Options{OptLevel: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
		res, err := driver.Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, procs := range []int{1, 3} {
			for _, ref := range []bool{false, true} {
				if got := run(t, res.Machine, procs, ref, false); got.ExitCode != want.ExitCode {
					t.Errorf("%s p=%d reference=%v: exit %d, -O0 gives %d:\n%s",
						name, procs, ref, got.ExitCode, want.ExitCode, res.Machine.Funcs["main"].Disassemble())
				}
			}
		}
	}
}

// The pass only moves and deletes instructions: over the budget corpus at
// scalar and full options, no function is longer with it than without.
func TestLoopValuesNeverGrowCode(t *testing.T) {
	shrunk := 0
	for name, src := range budgetCorpus(t) {
		for oname, opts := range map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()} {
			res, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, oname, err)
			}
			before, after, err := codegen.LoopValuesSizes(res.IL)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, oname, err)
			}
			for fn, n := range after {
				if n > before[fn] {
					t.Errorf("%s/%s %s: %d instructions with the pass, %d without", name, oname, fn, n, before[fn])
				}
				if n < before[fn] {
					shrunk++
				}
			}
		}
	}
	if shrunk == 0 {
		t.Error("the pass shortened no function of the corpus")
	}
}

// heldSrc repeats a DOACROSS loop at distance 8 and a doall loop, each of
// which needs a constant, so that the scratches a region holds sit inside
// an enclosing loop.
const heldSrc = `int a[200], b[200];

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 200; i++) {
		a[i] = i;
		b[i] = 3 * i + 1;
	}
	for (r = 0; r < 3; r++) {
		for (i = 8; i < 200; i++)
			a[i] = a[i - 8] % 1000 + b[i];
		for (i = 0; i < 200; i++)
			b[i] = (b[i] + r) % 1000;
	}
	chk = 0;
	for (i = 0; i < 200; i++)
		chk = (chk * 31 + a[i]) % 65521;
	return chk;
}
`

// A DOACROSS region and a doall region inside a repeat loop: the values
// the regions keep past their blocks (a limit, an init, the DOACROSS
// cells) and the constants that move out of the regions to the repeat
// loop's entry leave the answer -O0 gives.
func TestLoopValuesRegionsInLoop(t *testing.T) {
	res, err := driver.Compile(heldSrc, driver.FullOptions())
	if err != nil {
		t.Fatal(err)
	}
	doacross, doall := false, false
	il.WalkStmts(res.IL.Proc("main").Body, func(s il.Stmt) bool {
		if outer, ok := s.(*il.DoLoop); ok {
			for _, st := range outer.Body {
				if dp, ok := st.(*il.DoParallel); ok {
					doacross = doacross || dp.Sync != nil
					doall = doall || dp.Sync == nil
				}
			}
		}
		return true
	})
	if !doacross || !doall {
		t.Fatalf("the repeat loop holds a DOACROSS region %v and a doall region %v, want both", doacross, doall)
	}
	want, err := driver.Run(heldSrc, driver.Options{OptLevel: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3, 4} {
		for _, ref := range []bool{false, true} {
			if got := run(t, res.Machine, procs, ref, false); got.ExitCode != want.ExitCode || got.Globals != want.Globals {
				t.Errorf("p=%d reference=%v: exit %d globals %x, -O0 gives %d globals %x", procs, ref, got.ExitCode, got.Globals, want.ExitCode, want.Globals)
			}
		}
	}
}

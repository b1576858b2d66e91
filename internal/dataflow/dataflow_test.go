package dataflow

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/il"
	"repro/internal/parser"
	"repro/internal/sema"

	"repro/internal/ctype"
	"repro/internal/lower"
)

// heap is the nil arena: hand-built test IL is allocated node by node.
var heap *il.Arena

// reachingDefs collects the definitions of v reaching the entry of s.
func reachingDefs(a *Analysis, s il.Stmt, v il.VarID) []*Def {
	var out []*Def
	a.ForEachReachingDef(s, v, func(d *Def) { out = append(out, d) })
	return out
}

// uniqueDef is the single unambiguous definition of v reaching s, or nil
// if there are several, none, or only ambiguous ones.
func uniqueDef(a *Analysis, s il.Stmt, v il.VarID) *Def {
	defs := reachingDefs(a, s, v)
	if len(defs) != 1 || defs[0].Ambiguous {
		return nil
	}
	return defs[0]
}

func compileProc(t *testing.T, src, name string) *il.Proc {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	prog, err := lower.File(f, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	p := prog.Proc(name)
	if p == nil {
		t.Fatalf("no proc %s", name)
	}
	return p
}

func analyze(t *testing.T, p *il.Proc) *Analysis {
	t.Helper()
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestStraightLineUniqueDef(t *testing.T) {
	p := compileProc(t, "int f(void) { int a; int b; a = 1; b = a; return b; }", "f")
	a := analyze(t, p)
	// At "b = a", the unique def of a is "a = 1".
	bAssign := p.Body[1].(*il.Assign)
	aID := p.LookupVar("a")
	d := uniqueDef(a, bAssign, aID)
	if d == nil {
		t.Fatalf("no unique def of a:\n%s", p)
	}
	if as, ok := d.Node.Stmt.(*il.Assign); !ok || il.DefinedVar(as) != aID {
		t.Errorf("wrong def: %v", d.Node.Stmt)
	}
}

func TestTwoDefsMerge(t *testing.T) {
	src := `
int f(int c) {
	int a, b;
	if (c) a = 1; else a = 2;
	b = a;
	return b;
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	var bAssign *il.Stmt
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if as, ok := s.(*il.Assign); ok {
			if v, ok := as.Src.(*il.VarRef); ok && p.Vars[v.ID].Name == "a" {
				bAssign = &s
			}
		}
		return true
	})
	if bAssign == nil {
		t.Fatalf("no b = a found:\n%s", p)
	}
	defs := reachingDefs(a, *bAssign, p.LookupVar("a"))
	if len(defs) != 2 {
		t.Errorf("defs of a at merge: %d, want 2", len(defs))
	}
	if uniqueDef(a, *bAssign, p.LookupVar("a")) != nil {
		t.Error("uniqueDef should fail at a merge")
	}
}

func TestParamEntryDef(t *testing.T) {
	p := compileProc(t, "int f(int n) { return n; }", "f")
	a := analyze(t, p)
	ret := p.Body[0].(*il.Return)
	d := uniqueDef(a, ret, p.LookupVar("n"))
	if d == nil || !d.Entry {
		t.Errorf("param def: %+v", d)
	}
}

func TestLoopCarriedDefs(t *testing.T) {
	// i is defined before the loop and inside it; both reach the condition.
	src := `
void f(int n) {
	int i;
	i = n;
	while (i) {
		i = i - 1;
	}
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	w := p.Body[1].(*il.While)
	defs := reachingDefs(a, w, p.LookupVar("i"))
	if len(defs) != 2 {
		t.Fatalf("defs of i at loop head: %d, want 2\n%s", len(defs), p)
	}
	// One def inside the loop, one before.
	inLoop := 0
	set := map[il.Stmt]bool{}
	il.WalkStmts(w.Body, func(s il.Stmt) bool { set[s] = true; return true })
	for _, d := range defs {
		if d.Node.Stmt != nil && set[d.Node.Stmt] {
			inLoop++
		}
	}
	if inLoop != 1 {
		t.Errorf("defs inside loop: %d, want 1", inLoop)
	}
	if got := a.DefsInside(p.LookupVar("i"), set); len(got) != 1 {
		t.Errorf("DefsInside: %d", len(got))
	}
}

func TestCallClobbersGlobals(t *testing.T) {
	src := `
int g;
void ext(void);
int f(void) {
	g = 1;
	ext();
	return g;
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	ret := p.Body[2].(*il.Return)
	gID := p.LookupVar("g")
	if uniqueDef(a, ret, gID) != nil {
		t.Error("call should clobber global g")
	}
	defs := reachingDefs(a, ret, gID)
	foundAmbig := false
	for _, d := range defs {
		if d.Ambiguous && !d.Entry {
			foundAmbig = true
		}
	}
	if !foundAmbig {
		t.Error("no ambiguous def from call")
	}
}

func TestStoreClobbersAddrTaken(t *testing.T) {
	src := `
void f(int *p) {
	int x, y;
	x = 1;
	*p = 5;
	y = x;
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	// x is not address-taken, so the store through p does NOT clobber it.
	var yAssign il.Stmt
	for _, s := range p.Body {
		if as, ok := s.(*il.Assign); ok {
			if v, ok := as.Dst.(*il.VarRef); ok && p.Vars[v.ID].Name == "y" {
				yAssign = s
			}
		}
	}
	if uniqueDef(a, yAssign, p.LookupVar("x")) == nil {
		t.Error("store should not clobber non-addr-taken x")
	}
}

func TestStoreClobbersAddressTakenVar(t *testing.T) {
	src := `
void g(int *);
int f(void) {
	int x;
	x = 1;
	g(&x);
	return x;
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	ret := p.Body[2].(*il.Return)
	if uniqueDef(a, ret, p.LookupVar("x")) != nil {
		t.Error("call with &x should clobber x")
	}
}

func TestUsedVars(t *testing.T) {
	p := compileProc(t, "void f(int *p, int i, int j) { *(p+i) = j; }", "f")
	st := p.Body[0].(*il.Assign)
	used := AppendUsedVars(nil, st)
	names := map[string]bool{}
	for _, v := range used {
		names[p.Vars[v].Name] = true
	}
	if !names["p"] || !names["i"] || !names["j"] {
		t.Errorf("used: %v", names)
	}
	// A caller's prefix is kept, and a variable already in it is still
	// appended: each call lists its own statement's uses.
	prefix := []il.VarID{p.LookupVar("j")}
	if again := AppendUsedVars(prefix, st); len(again) != 1+len(used) || again[0] != prefix[0] {
		t.Errorf("AppendUsedVars(%v, st) = %v, want the prefix then %v", prefix, again, used)
	}
}

func TestUsedVarsExcludesScalarDst(t *testing.T) {
	p := compileProc(t, "void f(int a, int b) { a = b; }", "f")
	st := p.Body[0].(*il.Assign)
	for _, v := range AppendUsedVars(nil, st) {
		if p.Vars[v].Name == "a" {
			t.Error("scalar destination counted as use")
		}
	}
}

func TestLivenessSimple(t *testing.T) {
	src := `
int f(void) {
	int a, b;
	a = 1;
	b = 2;
	return a;
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	lv := ComputeLiveness(p, a.Graph)
	aAssign := p.Body[0]
	bAssign := p.Body[1]
	aID, bID := p.LookupVar("a"), p.LookupVar("b")
	if !lv.LiveOut(aAssign, aID) {
		t.Error("a should be live after a = 1")
	}
	if lv.LiveOut(bAssign, bID) {
		t.Error("b should be dead after b = 2 (never used)")
	}
}

func TestLivenessLoop(t *testing.T) {
	src := `
int f(int n) {
	int s, i;
	s = 0;
	i = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	return s;
}
`
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	lv := ComputeLiveness(p, a.Graph)
	w := p.Body[2].(*il.While)
	sInc := w.Body[0]
	if !lv.LiveOut(sInc, p.LookupVar("s")) {
		t.Error("s live around loop")
	}
	if !lv.LiveOut(sInc, p.LookupVar("i")) {
		t.Error("i live inside loop")
	}
}

func TestLivenessGlobalsLiveAtExit(t *testing.T) {
	src := "int g; void f(void) { g = 1; }"
	p := compileProc(t, src, "f")
	a := analyze(t, p)
	lv := ComputeLiveness(p, a.Graph)
	if !lv.LiveOut(p.Body[0], p.LookupVar("g")) {
		t.Error("global must be live at exit")
	}
}

// allocSrc is a procedure whose body repeats one block k times: an
// update, a diamond with a store, a while loop and a call.
func allocSrc(k int) string {
	var b strings.Builder
	b.WriteString("int g;\nvoid h(void);\nint f(int n, int *q) {\n\tint a, b;\n\ta = 0;\n\tb = 1;\n")
	for i := 0; i < k; i++ {
		b.WriteString("\ta = a + n;\n\tif (a > b) b = b + a; else *q = a;\n\twhile (b > 100) b = b - 7;\n\th();\n")
	}
	b.WriteString("\treturn a + b;\n}\n")
	return b.String()
}

// One CFG + chain solve and one liveness solve allocate a fixed number of
// objects, each sized to the procedure: a body four times as long costs
// no more allocations.
func TestSolveAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(k int) float64 {
		p := compileProc(t, allocSrc(k), "f")
		return testing.AllocsPerRun(20, func() {
			a, err := Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			ComputeLiveness(p, a.Graph)
		})
	}
	if small, large := allocs(4), allocs(16); small != large {
		t.Errorf("Analyze + ComputeLiveness: %.0f allocations at 4 blocks, %.0f at 16", small, large)
	}
}

func TestDoLoopDefinesIV(t *testing.T) {
	p := il.NewProc("f", ctype.VoidType)
	iv := p.AddVar(il.Var{Name: "i", Type: ctype.IntType, Class: il.ClassLocal})
	x := p.AddVar(il.Var{Name: "x", Type: ctype.IntType, Class: il.ClassLocal})
	use := &il.Assign{Dst: heap.VarRef(x, ctype.IntType), Src: heap.VarRef(iv, ctype.IntType)}
	loop := &il.DoLoop{IV: iv, Init: heap.Int(0), Limit: heap.Int(9), Step: heap.Int(1), Body: []il.Stmt{use}}
	p.Body = []il.Stmt{loop}
	a := analyze(t, p)
	defs := reachingDefs(a, use, iv)
	foundIV := false
	for _, d := range defs {
		if d.Node.IVDef == iv {
			foundIV = true
		}
	}
	if !foundIV {
		t.Errorf("DoLoop should define its IV; defs: %d", len(defs))
	}
	_ = loop
}

// sameSolution reports the first table in which got differs from a
// fresh solve want of the same procedure: the CFG (statements, edges,
// NodeOf, Labels, RPO), the definitions, the gen/kill/in/out sets, every
// variable's def mask and the live-out sets.
func sameSolution(got, want *Analysis, gotLV, wantLV *Liveness) string {
	g, w := got.Graph, want.Graph
	if len(g.Nodes) != len(w.Nodes) || g.Entry != w.Entry || g.Exit != w.Exit {
		return "graph size"
	}
	for i, n := range g.Nodes {
		m := w.Nodes[i]
		if n.ID != i || n.Stmt != m.Stmt || n.IVDef != m.IVDef || n.Latch != m.Latch ||
			!slices.Equal(n.Succs, m.Succs) || !slices.Equal(n.Preds, m.Preds) {
			return fmt.Sprintf("node %d", i)
		}
	}
	if len(g.NodeOf) != len(w.NodeOf) {
		return "NodeOf size"
	}
	for s, n := range w.NodeOf {
		if g.NodeOf[s] == nil || g.NodeOf[s].ID != n.ID {
			return fmt.Sprintf("NodeOf[%v]", s)
		}
	}
	if !maps.Equal(g.Labels, w.Labels) || !slices.Equal(g.RPO(), w.RPO()) {
		return "labels or RPO"
	}
	if len(got.Defs) != len(want.Defs) {
		return "def count"
	}
	for i, d := range got.Defs {
		e := want.Defs[i]
		if d.ID != e.ID || d.Node.ID != e.Node.ID || d.Var != e.Var || d.Ambiguous != e.Ambiguous || d.Entry != e.Entry {
			return fmt.Sprintf("def %d", i)
		}
	}
	for id := range g.Nodes {
		if !slices.Equal(got.gen[id], want.gen[id]) || !slices.Equal(got.kill[id], want.kill[id]) ||
			!slices.Equal(got.in[id], want.in[id]) || !slices.Equal(got.out[id], want.out[id]) {
			return fmt.Sprintf("gen/kill/in/out at node %d", id)
		}
		if !slices.Equal(gotLV.liveOut[id], wantLV.liveOut[id]) {
			return fmt.Sprintf("live-out at node %d", id)
		}
	}
	for v := range got.Proc.Vars {
		if !slices.Equal(got.maskOf(il.VarID(v)), want.maskOf(il.VarID(v))) {
			return fmt.Sprintf("def mask of %s", got.Proc.Vars[v].Name)
		}
	}
	return ""
}

// A large procedure, a small one and the large one again, solved into one
// Analysis and one Liveness: each solve equals a fresh one, so nothing
// the previous procedure left in the reused storage shows through. The
// small procedure has more variables and a goto, so every table both
// shrinks and grows along the way, and its def masks are all built before
// the storage is reused.
func TestReanalyzeMatchesFresh(t *testing.T) {
	large := compileProc(t, allocSrc(12), "f")
	small := compileProc(t, `
int g;
int f(int x, int y) {
	int a, b, c, d, e;
	a = x; b = y; c = a + b; d = c * 2; e = d - a;
	if (e > 3) goto out;
	g = e;
out:
	return a + b + c + d + e;
}
`, "f")
	var a Analysis
	var lv Liveness
	for _, p := range []*il.Proc{large, small, large, small} {
		if err := a.Reanalyze(p); err != nil {
			t.Fatal(err)
		}
		lv.Recompute(p, a.Graph)
		fresh := analyze(t, p)
		if diff := sameSolution(&a, fresh, &lv, ComputeLiveness(p, fresh.Graph)); diff != "" {
			t.Fatalf("%d statements: re-solved %s differs from a fresh solve", len(p.Body), diff)
		}
	}
}

// Re-solving an unchanged procedure into its own storage allocates
// nothing: the CFG, the chains and the liveness all fit in what the first
// solve sized.
func TestReanalyzeAllocatesNothing(t *testing.T) {
	p := compileProc(t, allocSrc(8), "f")
	a := analyze(t, p)
	lv := ComputeLiveness(p, a.Graph)
	var w il.VarID
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.Reanalyze(p); err != nil {
			t.Fatal(err)
		}
		lv.Recompute(p, a.Graph)
		a.ForEachReachingDef(p.Body[len(p.Body)-1], p.LookupVar("a"), func(d *Def) { w = d.Var })
	})
	if allocs != 0 {
		t.Errorf("Reanalyze + Recompute of an unchanged procedure: %.0f allocations, want 0", allocs)
	}
	_ = w
}

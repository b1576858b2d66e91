package il

import (
	"strings"
	"testing"

	"repro/internal/ctype"
)

// mkP builds a tiny procedure for rendering tests.
func mkP() *Proc {
	p := NewProc("demo", ctype.IntType)
	p.AddVar(Var{Name: "x", Type: ctype.IntType, Class: ClassLocal})
	p.AddVar(Var{Name: "p", Type: ctype.PointerTo(ctype.FloatType), Class: ClassParam})
	p.Params = []VarID{1}
	return p
}

func TestStmtStringForms(t *testing.T) {
	p := mkP()
	intT := ctype.IntType
	cases := []struct {
		s    Stmt
		want []string
	}{
		{&Assign{Dst: h.VarRef(0, intT), Src: h.Int(5)}, []string{"x = 5"}},
		{&Assign{Dst: &Load{Addr: h.VarRef(1, p.Vars[1].Type), T: ctype.FloatType}, Src: h.ConstFloat(1, ctype.FloatType)},
			[]string{"*(p) = 1"}},
		{&Call{Dst: 0, Callee: "g", Args: []Expr{h.Int(1), h.Int(2)}, T: intT},
			[]string{"x = call g(1, 2)"}},
		{&Call{Dst: NoVar, Callee: "h", T: ctype.VoidType}, []string{"call h()"}},
		{&Call{Dst: NoVar, FunPtr: h.VarRef(0, intT), T: ctype.VoidType}, []string{"call (*x)()"}},
		{&If{Cond: h.VarRef(0, intT), Then: []Stmt{&Return{}}, Else: []Stmt{&Return{Val: h.Int(1)}}},
			[]string{"if x {", "} else {", "return 1"}},
		{&While{Cond: h.VarRef(0, intT), Safe: true, Body: []Stmt{&Goto{Target: "L"}}},
			[]string{"while x /*safe*/", "goto L"}},
		{&DoLoop{IV: 0, Init: h.Int(0), Limit: h.Int(9), Step: h.Int(1), Safe: true},
			[]string{"do x = 0, 9, 1 /*safe*/"}},
		{&DoParallel{IV: 0, Init: h.Int(0), Limit: h.Int(9), Step: h.Int(2)},
			[]string{"do parallel x = 0, 9, 2"}},
		{&VectorAssign{DstBase: h.VarRef(1, p.Vars[1].Type), DstStride: h.Int(4), Len: h.Int(8),
			Elem: ctype.FloatType,
			RHS:  &VecRef{Base: h.VarRef(1, p.Vars[1].Type), Stride: h.Int(4), T: ctype.FloatType}},
			[]string{"[p :4](0:8) = [p :4]"}},
		{&Label{Name: "top"}, []string{"top:"}},
		{&Return{}, []string{"return"}},
	}
	for _, c := range cases {
		got := p.StmtString(c.s, 0)
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("StmtString(%T) = %q, missing %q", c.s, got, w)
			}
		}
	}
}

func TestExprStringForms(t *testing.T) {
	p := mkP()
	cases := []struct {
		e    Expr
		want string
	}{
		{h.Int(7), "7"},
		{h.ConstFloat(2.5, ctype.FloatType), "2.5"},
		{h.VarRef(0, ctype.IntType), "x"},
		{&AddrOf{ID: 0, T: ctype.PointerTo(ctype.IntType)}, "&x"},
		{&Load{Addr: h.VarRef(1, p.Vars[1].Type), T: ctype.FloatType, Volatile: true}, "*(volatile)(p)"},
		{&Un{Op: OpNot, X: h.VarRef(0, ctype.IntType), T: ctype.IntType}, "(! x)"},
		{&Cast{X: h.VarRef(0, ctype.IntType), T: ctype.FloatType}, "(float)(x)"},
	}
	for _, c := range cases {
		if got := p.ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
	if p.ExprString(nil) != "<nil>" {
		t.Error("nil expr")
	}
}

func TestRawStringMethods(t *testing.T) {
	// The raw String() forms (v-numbers) used outside a proc context.
	e := &Bin{Op: OpAdd, L: &VarRef{ID: 3, T: ctype.IntType}, R: h.Int(1), T: ctype.IntType}
	if e.String() != "(v3 + 1)" {
		t.Errorf("Bin.String: %s", e)
	}
	s := &Assign{Dst: &VarRef{ID: 0, T: ctype.IntType}, Src: h.Int(2)}
	if s.String() != "v0 = 2" {
		t.Errorf("Assign.String: %s", s)
	}
	g := &Goto{Target: "L"}
	if g.String() != "goto L" {
		t.Errorf("Goto.String: %s", g)
	}
	w := &While{Cond: h.Int(1), Body: []Stmt{s}}
	if !strings.Contains(w.String(), "while 1 [1 stmts]") {
		t.Errorf("While.String: %s", w)
	}
	ifs := &If{Cond: h.Int(0)}
	if !strings.Contains(ifs.String(), "if 0") {
		t.Errorf("If.String: %s", ifs)
	}
	va := &VectorAssign{DstBase: h.Int(0), DstStride: h.Int(4), Len: h.Int(8), RHS: h.Int(1)}
	if !strings.Contains(va.String(), "](0:8)") {
		t.Errorf("VectorAssign.String: %s", va)
	}
	d := &DoParallel{IV: 1, Init: h.Int(0), Limit: h.Int(3), Step: h.Int(1)}
	if !strings.Contains(d.String(), "do parallel v1") {
		t.Errorf("DoParallel.String: %s", d)
	}
	vr := &VecRef{Base: h.Int(0), Stride: h.Int(4), T: ctype.FloatType}
	if vr.String() != "[0 :4]" {
		t.Errorf("VecRef.String: %s", vr)
	}
	c := &Call{Dst: 2, Callee: "f", T: ctype.IntType}
	if c.String() != "v2 = call f()" {
		t.Errorf("Call.String: %s", c)
	}
	r := &Return{Val: h.Int(1)}
	if r.String() != "return 1" {
		t.Errorf("Return.String: %s", r)
	}
}

func TestProgramString(t *testing.T) {
	prog := &Program{}
	prog.AddGlobal(GlobalVar{Name: "g", Type: ctype.IntType})
	prog.AddGlobal(GlobalVar{Name: "g", Type: ctype.IntType}) // dup ignored
	if len(prog.Globals) != 1 {
		t.Error("duplicate global added")
	}
	p := mkP()
	p.Body = []Stmt{&Return{Val: h.Int(0)}}
	prog.Procs = append(prog.Procs, p)
	out := prog.String()
	if !strings.Contains(out, "global int g") || !strings.Contains(out, "proc demo") {
		t.Errorf("program string:\n%s", out)
	}
	if prog.Proc("demo") != p || prog.Proc("nope") != nil {
		t.Error("Proc lookup")
	}
	if prog.Global("g") == nil || prog.Global("zz") != nil {
		t.Error("Global lookup")
	}
}

func TestVarNameFallbacks(t *testing.T) {
	p := mkP()
	if p.varName(NoVar) != "_" {
		t.Error("NoVar name")
	}
	if p.varName(VarID(99)) != "v99" {
		t.Error("out-of-range name")
	}
	if p.LookupVar("x") != 0 || p.LookupVar("zz") != NoVar {
		t.Error("LookupVar")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpEq.IsComparison() || OpAdd.IsComparison() {
		t.Error("comparison")
	}
	if OpShl.String() != "<<" || OpNeg.String() != "neg" {
		t.Error("op names")
	}
}

func TestVarClassString(t *testing.T) {
	if ClassParam.String() != "param" || ClassStatic.String() != "static" {
		t.Error("class names")
	}
	v := Var{Name: "ks", Type: ctype.Qualified(ctype.IntType, true, false)}
	if !v.IsVolatile() {
		t.Error("volatile var")
	}
}

package opt

import (
	"testing"

	"repro/internal/ctype"
	"repro/internal/il"
)

// An unreachable predecessor never runs, so it takes no copy away: in
//
//	x = y; goto L; x = 5; L: r = x + 1
//
// x = y is available at L although x = 5 also falls into it. The IL is
// built by hand and copy propagation called alone: the front end and the
// rest of the fixpoint would delete x = 5 first.
func TestCopyPropIgnoresUnreachablePreds(t *testing.T) {
	p := il.NewProc("f", ctype.IntType)
	var ar *il.Arena
	local := func(name string, class il.VarClass) il.VarID {
		return p.AddVar(il.Var{Name: name, Type: ctype.IntType, Class: class})
	}
	y, x, r := local("y", il.ClassParam), local("x", il.ClassLocal), local("r", il.ClassLocal)
	p.Params = []il.VarID{y}
	ref := func(v il.VarID) *il.VarRef { return ar.VarRef(v, ctype.IntType) }
	use := &il.Assign{Dst: ref(r), Src: ar.Add(ref(x), ar.Int(1), ctype.IntType)}
	p.Body = []il.Stmt{
		&il.Assign{Dst: ref(x), Src: ref(y)},
		&il.Goto{Target: "L"},
		&il.Assign{Dst: ref(x), Src: ar.Int(5)},
		&il.Label{Name: "L"},
		use,
		&il.Return{Val: ref(r)},
	}
	propagateCopies(p, nil, new(scratch))
	if got := p.ExprString(use.Src); got != "(y + 1)" {
		t.Errorf("r = %s after copy propagation, want r = y + 1:\n%s", got, p)
	}
}

package parallel

import (
	"testing"

	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sema"
)

// compileProg lowers and scalar-optimizes a whole program.
func compileProg(t *testing.T, src string) *il.Program {
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
	for _, p := range prog.Procs {
		opt.Optimize(p, opt.DefaultOptions(), nil, nil)
	}
	return prog
}

const listSrc = `
struct node { float val; struct node *next; };
void scale(struct node *head, float k)
{
	struct node *p;
	p = head;
	while (p) {
		p->val = p->val * k;
		p = p->next;
	}
}
`

func TestListLoopConverts(t *testing.T) {
	prog := compileProg(t, listSrc)
	p := prog.Proc("scale")
	st := ParallelizeListLoops(prog, p, nil)
	if st.LoopsConverted != 1 {
		t.Fatalf("converted %d:\n%s", st.LoopsConverted, p)
	}
	var pars, whiles int
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		switch s.(type) {
		case *il.DoParallel:
			pars++
		case *il.While:
			whiles++
		}
		return true
	})
	if pars != 1 {
		t.Errorf("parallel loops: %d\n%s", pars, p)
	}
	// The collection loop and the tail loop are both serial whiles.
	if whiles != 2 {
		t.Errorf("serial whiles: %d (want collect + tail)\n%s", whiles, p)
	}
	if prog.Global(".listbuf") == nil {
		t.Error("pointer buffer not allocated")
	}
}

func TestListLoopWithCallNotConverted(t *testing.T) {
	src := `
struct node { float val; struct node *next; };
void visit(float);
void walk(struct node *head)
{
	struct node *p;
	p = head;
	while (p) {
		visit(p->val);
		p = p->next;
	}
}
`
	prog := compileProg(t, src)
	p := prog.Proc("walk")
	if st := ParallelizeListLoops(prog, p, nil); st.LoopsConverted != 0 {
		t.Fatalf("call-bearing loop converted:\n%s", p)
	}
}

func TestListLoopGlobalStoreNotConverted(t *testing.T) {
	src := `
struct node { float val; struct node *next; };
float total;
void sum(struct node *head)
{
	struct node *p;
	p = head;
	while (p) {
		total = total + p->val;
		p = p->next;
	}
}
`
	prog := compileProg(t, src)
	p := prog.Proc("sum")
	if st := ParallelizeListLoops(prog, p, nil); st.LoopsConverted != 0 {
		t.Fatalf("reduction loop converted:\n%s", p)
	}
}

func TestListLoopNonChaseNotConverted(t *testing.T) {
	// The control variable advances by arithmetic, not a chase: the DO
	// converter owns that case.
	src := `
void f(int *p, int n)
{
	while (n) {
		*p = 0;
		p = p + 1;
		n = n - 1;
	}
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeListLoops(prog, p, nil); st.LoopsConverted != 0 {
		t.Fatalf("arithmetic loop treated as list chase:\n%s", p)
	}
}

package repro_test

// The IL's one invariant: no il.Expr is written after it is built.
// Statements are copied and rewritten in place; expressions are values
// that any statement of any procedure may share (CloneStmt, Proc.Clone
// and inline expansion copy statements only), so a write to one would
// change every statement that references it.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/il"
	"repro/internal/pass"
)

// exprText renders e with every node's fields, its type included, so a
// write to any field of any node below e changes the text. memo holds
// the texts already rendered in this snapshot.
func exprText(e il.Expr, memo map[il.Expr]string) string {
	if s, ok := memo[e]; ok {
		return s
	}
	var s string
	switch n := e.(type) {
	case *il.Load:
		s = fmt.Sprintf("*(%s volatile=%t)", exprText(n.Addr, memo), n.Volatile)
	case *il.Bin:
		s = fmt.Sprintf("(%s %s %s)", exprText(n.L, memo), n.Op, exprText(n.R, memo))
	case *il.Un:
		s = fmt.Sprintf("(%s %s)", n.Op, exprText(n.X, memo))
	case *il.Cast:
		s = fmt.Sprintf("cast(%s)", exprText(n.X, memo))
	case *il.VecRef:
		s = fmt.Sprintf("[%s :%s]", exprText(n.Base, memo), exprText(n.Stride, memo))
	default: // a leaf prints every field but its type
		s = e.String()
	}
	s += ":" + fmt.Sprint(e.Type())
	memo[e] = s
	return s
}

// exprWriteShapes has one statement for each rewrite that, done in place
// on an expression, would leave the written node in the IL after the
// pass, where the next snapshot sees it: constant propagation into a
// store's address (c[m], which no fold rebuilds afterwards), copy
// propagation into one (a[n] after n = i), and a one-term sum whose term
// has another type than the sum ((i & j) is an int in an unsigned sum,
// with no cast between them), which SimplifyLinear returns at the sum's
// type. The rest of the corpus reaches none of the three.
const exprWriteShapes = `
char c[10];
double a[10];
unsigned r;

unsigned shapes(int i, int j, unsigned k)
{
	int m, n;
	m = 3;
	c[m] = 1;
	n = i;
	a[n] = 1.0;
	r = (i & j) + k - k;
	return r + c[3];
}

int main(void)
{
	return shapes(7, 5, 3);
}
`

// immutabilityProgs is the corpus the invariant is checked over: the
// benchmark's programs, the corpus kernels at their table and small
// sizes, the two many-procedure units (the compile workload's shape, and
// loop procedures with while→DO splices) and exprWriteShapes.
func immutabilityProgs(t *testing.T) map[string]string {
	t.Helper()
	progs := map[string]string{}
	paths, err := filepath.Glob("benchmark/programs/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no programs match benchmark/programs/*.c (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.ToSlash(p)] = string(src)
	}
	for _, w := range corpusFiles() {
		progs[w.Name] = w.Src
	}
	for _, w := range append(bench.Small(""), bench.ManyProcs(), bench.RaceProgram(12)) {
		progs["workload/"+w.Name] = w.Src
	}
	progs["expr-write-shapes"] = exprWriteShapes
	return progs
}

// TestExprsImmutable records, at every pass boundary of a compile, the
// text of every expression node the IL references, keyed by the node's
// pointer, and requires that no node recorded at one boundary reads
// differently at a later one.
func TestExprsImmutable(t *testing.T) {
	for name, src := range immutabilityProgs(t) {
		for _, cfg := range []struct {
			name string
			opts driver.Options
		}{{"scalar", driver.ScalarOptions()}, {"full", driver.FullOptions()}} {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				seen := map[il.Expr]string{}
				firstAt := map[il.Expr]string{}
				ctx := pass.NewContext()
				ctx.Snapshot = func(boundary string, prog *il.Program) {
					memo := map[il.Expr]string{}
					for _, p := range prog.Procs {
						il.WalkStmts(p.Body, func(s il.Stmt) bool {
							il.StmtExprs(s, func(e il.Expr) {
								il.WalkExpr(e, func(x il.Expr) bool {
									text := exprText(x, memo)
									if was, ok := seen[x]; !ok {
										seen[x], firstAt[x] = text, boundary
									} else if was != text {
										t.Errorf("after %s, %s: an expression recorded after %s as\n\t%s\nnow reads\n\t%s",
											boundary, p.Name, firstAt[x], was, text)
										seen[x] = text
									}
									return true
								})
							})
							return true
						})
					}
				}
				if _, err := driver.CompileILWith(src, cfg.opts, ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

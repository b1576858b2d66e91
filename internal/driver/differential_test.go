package driver

// Differential testing of the whole compiler: random structured C
// programs are generated alongside a Go reference interpretation, then
// compiled and simulated under every optimization configuration. Any
// divergence is a miscompilation somewhere in the
// lower/opt/vector/strength/codegen pipeline.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// progGen generates a random program and can evaluate it.
type progGen struct {
	r     *rand.Rand
	sb    strings.Builder
	depth int
}

// expr is the reference-evaluable expression tree.
type expr struct {
	op   string // "const", "var", binary ops, "neg", "not", "cond"
	val  int64
	vidx int
	l, r *expr
	c    *expr // condition for "cond"
}

const numVars = 4

func (g *progGen) genExpr(depth int) *expr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return &expr{op: "const", val: int64(g.r.Intn(21) - 10)}
		}
		return &expr{op: "var", vidx: g.r.Intn(numVars)}
	}
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"==", "!=", "<", ">", "<=", ">=", "&&", "||", "neg", "not", "cond"}
	op := ops[g.r.Intn(len(ops))]
	switch op {
	case "neg", "not":
		return &expr{op: op, l: g.genExpr(depth - 1)}
	case "cond":
		return &expr{op: op, c: g.genExpr(depth - 1), l: g.genExpr(depth - 1), r: g.genExpr(depth - 1)}
	case "/", "%":
		// Non-zero constant divisors keep both worlds defined.
		d := int64(g.r.Intn(9) + 1)
		if g.r.Intn(2) == 0 {
			d = -d
		}
		return &expr{op: op, l: g.genExpr(depth - 1), r: &expr{op: "const", val: d}}
	case "<<", ">>":
		return &expr{op: op, l: g.genExpr(depth - 1), r: &expr{op: "const", val: int64(g.r.Intn(5))}}
	default:
		return &expr{op: op, l: g.genExpr(depth - 1), r: g.genExpr(depth - 1)}
	}
}

func (e *expr) c99(varNames []string) string {
	b2 := func(f string) string {
		return "(" + e.l.c99(varNames) + " " + f + " " + e.r.c99(varNames) + ")"
	}
	switch e.op {
	case "const":
		if e.val < 0 {
			return fmt.Sprintf("(%d)", e.val)
		}
		return fmt.Sprintf("%d", e.val)
	case "var":
		return varNames[e.vidx]
	case "neg":
		return "(-" + e.l.c99(varNames) + ")"
	case "not":
		return "(!" + e.l.c99(varNames) + ")"
	case "cond":
		return "(" + e.c.c99(varNames) + " ? " + e.l.c99(varNames) + " : " + e.r.c99(varNames) + ")"
	default:
		return b2(e.op)
	}
}

// eval interprets with the simulator's semantics: 64-bit registers,
// shift counts masked to 6 bits.
func (e *expr) eval(vars []int64) int64 {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch e.op {
	case "const":
		return e.val
	case "var":
		return vars[e.vidx]
	case "neg":
		return -e.l.eval(vars)
	case "not":
		return b2i(e.l.eval(vars) == 0)
	case "cond":
		if e.c.eval(vars) != 0 {
			return e.l.eval(vars)
		}
		return e.r.eval(vars)
	}
	l := e.l.eval(vars)
	r := e.r.eval(vars)
	switch e.op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "/":
		return l / r
	case "%":
		return l % r
	case "&":
		return l & r
	case "|":
		return l | r
	case "^":
		return l ^ r
	case "<<":
		return l << uint(r&63)
	case ">>":
		return l >> uint(r&63)
	case "==":
		return b2i(l == r)
	case "!=":
		return b2i(l != r)
	case "<":
		return b2i(l < r)
	case ">":
		return b2i(l > r)
	case "<=":
		return b2i(l <= r)
	case ">=":
		return b2i(l >= r)
	case "&&":
		return b2i(l != 0 && r != 0)
	case "||":
		return b2i(l != 0 || r != 0)
	}
	panic("bad op " + e.op)
}

// stmt is the reference-evaluable statement tree.
type stmt struct {
	kind  string // "assign", "if", "for"
	vidx  int
	e     *expr
	body  []*stmt
	els   []*stmt
	trips int
	loopV int // extra loop counter index (negative: none)
}

func (g *progGen) genStmts(depth, n int) []*stmt {
	var out []*stmt
	for i := 0; i < n; i++ {
		switch k := g.r.Intn(6); {
		case k < 3 || depth <= 0:
			out = append(out, &stmt{kind: "assign", vidx: g.r.Intn(numVars), e: g.genExpr(3)})
		case k < 5:
			s := &stmt{kind: "if", e: g.genExpr(2),
				body: g.genStmts(depth-1, 1+g.r.Intn(2))}
			if g.r.Intn(2) == 0 {
				s.els = g.genStmts(depth-1, 1+g.r.Intn(2))
			}
			out = append(out, s)
		default:
			out = append(out, &stmt{kind: "for", trips: 1 + g.r.Intn(6),
				body: g.genStmts(depth-1, 1+g.r.Intn(2))})
		}
	}
	return out
}

func emitStmts(sb *strings.Builder, stmts []*stmt, varNames []string, indent string, loopSeq *int) {
	for _, s := range stmts {
		switch s.kind {
		case "assign":
			fmt.Fprintf(sb, "%s%s = %s;\n", indent, varNames[s.vidx], s.e.c99(varNames))
		case "if":
			fmt.Fprintf(sb, "%sif (%s) {\n", indent, s.e.c99(varNames))
			emitStmts(sb, s.body, varNames, indent+"\t", loopSeq)
			if s.els != nil {
				fmt.Fprintf(sb, "%s} else {\n", indent)
				emitStmts(sb, s.els, varNames, indent+"\t", loopSeq)
			}
			fmt.Fprintf(sb, "%s}\n", indent)
		case "for":
			*loopSeq++
			lv := fmt.Sprintf("L%d", *loopSeq)
			fmt.Fprintf(sb, "%s{ int %s; for (%s = 0; %s < %d; %s++) {\n",
				indent, lv, lv, lv, s.trips, lv)
			emitStmts(sb, s.body, varNames, indent+"\t", loopSeq)
			fmt.Fprintf(sb, "%s} }\n", indent)
		}
	}
}

func evalStmts(stmts []*stmt, vars []int64) {
	for _, s := range stmts {
		switch s.kind {
		case "assign":
			vars[s.vidx] = s.e.eval(vars)
		case "if":
			if s.e.eval(vars) != 0 {
				evalStmts(s.body, vars)
			} else if s.els != nil {
				evalStmts(s.els, vars)
			}
		case "for":
			for k := 0; k < s.trips; k++ {
				evalStmts(s.body, vars)
			}
		}
	}
}

// buildProgram renders the statement list as a C program returning a hash
// of the final variable values, and computes the expected exit code.
func buildProgram(stmts []*stmt, inputs []int64) (string, int64) {
	varNames := []string{"va", "vb", "vc", "vd"}
	var sb strings.Builder
	sb.WriteString("int run(int va, int vb, int vc, int vd) {\n")
	loopSeq := 0
	emitStmts(&sb, stmts, varNames, "\t", &loopSeq)
	// Mix the results; keep within int32 via masking so the 4-byte
	// return path cannot truncate differently.
	sb.WriteString("\treturn ((va ^ vb) + (vc ^ vd)) & 0xffff;\n}\n")
	fmt.Fprintf(&sb, "int main(void) { return run(%d, %d, %d, %d); }\n",
		inputs[0], inputs[1], inputs[2], inputs[3])

	vars := append([]int64(nil), inputs...)
	evalStmts(stmts, vars)
	want := ((vars[0] ^ vars[1]) + (vars[2] ^ vars[3])) & 0xffff
	return sb.String(), want
}

func TestDifferentialRandomPrograms(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"O0", Options{OptLevel: 0}},
		{"O1", ScalarOptions()},
		{"full", FullOptions()},
		{"straightforward", Options{OptLevel: 1, Inline: true, Vectorize: true, Straightforward: true, StrengthReduce: true}},
	}
	n := 120
	if testing.Short() {
		n = 25
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := &progGen{r: r}
		stmts := g.genStmts(2, 2+r.Intn(4))
		inputs := []int64{int64(r.Intn(41) - 20), int64(r.Intn(41) - 20),
			int64(r.Intn(41) - 20), int64(r.Intn(41) - 20)}
		src, want := buildProgram(stmts, inputs)
		for _, cfg := range configs {
			res, err := Run(src, cfg.opts, 1+seed%4)
			if err != nil {
				t.Fatalf("seed %d cfg %s: %v\nprogram:\n%s", seed, cfg.name, err, src)
			}
			if res.ExitCode != want {
				t.Fatalf("seed %d cfg %s: got %d want %d\nprogram:\n%s",
					seed, cfg.name, res.ExitCode, want, src)
			}
		}
	}
}

// TestDifferentialExpressions stresses deeply nested side-effect-free
// expressions through all the folding paths.
func TestDifferentialExpressions(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 50
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		g := &progGen{r: r}
		e := g.genExpr(5)
		varNames := []string{"va", "vb", "vc", "vd"}
		inputs := []int64{int64(r.Intn(19) - 9), int64(r.Intn(19) - 9),
			int64(r.Intn(19) - 9), int64(r.Intn(19) - 9)}
		src := fmt.Sprintf(`
int run(int va, int vb, int vc, int vd) { return (%s) & 0xffff; }
int main(void) { return run(%d, %d, %d, %d); }
`, e.c99(varNames), inputs[0], inputs[1], inputs[2], inputs[3])
		want := e.eval(inputs) & 0xffff
		for _, lvl := range []Options{{OptLevel: 0}, ScalarOptions()} {
			res, err := Run(src, lvl, 1)
			if err != nil {
				t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
			}
			if res.ExitCode != want {
				t.Fatalf("seed %d opts %+v: got %d want %d\nprogram:\n%s",
					seed, lvl, res.ExitCode, want, src)
			}
		}
	}
}

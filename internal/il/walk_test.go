package il

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/token"
)

// The rewriter's tests build trees of labels: a leaf's name says what the
// leave callback does with it (k keep, d delete, r one-for-one, m
// one-for-many), and a container on a line divisible by 5 is spliced away
// in favour of its first list.

func leaf(name string) Stmt { return &Label{Name: name} }

// container wraps body in the kind'th statement that holds lists.
func container(kind int, line int, body, alt []Stmt) Stmt {
	pos := token.Pos{Line: line}
	switch kind % 4 {
	case 0:
		return &If{Cond: h.Int(1), Then: body, Else: alt, Pos: pos}
	case 1:
		return &While{Cond: h.Int(1), Body: body, Pos: pos}
	case 2:
		return &DoLoop{Init: h.Int(0), Limit: h.Int(1), Step: h.Int(1), Body: body, Pos: pos}
	}
	return &DoParallel{Init: h.Int(0), Limit: h.Int(1), Step: h.Int(1), Body: body, Pos: pos}
}

func lists(s Stmt) [][]Stmt {
	switch n := s.(type) {
	case *If:
		return [][]Stmt{n.Then, n.Else}
	case *While:
		return [][]Stmt{n.Body}
	case *DoLoop:
		return [][]Stmt{n.Body}
	case *DoParallel:
		return [][]Stmt{n.Body}
	}
	return nil
}

func render(list []Stmt) string {
	var parts []string
	for _, s := range list {
		if l, ok := s.(*Label); ok {
			parts = append(parts, l.Name)
			continue
		}
		var arms []string
		for _, sub := range lists(s) {
			arms = append(arms, render(sub))
		}
		parts = append(parts, fmt.Sprintf("%T{%s}", s, strings.Join(arms, "|")))
	}
	return strings.Join(parts, " ")
}

// edit is the leave callback described above; every call is logged with
// the predecessors it was shown.
func edit(log *[]string) func(Stmt, []Stmt) ([]Stmt, bool) {
	return func(s Stmt, prev []Stmt) ([]Stmt, bool) {
		*log = append(*log, render([]Stmt{s})+" after ["+render(prev)+"]")
		l, ok := s.(*Label)
		if !ok {
			if StmtPos(s).Line%5 == 0 {
				return lists(s)[0], true
			}
			return nil, false
		}
		switch l.Name[0] {
		case 'd':
			return nil, true
		case 'r':
			return []Stmt{leaf(l.Name + "'")}, true
		case 'm':
			return []Stmt{leaf(l.Name + "1"), leaf(l.Name + "2"), leaf(l.Name + "3")}, true
		}
		return nil, false
	}
}

// refRewrite is the recursion RewriteStmts replaces, kept as its oracle:
// always a fresh output list, nothing shared with the input.
func refRewrite(list []Stmt, enter func(Stmt) bool, leave func(Stmt, []Stmt) ([]Stmt, bool)) []Stmt {
	out := []Stmt{}
	for _, s := range list {
		if enter == nil || enter(s) {
			switch n := s.(type) {
			case *If:
				n.Then = refRewrite(n.Then, enter, leave)
				n.Else = refRewrite(n.Else, enter, leave)
			case *While:
				n.Body = refRewrite(n.Body, enter, leave)
			case *DoLoop:
				n.Body = refRewrite(n.Body, enter, leave)
			case *DoParallel:
				n.Body = refRewrite(n.Body, enter, leave)
			}
		}
		if repl, replaced := leave(s, out); replaced {
			out = append(out, repl...)
		} else {
			out = append(out, s)
		}
	}
	return out
}

func TestRewriteStmtsTable(t *testing.T) {
	edits := []struct{ op, want string }{
		{"k", "k"}, {"d", ""}, {"r", "r'"}, {"m", "m1 m2 m3"},
	}
	kinds := []string{"*il.If", "*il.While", "*il.DoLoop", "*il.DoParallel"}
	for kind, kname := range kinds {
		for at := 0; at < 3; at++ {
			for _, e := range edits {
				names := []string{"k0", "k1", "k2"}
				names[at] = e.op
				body := []Stmt{leaf(names[0]), leaf(names[1]), leaf(names[2])}
				// The edited list is nested two deep, between kept
				// neighbours; an If carries it in its else-arm as well.
				var alt []Stmt
				if kind == 0 {
					alt = h.CloneStmts(body)
				}
				tree := []Stmt{leaf("ka"), container(kind, 1, []Stmt{leaf("kb"), container(kind, 2, body, alt), leaf("kc")}, nil), leaf("kz")}

				names[at] = e.want
				inner := strings.Join(strings.Fields(strings.Join(names, " ")), " ")
				arms := inner
				if kind == 0 {
					arms = inner + "|" + inner
				}
				outerAlt := ""
				if kind == 0 {
					outerAlt = "|"
				}
				want := fmt.Sprintf("ka %s{kb %s{%s} kc%s} kz", kname, kname, arms, outerAlt)

				var log []string
				got := render(RewriteStmts(tree, nil, edit(&log)))
				if got != want {
					t.Errorf("%s %q at %d:\n got  %s\n want %s", kname, e.op, at, got, want)
				}
			}
		}
	}
}

func TestRewriteStmtsEnterRefusesSubtree(t *testing.T) {
	tree := []Stmt{
		container(2, 1, []Stmt{leaf("d0"), container(3, 2, []Stmt{leaf("d1"), leaf("m2")}, nil), leaf("r3")}, nil),
	}
	entered := 0
	enter := func(s Stmt) bool {
		entered++
		_, par := s.(*DoParallel)
		return !par
	}
	var log []string
	got := render(RewriteStmts(tree, enter, edit(&log)))
	if want := "*il.DoLoop{*il.DoParallel{d1 m2} r3'}"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	// enter sees every statement outside the refused body, leave too; the
	// refused container itself is still offered to leave.
	if entered != 4 || len(log) != 4 {
		t.Errorf("enter ran %d times and leave %d, want 4 and 4:\n%s", entered, len(log), strings.Join(log, "\n"))
	}
}

func TestRewriteStmtsPrevIsTheRewrittenPredecessors(t *testing.T) {
	tree := []Stmt{leaf("d0"), leaf("m1"), container(1, 1, []Stmt{leaf("r2"), leaf("k3")}, nil), leaf("k4")}
	var log []string
	RewriteStmts(tree, nil, edit(&log))
	want := []string{
		"d0 after []",
		"m1 after []",
		"r2 after []",
		"k3 after [r2']",
		"*il.While{r2' k3} after [m11 m12 m13]",
		"k4 after [m11 m12 m13 *il.While{r2' k3}]",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Errorf("leave saw\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

func TestRewriteStmtsReusesStorage(t *testing.T) {
	tree := []Stmt{leaf("k0"), container(0, 1, []Stmt{leaf("k1"), leaf("d2"), leaf("k3")}, []Stmt{leaf("k4")}), leaf("d5"), leaf("k6")}
	var log []string
	out := RewriteStmts(tree, nil, edit(&log))
	if &out[0] != &tree[0] || len(out) != 3 {
		t.Errorf("a pure deletion did not filter in place: %s", render(out))
	}
	if raceDetector {
		return
	}
	keep := func(Stmt, []Stmt) ([]Stmt, bool) { return nil, false }
	if n := testing.AllocsPerRun(100, func() { out = RewriteStmts(out, nil, keep) }); n != 0 {
		t.Errorf("a walk that replaces nothing allocates %v times", n)
	}
}

// randomTree grows a seeded tree; names are unique so the logs compare.
func randomTree(rng *rand.Rand, depth int, seq *int) []Stmt {
	list := []Stmt{}
	for n := rng.Intn(5); n > 0; n-- {
		*seq++
		if depth < 3 && rng.Intn(3) == 0 {
			var alt []Stmt
			if rng.Intn(2) == 0 {
				alt = randomTree(rng, depth+1, seq)
			}
			list = append(list, container(rng.Intn(4), *seq, randomTree(rng, depth+1, seq), alt))
			continue
		}
		list = append(list, leaf(fmt.Sprintf("%c%d", "kkdrm"[rng.Intn(5)], *seq)))
	}
	return list
}

func TestRewriteStmtsAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		seq := 0
		tree := randomTree(rand.New(rand.NewSource(seed)), 0, &seq)
		twin := h.CloneStmts(tree)
		before := render(tree)
		// Refuse every third container, by line.
		enter := func(s Stmt) bool { return StmtPos(s).Line%3 != 0 }
		var gotLog, wantLog []string
		got := render(RewriteStmts(tree, enter, edit(&gotLog)))
		want := render(refRewrite(twin, enter, edit(&wantLog)))
		if got != want {
			t.Fatalf("seed %d: %s\n got  %s\n want %s", seed, before, got, want)
		}
		if strings.Join(gotLog, "\n") != strings.Join(wantLog, "\n") {
			t.Fatalf("seed %d: %s\nleave saw\n%s\nthe reference's saw\n%s", seed, before,
				strings.Join(gotLog, "\n"), strings.Join(wantLog, "\n"))
		}
	}
}

package depend

import (
	"slices"

	"repro/internal/il"
)

// MaxDoacrossDistance bounds the dependence distances DOACROSS
// synchronization will enforce. Distances beyond it leave so much slack
// between producer and consumer at 4 processors that the loop behaves as
// independent in practice, and huge thresholds stress nothing useful.
const MaxDoacrossDistance = 64

// DoacrossPlan says how a loop whose carried dependences all have known
// constant distances can be pipelined across processors with one
// post/wait pair per iteration (the combined/hoisted synchronization of
// arXiv:1211.4101: one post per dependence class per iteration).
type DoacrossPlan struct {
	// Distance is the combined synchronization distance: the gcd of all
	// carried memory-dependence distances. Waiting on iteration
	// iv - Distance·step forms a chain that transitively covers every
	// multiple of Distance, hence every original dependence.
	Distance int64
	// WaitIdx is the body statement index the wait is placed before. It
	// is min(earliest sink, latest source) so the wait also precedes the
	// post — required for the chain coverage above to be transitive.
	WaitIdx int
	// PostIdx is the body statement index the post is placed after: the
	// latest source statement of any carried dependence, so a post
	// certifies every dependence source of the iteration has executed.
	PostIdx int
	// Dep names the tightest (minimum-distance) carried dependence, for
	// remarks.
	Dep string
}

// Doacross decides whether the analyzed loop can be scheduled DOACROSS
// and returns the synchronization plan, or nil when it cannot — with the
// scalar read after the loop when that is what refuses it, and NoVar
// otherwise:
//
//   - barrier statements (calls, volatile accesses, irregular control)
//     cannot be ordered by post/wait;
//   - every carried memory dependence must have a known constant
//     distance in [1, MaxDoacrossDistance];
//   - a carried scalar flow dependence is a genuine scalar recurrence —
//     privatization cannot break it;
//   - carried scalar anti/output dependences on processor-private
//     temporaries vanish under the cyclic spread (each processor keeps
//     its own register copy); on observable variables they are fatal
//     (every scalar the body defines carries an output dependence on
//     itself). A scalar that escapes or is volatile is UnsafeScalar's
//     question; one read anywhere outside the loop may be read after it,
//     where the last iteration's value is wanted and some processor's
//     copy would be found.
func Doacross(p *il.Proc, ld *LoopDeps) (*DoacrossPlan, il.VarID) {
	for _, b := range ld.Barrier {
		if b {
			return nil, il.NoVar
		}
	}
	if UnsafeScalar(p, ld.Loop.Body) != "" {
		return nil, il.NoVar
	}
	var (
		g        int64
		minDist  int64
		minDep   string
		waitIdx  = len(ld.Loop.Body)
		postIdx  = -1
		memCount int
	)
	for i := range ld.Deps {
		d := &ld.Deps[i]
		if !d.Carried {
			continue
		}
		if d.Scalar {
			if d.Kind == Flow {
				return nil, il.NoVar
			}
			continue
		}
		if !d.Known || d.Distance < 1 || d.Distance > MaxDoacrossDistance {
			return nil, il.NoVar
		}
		memCount++
		g = gcd64(g, d.Distance)
		if minDep == "" || d.Distance < minDist {
			minDist = d.Distance
			minDep = d.String()
		}
		if d.To < waitIdx {
			waitIdx = d.To
		}
		if d.From > postIdx {
			postIdx = d.From
		}
	}
	if memCount == 0 {
		return nil, il.NoVar // independent: DOALL territory, not DOACROSS
	}
	for i := range ld.Deps {
		if d := &ld.Deps[i]; d.Carried && d.Scalar && readOutside(p, ld.Loop, d.Var) {
			return nil, d.Var
		}
	}
	if waitIdx > postIdx {
		waitIdx = postIdx // waiting earlier is always sound; see WaitIdx
	}
	return &DoacrossPlan{Distance: g, WaitIdx: waitIdx, PostIdx: postIdx, Dep: minDep}, il.NoVar
}

// readOutside reports whether p reads v anywhere but in loop.
func readOutside(p *il.Proc, loop *il.DoLoop, v il.VarID) bool {
	found := false
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if found || s == il.Stmt(loop) {
			return false
		}
		found = slices.Contains(usedScalars(s), v)
		return !found
	})
	return found
}

// UnsafeScalar is the scalar half of "these iterations may run on
// separate processors": it names a scalar the body defines that is
// observable outside an iteration — it escapes or is volatile, so each
// processor would race on the one copy — or reports "volatile" when the
// body touches volatile storage at all; "" means safe. A private scalar is
// safe because every processor keeps its own register copy and the
// dependence graph has already rejected carried scalar flow (use before
// definition). The DOALL, DOACROSS, nest and list-loop parallelizers all
// ask exactly this.
func UnsafeScalar(p *il.Proc, body []il.Stmt) string {
	name := ""
	il.WalkStmts(body, func(sub il.Stmt) bool {
		if dv := il.DefinedVar(sub); dv != il.NoVar {
			if v := &p.Vars[dv]; v.Escapes() || v.IsVolatile() {
				name = v.Name
			}
		}
		il.StmtExprs(sub, func(e il.Expr) {
			if name == "" && p.HasVolatile(e) {
				name = "volatile"
			}
		})
		return name == ""
	})
	return name
}

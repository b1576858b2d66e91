// Package inline implements §7's inline expansion. Procedures are expanded
// at call sites from the current translation unit or from catalogs —
// serialized libraries of parsed procedures (see catalog.go) — with
// parameter binding through temporaries, label and variable renaming, a
// recursion guard, and static-variable export. The optimizations that make
// inlined code fast (constant propagation into the guards, unreachable and
// dead code elimination — §8) live in package opt.
package inline

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/token"
)

// The expansion policy: small static functions and library kernels
// expand; a callee over maxStmts statements does not, and nested
// expansion stops after maxDepth rounds (the recursion guard's backstop).
const (
	maxStmts = 200
	maxDepth = 8
)

// Stats reports what expansion did, in the shape the pass pipeline's
// report expects.
type Stats struct {
	// CallsExpanded counts call sites replaced by callee bodies.
	CallsExpanded int `json:"calls_expanded"`
}

// Add folds another unit's stats into s.
func (s *Stats) Add(o Stats) { s.CallsExpanded += o.CallsExpanded }

// Inliner expands calls within one program, drawing callee bodies from the
// program itself and from attached catalogs.
type Inliner struct {
	Prog    *il.Program
	Catalog map[string]*il.Proc

	// Diags receives §7's expansion decisions: inline-expanded,
	// inline-recursive, inline-refused, and inline-static-export. Nil
	// drops them. expandProc revisits surviving calls once per depth
	// round, so refusals are deduplicated per (code, site, message).
	Diags *diag.Reporter

	// Expanded counts call sites expanded (for tests and reports).
	Expanded int
	seq      int
	seen     map[string]bool
}

// New returns an inliner over prog.
func New(prog *il.Program) *Inliner {
	return &Inliner{Prog: prog, Catalog: map[string]*il.Proc{}, seen: map[string]bool{}}
}

// report forwards d to Diags, dropping exact repeats (the depth loop
// re-examines refused calls every round).
func (in *Inliner) report(d diag.Diagnostic) {
	if in.Diags == nil {
		return
	}
	if in.seen == nil {
		in.seen = map[string]bool{}
	}
	key := fmt.Sprintf("%s|%s|%d:%d|%s", d.Code, d.Proc, d.Pos.Line, d.Pos.Col, d.Message)
	if in.seen[key] {
		return
	}
	in.seen[key] = true
	in.Diags.Report(d)
}

// refusal names why the expansion policy rejects callee, or returns ""
// when callee may expand.
func refusal(callee *il.Proc) string {
	if callee.Variadic {
		return "variadic callee"
	}
	if n := il.CountStmts(callee.Body); n > maxStmts {
		return fmt.Sprintf("callee has %d statements (limit %d)", n, maxStmts)
	}
	return ""
}

// AddCatalog attaches a library catalog; its procedures become candidates,
// and its globals (including exported statics, §7) are merged into the
// program.
func (in *Inliner) AddCatalog(c *Catalog) {
	for _, p := range c.Procs {
		in.Catalog[p.Name] = p
	}
	for _, g := range c.Globals {
		in.Prog.AddGlobal(g)
	}
}

// lookup finds a callee body: unit procedures shadow catalog entries.
func (in *Inliner) lookup(name string) *il.Proc {
	if p := in.Prog.Proc(name); p != nil && len(p.Body) > 0 {
		return p
	}
	return in.Catalog[name]
}

// ExpandProgram expands calls in every procedure.
func (in *Inliner) ExpandProgram() int {
	n := 0
	for _, p := range in.Prog.Procs {
		n += in.expandProc(p)
	}
	return n
}

// expandProc expands eligible calls in p until none remain or the depth
// bound hits. Calls introduced by expansion are themselves candidates
// (inlined functions may inline other functions, §7); the stack of names
// being expanded guards against recursion.
func (in *Inliner) expandProc(p *il.Proc) int {
	count := 0
	for depth := 0; depth < maxDepth; depth++ {
		n := 0
		p.Body = in.expandList(p, p.Body, map[string]bool{p.Name: true}, &n)
		count += n
		if n == 0 {
			break
		}
	}
	in.Expanded += count
	return count
}

// expandList replaces every expandable call in the tree under list by the
// callee's renamed body, counting the expansions in n.
func (in *Inliner) expandList(p *il.Proc, list []il.Stmt, stack map[string]bool, n *int) []il.Stmt {
	return il.RewriteStmts(list, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		call, ok := s.(*il.Call)
		if !ok {
			return nil, false
		}
		repl, ok := in.expandCall(p, call, stack)
		if ok {
			*n++
		}
		return repl, ok
	})
}

// expandCall replaces one call with the callee's renamed body.
func (in *Inliner) expandCall(p *il.Proc, call *il.Call, stack map[string]bool) ([]il.Stmt, bool) {
	if call.FunPtr != nil || call.Callee == "" {
		return nil, false // indirect calls hide the callee
	}
	if stack[call.Callee] {
		in.report(diag.Diagnostic{
			Severity: diag.SevRemark, Code: diag.InlineRecursive,
			Pos: call.Pos, Proc: p.Name, Pass: "inline",
			Args:    map[string]string{"callee": call.Callee},
			Message: fmt.Sprintf("call to %s not inlined: recursion detected (§7)", call.Callee),
		})
		return nil, false
	}
	callee := in.lookup(call.Callee)
	if callee == nil {
		// Unknown callees (externs with no catalog body) are an absence,
		// not a decision; only known-but-refused callees get a remark.
		return nil, false
	}
	if reason := refusal(callee); reason != "" {
		in.report(diag.Diagnostic{
			Severity: diag.SevRemark, Code: diag.InlineRefused,
			Pos: call.Pos, Proc: p.Name, Pass: "inline",
			Args:    map[string]string{"callee": call.Callee, "reason": reason},
			Message: fmt.Sprintf("call to %s not inlined: %s", call.Callee, reason),
		})
		return nil, false
	}
	if len(call.Args) != len(callee.Params) {
		in.report(diag.Diagnostic{
			Severity: diag.SevRemark, Code: diag.InlineRefused,
			Pos: call.Pos, Proc: p.Name, Pass: "inline",
			Args:    map[string]string{"callee": call.Callee, "reason": "argument count mismatch"},
			Message: fmt.Sprintf("call to %s not inlined: argument count mismatch", call.Callee),
		})
		return nil, false // old-style mismatch; leave the call alone
	}

	in.seq++
	prefix := fmt.Sprintf("in%d", in.seq)

	// Map callee variables into the caller.
	varMap := make([]il.VarID, len(callee.Vars))
	for i := range callee.Vars {
		cv := callee.Vars[i]
		switch cv.Class {
		case il.ClassGlobal, il.ClassStatic:
			// Same program-level storage; reuse or add a caller entry.
			// Statics were exported to globals when the callee was built
			// (§7), so the caller references them by name.
			if id := p.LookupVar(cv.Name); id != il.NoVar && p.Vars[id].Class == cv.Class {
				varMap[i] = id
			} else {
				varMap[i] = p.AddVar(il.Var{Name: cv.Name, Type: cv.Type, Class: cv.Class, AddrTaken: cv.AddrTaken})
			}
			if cv.Class == il.ClassStatic {
				in.report(diag.Diagnostic{
					Severity: diag.SevRemark, Code: diag.InlineStaticExport,
					Pos: call.Pos, Proc: p.Name, Pass: "inline",
					Args:    map[string]string{"callee": call.Callee, "var": cv.Name},
					Message: fmt.Sprintf("static %s of inlined %s kept as program-level storage (§7 static export)", cv.Name, call.Callee),
				})
			}
		default:
			varMap[i] = p.AddVar(il.Var{
				Name:      prefix + "_" + cv.Name,
				Type:      cv.Type,
				Class:     il.ClassLocal,
				AddrTaken: cv.AddrTaken,
			})
		}
	}

	endLabel := p.NewLabel(prefix + "end")

	// Bind arguments to parameter temporaries (the profusion of
	// temporaries §9 shows; copy propagation cleans them up). Everything
	// built here comes from the caller's arena: the callee is only read.
	a := p.Arena()
	var out []il.Stmt
	for i, arg := range call.Args {
		pid := varMap[callee.Params[i]]
		out = append(out, a.Assign(il.Assign{Dst: a.VarRef(pid, p.Vars[pid].Type), Src: arg}))
	}

	// Copy the body's statements and rename what they reference. The
	// callee's expressions are shared, not copied: rewriteInlined rebuilds
	// each one that names a callee variable, and the rest are immutable.
	body := a.CloneStmts(callee.Body)
	body = rewriteInlined(body, varMap, prefix, call.Dst, endLabel, p)
	out = append(out, body...)
	out = append(out, a.Label(il.Label{Name: endLabel}))

	// Report the expansion. When the cloned body carries its own source
	// position (unit-local callees, version-2 catalogs), the remark points
	// there and names the call site via InlinedFrom; otherwise it sits on
	// the call itself.
	ed := diag.Diagnostic{
		Severity: diag.SevRemark, Code: diag.InlineExpanded,
		Pos: call.Pos, Proc: p.Name, Pass: "inline",
		Args:    map[string]string{"callee": call.Callee},
		Message: fmt.Sprintf("call to %s expanded inline (§7)", call.Callee),
	}
	if bp := firstStmtPos(body); bp.Line != 0 && bp != call.Pos {
		site := call.Pos
		ed.Pos = bp
		ed.InlinedFrom = &site
	}
	in.report(ed)

	// Compiler-manufactured and position-less cloned statements inherit
	// the call site, so no later diagnostic prints a zero position.
	il.StampStmts(out, call.Pos)

	// Mark the callee in the stack while expanding nested calls inside
	// the clone (mutual recursion guard).
	stack[call.Callee] = true
	nested := 0
	out = in.expandList(p, out, stack, &nested)
	delete(stack, call.Callee)
	return out, true
}

// rewriteInlined renames variables and labels and turns returns into
// result assignment + goto end.
func rewriteInlined(body []il.Stmt, varMap []il.VarID, prefix string, dst il.VarID, endLabel string, p *il.Proc) []il.Stmt {
	a := p.Arena()
	rename := func(x il.Expr) il.Expr {
		switch n := x.(type) {
		case *il.VarRef:
			return a.VarRef(varMap[n.ID], n.T)
		case *il.AddrOf:
			return a.AddrOf(varMap[n.ID], n.T)
		}
		return x
	}
	return il.RewriteStmts(body, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		a.RewriteStmtExprs(s, rename)
		switch n := s.(type) {
		case *il.Assign:
			if v, ok := n.Dst.(*il.VarRef); ok {
				n.Dst = a.VarRef(varMap[v.ID], v.T)
			}
		case *il.Call:
			if n.Dst != il.NoVar {
				n.Dst = varMap[n.Dst]
			}
		case *il.DoLoop:
			n.IV = varMap[n.IV]
		case *il.DoParallel:
			n.IV = varMap[n.IV]
		case *il.Goto:
			return []il.Stmt{a.Goto(il.Goto{Target: prefix + n.Target})}, true
		case *il.Label:
			return []il.Stmt{a.Label(il.Label{Name: prefix + n.Name})}, true
		case *il.Return:
			// Values are pure in this IL: a result the caller discards
			// is dropped.
			var out []il.Stmt
			if n.Val != nil && dst != il.NoVar {
				out = append(out, a.Assign(il.Assign{Dst: a.VarRef(dst, p.Vars[dst].Type), Src: n.Val}))
			}
			return append(out, a.Goto(il.Goto{Target: endLabel})), true
		}
		return nil, false
	})
}

// firstStmtPos returns the first nonzero statement position in list.
func firstStmtPos(list []il.Stmt) (pos token.Pos) {
	il.WalkStmts(list, func(s il.Stmt) bool {
		if q := il.StmtPos(s); q.Line != 0 {
			pos = q
			return false
		}
		return true
	})
	return pos
}

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
// expand; a callee over maxStmts statements does not.
const maxStmts = 200

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
	// drops them. Each call site is examined once and gets at most one
	// decision.
	Diags *diag.Reporter

	seq int
}

// New returns an inliner over prog.
func New(prog *il.Program) *Inliner {
	return &Inliner{Prog: prog, Catalog: map[string]*il.Proc{}}
}

// refusal names why the expansion policy rejects expanding callee at
// call, or returns "" when it may expand.
func refusal(callee *il.Proc, call *il.Call) string {
	if callee.Variadic {
		return "variadic callee"
	}
	if n := il.CountStmts(callee.Body); n > maxStmts {
		return fmt.Sprintf("callee has %d statements (limit %d)", n, maxStmts)
	}
	if len(call.Args) != len(callee.Params) {
		return "argument count mismatch" // old-style mismatch; leave the call alone
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

// node is a procedure of the direct-call graph with its Tarjan numbers.
// §7's recursion guard never expands a recursive one into anyone.
type node struct {
	proc       *il.Proc
	index, low int
	open       bool // on Tarjan's stack: its component is not finished
	recursive  bool
}

// expansion is one ExpandProgram run: the graph's nodes by name (nil for a
// callee with no body anywhere), Tarjan's stack and the expansions made.
type expansion struct {
	in       *Inliner
	nodes    map[string]*node
	stack    []*node
	expanded int
}

// ExpandProgram expands calls bottom-up over the unit's direct-call graph
// and returns how many it expanded. The strongly connected components are
// finished callees first, from roots in declaration order and callees in
// call order, and a procedure expands only callees already finished. A
// unit whose callees precede their callers expands in declaration order.
func (in *Inliner) ExpandProgram() int {
	x := &expansion{in: in, nodes: map[string]*node{}}
	for _, p := range in.Prog.Procs {
		if _, ok := x.nodes[p.Name]; !ok && len(p.Body) > 0 {
			x.visit(p.Name)
		}
	}
	return x.expanded
}

// resolve finds a callee body: unit procedures shadow catalog entries.
// Catalogs are shared between compiles, so a catalog procedure is finished
// on a copy.
func (in *Inliner) resolve(name string) *il.Proc {
	if p := in.Prog.Proc(name); p != nil && len(p.Body) > 0 {
		return p
	}
	if p := in.Catalog[name]; p != nil {
		return p.Clone()
	}
	return nil
}

// visit is Tarjan's strongconnect from the procedure called name; it
// returns nil when no body is known.
func (x *expansion) visit(name string) *node {
	p := x.in.resolve(name)
	x.nodes[name] = nil
	if p == nil {
		return nil
	}
	v := &node{proc: p, index: len(x.nodes), low: len(x.nodes), open: true}
	x.nodes[name] = v
	x.stack = append(x.stack, v)
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		c, ok := s.(*il.Call)
		if !ok || c.FunPtr != nil || c.Callee == "" {
			return true
		}
		w, ok := x.nodes[c.Callee]
		switch {
		case !ok:
			if w = x.visit(c.Callee); w != nil {
				v.low = min(v.low, w.low)
			}
		case w != nil && w.open:
			v.low = min(v.low, w.index)
		}
		v.recursive = v.recursive || w == v
		return true
	})
	if v.low != v.index {
		return v
	}
	k := len(x.stack) - 1
	for x.stack[k] != v {
		k--
	}
	scc := x.stack[k:]
	x.stack = x.stack[:k]
	for _, w := range scc {
		w.open = false
		w.recursive = w.recursive || len(scc) > 1
	}
	for _, w := range scc {
		x.finish(w.proc)
	}
	return v
}

// finish expands p's calls. Every callee outside p's component is
// finished by now, and every one inside is recursive. A finished callee's
// surviving calls are not looked at again in p: their refusal depends on
// the callee alone.
func (x *expansion) finish(p *il.Proc) {
	p.Body = il.RewriteStmts(p.Body, nil, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		call, ok := s.(*il.Call)
		if !ok || call.FunPtr != nil || call.Callee == "" {
			return nil, false // indirect calls hide the callee
		}
		out, ok := x.in.expandCall(p, call, x.nodes[call.Callee])
		if ok {
			x.expanded++
		}
		return out, ok
	})
}

// expandCall replaces one call with the finished callee's renamed body.
func (in *Inliner) expandCall(p *il.Proc, call *il.Call, cn *node) ([]il.Stmt, bool) {
	if cn == nil {
		// Unknown callees (externs with no catalog body) are an absence,
		// not a decision; only known-but-refused callees get a remark.
		return nil, false
	}
	if cn.recursive {
		in.Diags.Report(diag.Diagnostic{
			Severity: diag.SevRemark, Code: diag.InlineRecursive,
			Pos: call.Pos, Proc: p.Name, Pass: "inline",
			Args:    map[string]string{"callee": call.Callee},
			Message: fmt.Sprintf("call to %s not inlined: recursion detected (§7)", call.Callee),
		})
		return nil, false
	}
	callee := cn.proc
	if reason := refusal(callee, call); reason != "" {
		in.Diags.Report(diag.Diagnostic{
			Severity: diag.SevRemark, Code: diag.InlineRefused,
			Pos: call.Pos, Proc: p.Name, Pass: "inline",
			Args:    map[string]string{"callee": call.Callee, "reason": reason},
			Message: fmt.Sprintf("call to %s not inlined: %s", call.Callee, reason),
		})
		return nil, false
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
				in.Diags.Report(diag.Diagnostic{
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
	in.Diags.Report(ed)

	// Compiler-manufactured and position-less cloned statements inherit
	// the call site, so no later diagnostic prints a zero position.
	il.StampStmts(out, call.Pos)
	return out, true
}

// rewriteInlined renames variables and labels and turns returns into
// result assignment + goto end. Callee bodies are front-end IL (inlining
// is the pipeline's first pass, and catalogs hold nothing else), so the
// only variables a statement names outside its expressions are an
// assignment's and a call's destinations.
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
		case *il.Goto:
			return []il.Stmt{a.Goto(il.Goto{Target: prefix + n.Target})}, true
		case *il.Label:
			return []il.Stmt{a.Label(il.Label{Name: prefix + n.Name})}, true
		case *il.Return:
			// Values are pure in this IL: a result the caller discards
			// is dropped. Both statements are the return's, so they keep
			// its position inside the callee.
			var out []il.Stmt
			if n.Val != nil && dst != il.NoVar {
				out = append(out, a.Assign(il.Assign{Dst: a.VarRef(dst, p.Vars[dst].Type), Src: n.Val, Pos: n.Pos}))
			}
			return append(out, a.Goto(il.Goto{Target: endLabel, Pos: n.Pos})), true
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

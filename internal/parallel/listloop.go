package parallel

// This file implements the extension §10 sketches as future work:
// "we plan to enhance the parallelization to include list and graph
// structures ... Such a loop cannot be vectorized with any benefit, but it
// can be spread across multiple processors by pulling the code for moving
// to the next element into the serialized portion of the parallel loop.
// ... it does require an assumption that each motion down a pointer goes
// to independent storage."
//
// A while loop of the shape
//
//	while (p) { ...uses of p...; p = *(p + off); }
//
// is rewritten (under the independent-storage assumption, which the driver
// exposes as an explicit option) into
//
//	n = 0;
//	while (p && n < CAP) { buf[n] = p; n = n + 1; p = *(p + off); }
//	do parallel i = 0, n-1, 1 { q = buf[i]; ...body with q... }
//	while (p) { original loop }        // tail beyond the buffer
//
// The pointer chase runs serially; the per-node work spreads across
// processors.

import (
	"fmt"

	"repro/internal/ctype"
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/il"
)

// listBufCap is the compiler-allocated pointer buffer length.
const listBufCap = 8192

// ListStats reports list-loop conversions.
type ListStats struct {
	LoopsConverted int `json:"loops_converted"`
}

// Add folds another procedure's stats into s.
func (s *ListStats) Add(o ListStats) { s.LoopsConverted += o.LoopsConverted }

// ParallelizeListLoops rewrites eligible linked-list while loops in p.
// The prog is needed to allocate the shared pointer buffer. The caller
// asserts the §10 independence assumption by calling at all. Each
// converted chase loop gets a list-parallelized remark on r.
func ParallelizeListLoops(prog *il.Program, p *il.Proc, r *diag.Reporter) ListStats {
	var st ListStats
	p.Body = il.RewriteStmts(p.Body, serialOnly, func(s il.Stmt, _ []il.Stmt) ([]il.Stmt, bool) {
		n, ok := s.(*il.While)
		if !ok {
			return nil, false
		}
		repl, ok := convertListLoop(prog, p, n)
		if !ok {
			return nil, false
		}
		st.LoopsConverted++
		il.StampStmts(repl, n.Pos)
		r.Report(diag.Diagnostic{Severity: diag.SevRemark, Code: diag.ListParallelized,
			Pos: n.Pos, Proc: p.Name, Pass: "list-parallelize",
			Message: "linked-list chase loop parallelized under the independent-storage assumption (§10)"})
		p.BumpGeneration()
		return repl, true
	})
	return st
}

// chaseShape matches the loop against while(ptr){...; ptr = *(ptr+off)}.
func chaseShape(p *il.Proc, w *il.While) (ptr il.VarID, chase *il.Assign, ok bool) {
	cond, isVar := w.Cond.(*il.VarRef)
	if !isVar {
		return il.NoVar, nil, false
	}
	v := &p.Vars[cond.ID]
	if v.Type == nil || v.Type.Kind != ctype.Pointer || v.Escapes() || v.IsVolatile() {
		return il.NoVar, nil, false
	}
	if len(w.Body) < 2 {
		return il.NoVar, nil, false
	}
	last, isAssign := w.Body[len(w.Body)-1].(*il.Assign)
	if !isAssign {
		return il.NoVar, nil, false
	}
	dst, isVarDst := last.Dst.(*il.VarRef)
	if !isVarDst || dst.ID != cond.ID {
		return il.NoVar, nil, false
	}
	// The chase: load through ptr (+ constant offset).
	ld, isLoad := last.Src.(*il.Load)
	if !isLoad || ld.Volatile {
		return il.NoVar, nil, false
	}
	base := ld.Addr
	if b, isBin := base.(*il.Bin); isBin && b.Op == il.OpAdd {
		if _, isConst := il.IsIntConst(b.R); isConst {
			base = b.L
		}
	}
	if bv, isVar := base.(*il.VarRef); !isVar || bv.ID != cond.ID {
		return il.NoVar, nil, false
	}
	return cond.ID, last, true
}

// convertListLoop performs the rewrite, or reports false.
func convertListLoop(prog *il.Program, p *il.Proc, w *il.While) ([]il.Stmt, bool) {
	ptr, chase, ok := chaseShape(p, w)
	if !ok {
		return nil, false
	}
	body := w.Body[:len(w.Body)-1] // per-node work, chase removed

	// Eligibility of the per-node work: straight-line assignments whose
	// stores root at the node pointer, no calls, no other defs of ptr, no
	// volatile, no defs of externally visible scalars.
	if depend.UnsafeScalar(p, body) != "" {
		return nil, false
	}
	for _, s := range body {
		as, isAssign := s.(*il.Assign)
		if !isAssign || il.DefinedVar(s) == ptr {
			return nil, false
		}
		if ld, isStore := as.Dst.(*il.Load); isStore {
			// The store must be node-relative: its address uses ptr.
			if !il.UsesVar(ld.Addr, ptr) {
				return nil, false
			}
		}
	}

	// Allocate (or reuse) the shared pointer buffer and per-proc vars.
	bufName := ".listbuf"
	prog.AddGlobal(il.GlobalVar{Name: bufName,
		Type: ctype.ArrayOf(ctype.PointerTo(ctype.VoidType), listBufCap)})
	bufID := p.LookupVar(bufName)
	if bufID == il.NoVar {
		bufID = p.AddVar(il.Var{Name: bufName,
			Type: ctype.ArrayOf(ctype.PointerTo(ctype.VoidType), listBufCap), Class: il.ClassGlobal})
	}
	ptrT := p.Vars[ptr].Type
	count := p.AddVar(il.Var{Name: fmt.Sprintf("lcnt%d", len(p.Vars)), Type: ctype.IntType, Class: il.ClassTemp})
	iv := p.AddVar(il.Var{Name: fmt.Sprintf("li%d", len(p.Vars)), Type: ctype.IntType, Class: il.ClassTemp})
	node := p.AddVar(il.Var{Name: fmt.Sprintf("lnode%d", len(p.Vars)), Type: ptrT, Class: il.ClassTemp})

	a := p.Arena()
	intT := ctype.IntType
	bufAddr := func(idx il.Expr) il.Expr {
		return a.Add(a.AddrOf(bufID, ctype.PointerTo(ctype.PointerTo(ctype.VoidType))),
			a.Mul(a.Int(4), idx, intT), ctype.PointerTo(ptrT))
	}

	// Serial collection: n = 0; while (p && n < CAP) { buf[n] = p; n++;
	// chase }. The && is expressed with the IL's pure operators.
	exitLbl := p.NewLabel("lful")
	collect := a.While(il.While{
		Cond: a.VarRef(ptr, ptrT),
		Body: []il.Stmt{
			a.If(il.If{
				Cond: a.NewBin(il.OpGe, a.VarRef(count, intT), a.Int(listBufCap), intT),
				Then: []il.Stmt{a.Goto(il.Goto{Target: exitLbl})},
			}),
			a.Assign(il.Assign{
				Dst: a.Load(bufAddr(a.VarRef(count, intT)), ptrT, false),
				Src: a.VarRef(ptr, ptrT),
			}),
			a.Assign(il.Assign{Dst: a.VarRef(count, intT), Src: a.Add(a.VarRef(count, intT), a.Int(1), intT)}),
			a.CloneStmt(chase),
		},
	})

	// Parallel per-node work: body with ptr replaced by the node temp.
	parBody := []il.Stmt{
		a.Assign(il.Assign{Dst: a.VarRef(node, ptrT), Src: a.Load(bufAddr(a.VarRef(iv, intT)), ptrT, false)}),
	}
	for _, s := range body {
		cl := a.CloneStmt(s)
		a.RewriteTreeExprs(cl, func(e il.Expr) il.Expr {
			if v, isVar := e.(*il.VarRef); isVar && v.ID == ptr {
				return a.VarRef(node, ptrT)
			}
			return e
		})
		parBody = append(parBody, cl)
	}
	par := a.DoParallel(il.DoParallel{IV: iv, Init: a.Int(0),
		Limit: a.Sub(a.VarRef(count, intT), a.Int(1), intT), Step: a.Int(1), Body: parBody})

	// Tail: whatever remains past the buffer runs with the original loop.
	tail := a.While(il.While{Cond: a.VarRef(ptr, ptrT), Body: a.CloneStmts(w.Body)})

	out := []il.Stmt{
		a.Assign(il.Assign{Dst: a.VarRef(count, intT), Src: a.Int(0)}),
		collect,
		a.Label(il.Label{Name: exitLbl}),
		par,
		tail,
	}
	return out, true
}

package il

// This file provides the traversal, rewriting, and cloning utilities the
// optimizer phases are built on.

// WalkExpr calls f on e and every subexpression, pre-order. If f returns
// false the subtree below the node is skipped.
func WalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch n := e.(type) {
	case *Load:
		WalkExpr(n.Addr, f)
	case *Bin:
		WalkExpr(n.L, f)
		WalkExpr(n.R, f)
	case *Un:
		WalkExpr(n.X, f)
	case *Cast:
		WalkExpr(n.X, f)
	case *VecRef:
		WalkExpr(n.Base, f)
		WalkExpr(n.Stride, f)
	}
}

// WalkStmts calls f on every statement in the list and, recursively, in
// nested bodies. If f returns false the statement's nested bodies are
// skipped.
func WalkStmts(stmts []Stmt, f func(Stmt) bool) {
	for _, s := range stmts {
		if !f(s) {
			continue
		}
		switch n := s.(type) {
		case *If:
			WalkStmts(n.Then, f)
			WalkStmts(n.Else, f)
		case *While:
			WalkStmts(n.Body, f)
		case *DoLoop:
			WalkStmts(n.Body, f)
		case *DoParallel:
			WalkStmts(n.Body, f)
		}
	}
}

// StmtExprs calls f on each top-level expression operand of s (not
// recursing into subexpressions; use WalkExpr for that).
func StmtExprs(s Stmt, f func(Expr)) {
	switch n := s.(type) {
	case *Assign:
		f(n.Dst)
		f(n.Src)
	case *PredAssign:
		f(n.Cond)
		f(n.Dst)
		f(n.Src)
	case *Call:
		if n.FunPtr != nil {
			f(n.FunPtr)
		}
		for _, a := range n.Args {
			f(a)
		}
	case *If:
		f(n.Cond)
	case *While:
		f(n.Cond)
	case *DoLoop:
		f(n.Init)
		f(n.Limit)
		f(n.Step)
	case *DoParallel:
		f(n.Init)
		f(n.Limit)
		f(n.Step)
	case *VectorAssign:
		f(n.DstBase)
		f(n.DstStride)
		f(n.Len)
		f(n.RHS)
		if n.Mask != nil {
			f(n.Mask)
		}
	case *Return:
		if n.Val != nil {
			f(n.Val)
		}
	}
}

// RewriteExpr rebuilds e bottom-up, replacing each node with f(node).
// f receives a node whose children have already been rewritten. The
// rewrite is copy-on-write: a node whose children came back unchanged is
// passed to f as-is (not copied), and when f is the identity over a
// whole subtree the subtree is returned untouched. Rewriters therefore
// must not mutate the node they receive — they return a replacement (or
// the argument) instead. The input tree is never mutated.
func RewriteExpr(e Expr, f func(Expr) Expr) Expr {
	return RewriteExprIn(nil, e, f)
}

// RewriteExprIn is RewriteExpr with the copied spine nodes allocated
// from arena a (nil allocates from the heap). Passes rewriting a
// procedure pass p.Arena().
func RewriteExprIn(a *Arena, e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Load:
		addr := RewriteExprIn(a, n.Addr, f)
		if addr != n.Addr {
			return f(a.Load(addr, n.T, n.Volatile))
		}
		return f(n)
	case *Bin:
		l := RewriteExprIn(a, n.L, f)
		r := RewriteExprIn(a, n.R, f)
		if l != n.L || r != n.R {
			return f(a.Bin(n.Op, l, r, n.T))
		}
		return f(n)
	case *Un:
		x := RewriteExprIn(a, n.X, f)
		if x != n.X {
			return f(a.Un(n.Op, x, n.T))
		}
		return f(n)
	case *Cast:
		x := RewriteExprIn(a, n.X, f)
		if x != n.X {
			return f(a.Cast(x, n.T))
		}
		return f(n)
	case *VecRef:
		base := RewriteExprIn(a, n.Base, f)
		stride := RewriteExprIn(a, n.Stride, f)
		if base != n.Base || stride != n.Stride {
			return f(a.VecRef(base, stride, n.T))
		}
		return f(n)
	default:
		return f(e)
	}
}

// RewriteStmtExprs applies RewriteExpr with f to every expression operand
// of s, in place.
func RewriteStmtExprs(s Stmt, f func(Expr) Expr) {
	RewriteStmtExprsIn(nil, s, f)
}

// RewriteStmtExprsIn is RewriteStmtExprs allocating from arena a.
func RewriteStmtExprsIn(a *Arena, s Stmt, f func(Expr) Expr) {
	switch n := s.(type) {
	case *Assign:
		// The destination of a store is an expression too, but a VarRef
		// destination is a definition, not a use; rewriters that must
		// distinguish handle Assign themselves before calling this.
		n.Dst = RewriteExprIn(a, n.Dst, f)
		n.Src = RewriteExprIn(a, n.Src, f)
	case *PredAssign:
		n.Cond = RewriteExprIn(a, n.Cond, f)
		n.Dst = RewriteExprIn(a, n.Dst, f)
		n.Src = RewriteExprIn(a, n.Src, f)
	case *Call:
		if n.FunPtr != nil {
			n.FunPtr = RewriteExprIn(a, n.FunPtr, f)
		}
		for i := range n.Args {
			n.Args[i] = RewriteExprIn(a, n.Args[i], f)
		}
	case *If:
		n.Cond = RewriteExprIn(a, n.Cond, f)
	case *While:
		n.Cond = RewriteExprIn(a, n.Cond, f)
	case *DoLoop:
		n.Init = RewriteExprIn(a, n.Init, f)
		n.Limit = RewriteExprIn(a, n.Limit, f)
		n.Step = RewriteExprIn(a, n.Step, f)
	case *DoParallel:
		n.Init = RewriteExprIn(a, n.Init, f)
		n.Limit = RewriteExprIn(a, n.Limit, f)
		n.Step = RewriteExprIn(a, n.Step, f)
	case *VectorAssign:
		n.DstBase = RewriteExprIn(a, n.DstBase, f)
		n.DstStride = RewriteExprIn(a, n.DstStride, f)
		n.Len = RewriteExprIn(a, n.Len, f)
		n.RHS = RewriteExprIn(a, n.RHS, f)
		if n.Mask != nil {
			n.Mask = RewriteExprIn(a, n.Mask, f)
		}
	case *Return:
		if n.Val != nil {
			n.Val = RewriteExprIn(a, n.Val, f)
		}
	}
}

// RewriteTreeExprs applies f (via RewriteExpr) to every expression operand
// of s and of all statements nested inside it. Scalar assignment
// destinations are definitions, not uses, and are left alone; store
// destinations have their address rewritten.
func RewriteTreeExprs(s Stmt, f func(Expr) Expr) {
	RewriteTreeExprsIn(nil, s, f)
}

// RewriteTreeExprsIn is RewriteTreeExprs allocating from arena a.
func RewriteTreeExprsIn(a *Arena, s Stmt, f func(Expr) Expr) {
	WalkStmts([]Stmt{s}, func(sub Stmt) bool {
		if as, ok := sub.(*Assign); ok {
			if ld, isStore := as.Dst.(*Load); isStore {
				if addr := RewriteExprIn(a, ld.Addr, f); addr != ld.Addr {
					as.Dst = a.Load(addr, ld.T, ld.Volatile)
				}
			}
			as.Src = RewriteExprIn(a, as.Src, f)
			return true
		}
		RewriteStmtExprsIn(a, sub, f)
		return true
	})
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr { return CloneExprIn(nil, e) }

// CloneExprIn deep-copies an expression into arena a (nil copies to the
// heap).
func CloneExprIn(a *Arena, e Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *ConstInt:
		return a.ConstInt(n.Val, n.T)
	case *ConstFloat:
		return a.ConstFloat(n.Val, n.T)
	case *VarRef:
		return a.VarRef(n.ID, n.T)
	case *AddrOf:
		return a.AddrOf(n.ID, n.T)
	case *Load:
		return a.Load(CloneExprIn(a, n.Addr), n.T, n.Volatile)
	case *Bin:
		return a.Bin(n.Op, CloneExprIn(a, n.L), CloneExprIn(a, n.R), n.T)
	case *Un:
		return a.Un(n.Op, CloneExprIn(a, n.X), n.T)
	case *Cast:
		return a.Cast(CloneExprIn(a, n.X), n.T)
	case *VecRef:
		return a.VecRef(CloneExprIn(a, n.Base), CloneExprIn(a, n.Stride), n.T)
	}
	panic("il: CloneExpr of unknown node")
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt { return CloneStmtIn(nil, s) }

// CloneStmtIn deep-copies a statement into arena a.
func CloneStmtIn(a *Arena, s Stmt) Stmt {
	switch n := s.(type) {
	case *Assign:
		return a.Assign(Assign{Dst: CloneExprIn(a, n.Dst), Src: CloneExprIn(a, n.Src), Pos: n.Pos})
	case *PredAssign:
		return a.PredAssign(PredAssign{Cond: CloneExprIn(a, n.Cond), Dst: CloneExprIn(a, n.Dst),
			Src: CloneExprIn(a, n.Src), Pos: n.Pos})
	case *Call:
		m := a.Call(Call{Dst: n.Dst, Callee: n.Callee, T: n.T, FunPtr: CloneExprIn(a, n.FunPtr), Pos: n.Pos})
		for _, arg := range n.Args {
			m.Args = append(m.Args, CloneExprIn(a, arg))
		}
		return m
	case *If:
		return a.If(If{Cond: CloneExprIn(a, n.Cond), Then: CloneStmtsIn(a, n.Then), Else: CloneStmtsIn(a, n.Else), Pos: n.Pos})
	case *While:
		return a.While(While{Cond: CloneExprIn(a, n.Cond), Body: CloneStmtsIn(a, n.Body), Safe: n.Safe, Pos: n.Pos})
	case *DoLoop:
		return a.DoLoop(DoLoop{IV: n.IV, Init: CloneExprIn(a, n.Init), Limit: CloneExprIn(a, n.Limit),
			Step: CloneExprIn(a, n.Step), Body: CloneStmtsIn(a, n.Body), Safe: n.Safe, Pos: n.Pos})
	case *DoParallel:
		m := a.DoParallel(DoParallel{IV: n.IV, Init: CloneExprIn(a, n.Init), Limit: CloneExprIn(a, n.Limit),
			Step: CloneExprIn(a, n.Step), Body: CloneStmtsIn(a, n.Body), Width: n.Width, Pos: n.Pos})
		if n.Sync != nil {
			info := *n.Sync
			m.Sync = &info
		}
		return m
	case *SyncPost:
		return &SyncPost{Pos: n.Pos}
	case *SyncWait:
		return &SyncWait{Distance: n.Distance, Pos: n.Pos}
	case *VectorAssign:
		return a.VectorAssign(VectorAssign{DstBase: CloneExprIn(a, n.DstBase), DstStride: CloneExprIn(a, n.DstStride),
			Len: CloneExprIn(a, n.Len), Elem: n.Elem, RHS: CloneExprIn(a, n.RHS),
			Mask: CloneExprIn(a, n.Mask), Pos: n.Pos})
	case *Goto:
		return a.Goto(*n)
	case *Label:
		return a.Label(*n)
	case *Return:
		return a.Return(Return{Val: CloneExprIn(a, n.Val), Pos: n.Pos})
	}
	panic("il: CloneStmt of unknown node")
}

// CloneStmts deep-copies a statement list.
func CloneStmts(list []Stmt) []Stmt { return CloneStmtsIn(nil, list) }

// CloneStmtsIn deep-copies a statement list into arena a.
func CloneStmtsIn(a *Arena, list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = CloneStmtIn(a, s)
	}
	return out
}

// ExprEqual reports structural equality of two expressions (types compared
// by kind, not identity).
func ExprEqual(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch x := a.(type) {
	case *ConstInt:
		y, ok := b.(*ConstInt)
		return ok && x.Val == y.Val
	case *ConstFloat:
		y, ok := b.(*ConstFloat)
		return ok && x.Val == y.Val
	case *VarRef:
		y, ok := b.(*VarRef)
		return ok && x.ID == y.ID
	case *AddrOf:
		y, ok := b.(*AddrOf)
		return ok && x.ID == y.ID
	case *Load:
		y, ok := b.(*Load)
		return ok && x.Volatile == y.Volatile && ExprEqual(x.Addr, y.Addr)
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && ExprEqual(x.L, y.L) && ExprEqual(x.R, y.R)
	case *Un:
		y, ok := b.(*Un)
		return ok && x.Op == y.Op && ExprEqual(x.X, y.X)
	case *Cast:
		y, ok := b.(*Cast)
		return ok && x.T.Kind == y.T.Kind && ExprEqual(x.X, y.X)
	case *VecRef:
		y, ok := b.(*VecRef)
		return ok && ExprEqual(x.Base, y.Base) && ExprEqual(x.Stride, y.Stride)
	}
	return false
}

// UsesVar reports whether e reads variable id (VarRef or AddrOf).
func UsesVar(e Expr, id VarID) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *VarRef:
			if n.ID == id {
				found = true
			}
		case *AddrOf:
			if n.ID == id {
				found = true
			}
		}
		return !found
	})
	return found
}

// HasVolatile reports whether e contains a volatile load or a reference to
// a volatile variable.
func (p *Proc) HasVolatile(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *Load:
			if n.Volatile {
				found = true
			}
		case *VarRef:
			if p.Vars[n.ID].IsVolatile() {
				found = true
			}
		}
		return !found
	})
	return found
}

// HasLoad reports whether e contains any memory load.
func HasLoad(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*Load); ok {
			found = true
		}
		return !found
	})
	return found
}

// DefinedVar returns the variable a statement defines directly (a scalar
// assignment destination or a call result), or NoVar.
func DefinedVar(s Stmt) VarID {
	switch n := s.(type) {
	case *Assign:
		if v, ok := n.Dst.(*VarRef); ok {
			return v.ID
		}
	case *Call:
		return n.Dst
	}
	return NoVar
}

// IsStore reports whether s writes through memory (store or vector store).
func IsStore(s Stmt) bool {
	switch n := s.(type) {
	case *Assign:
		_, isLoad := n.Dst.(*Load)
		return isLoad
	case *PredAssign:
		return true
	case *VectorAssign:
		return true
	}
	return false
}

// Clone deep-copies the procedure: its statements and expressions into a
// fresh arena, its variable table and parameter list into fresh slices,
// with the label counter and the generation carried over, so every pass
// behaves on the copy exactly as it would have on the original and
// neither can observe the other being rewritten. Types are shared; they
// are immutable.
func (p *Proc) Clone() *Proc {
	a := NewArena()
	return &Proc{
		Name:     p.Name,
		Ret:      p.Ret,
		Params:   append([]VarID(nil), p.Params...),
		Vars:     append([]Var(nil), p.Vars...),
		Body:     CloneStmtsIn(a, p.Body),
		Variadic: p.Variadic,
		labelSeq: p.labelSeq,
		arena:    a,
		gen:      p.gen,
	}
}

// Clone deep-copies the program (see Proc.Clone). The global table is
// copied so a pass appending globals to the clone leaves the original
// alone; initial-data bytes are shared, nothing writes them. The caller
// owns the clone's arenas and Releases them.
func (pr *Program) Clone() *Program {
	out := &Program{
		Globals: append([]GlobalVar(nil), pr.Globals...),
		Procs:   make([]*Proc, len(pr.Procs)),
	}
	for i, p := range pr.Procs {
		out.Procs[i] = p.Clone()
	}
	return out
}

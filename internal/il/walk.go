package il

// This file provides the traversal, rewriting, and copying utilities the
// optimizer phases are built on. WalkStmts (read) and RewriteStmts
// (rewrite) are the two statement-tree walks the phases are callbacks on.

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

// RewriteStmts rebuilds a statement tree bottom-up and returns the new
// list. For each statement in order: its nested lists are rewritten first,
// unless a non-nil enter returns false for it (enter runs before the
// descent, so it is also where a pass acts on a loop before its body is
// visited); then leave decides its fate. leave returns replaced == false
// to keep s, or true with the statements that take its place (none
// deletes it). prev holds the already-rewritten statements before s in
// the same list; leave must neither keep nor append to it.
//
// The result reuses the storage of list until it would outgrow what has
// been read: a walk that keeps every statement allocates nothing, and
// pure deletions filter in place. Callers therefore assign the result
// back where list came from and do not use list again.
func RewriteStmts(list []Stmt, enter func(Stmt) bool, leave func(s Stmt, prev []Stmt) (repl []Stmt, replaced bool)) []Stmt {
	out := list[:0]
	inPlace := true
	for i, s := range list {
		if enter == nil || enter(s) {
			switch n := s.(type) {
			case *If:
				n.Then = RewriteStmts(n.Then, enter, leave)
				n.Else = RewriteStmts(n.Else, enter, leave)
			case *While:
				n.Body = RewriteStmts(n.Body, enter, leave)
			case *DoLoop:
				n.Body = RewriteStmts(n.Body, enter, leave)
			case *DoParallel:
				n.Body = RewriteStmts(n.Body, enter, leave)
			}
		}
		repl, replaced := leave(s, out[:len(out):len(out)])
		if !replaced {
			out = append(out, s)
			continue
		}
		if inPlace && len(out)+len(repl) > i+1 {
			out = append(make([]Stmt, 0, len(list)+len(repl)-1), out...)
			inPlace = false
		}
		out = append(out, repl...)
	}
	return out
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
// whole subtree the subtree is returned untouched, so the result shares
// every subtree f left alone with e. Expressions are immutable values:
// f never writes to the node it receives, it returns that node or
// another expression — a new one, or any existing one, which is then
// shared. The copied spine nodes come from arena a; passes rewriting a
// procedure use p.Arena().
func (a *Arena) RewriteExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Load:
		addr := a.RewriteExpr(n.Addr, f)
		if addr != n.Addr {
			return f(a.Load(addr, n.T, n.Volatile))
		}
		return f(n)
	case *Bin:
		l := a.RewriteExpr(n.L, f)
		r := a.RewriteExpr(n.R, f)
		if l != n.L || r != n.R {
			return f(a.Bin(n.Op, l, r, n.T))
		}
		return f(n)
	case *Un:
		x := a.RewriteExpr(n.X, f)
		if x != n.X {
			return f(a.Un(n.Op, x, n.T))
		}
		return f(n)
	case *Cast:
		x := a.RewriteExpr(n.X, f)
		if x != n.X {
			return f(a.Cast(x, n.T))
		}
		return f(n)
	case *VecRef:
		base := a.RewriteExpr(n.Base, f)
		stride := a.RewriteExpr(n.Stride, f)
		if base != n.Base || stride != n.Stride {
			return f(a.VecRef(base, stride, n.T))
		}
		return f(n)
	default:
		return f(e)
	}
}

// RewriteStmtExprs applies RewriteExpr with f to every expression s
// reads and stores the results in s. A scalar assignment's destination is
// a definition, not a use, and is left alone; a store's destination is
// rebuilt around its rewritten address.
func (a *Arena) RewriteStmtExprs(s Stmt, f func(Expr) Expr) {
	switch n := s.(type) {
	case *Assign:
		if ld, isStore := n.Dst.(*Load); isStore {
			if addr := a.RewriteExpr(ld.Addr, f); addr != ld.Addr {
				n.Dst = a.Load(addr, ld.T, ld.Volatile)
			}
		}
		n.Src = a.RewriteExpr(n.Src, f)
	case *PredAssign:
		n.Cond = a.RewriteExpr(n.Cond, f)
		n.Dst = a.RewriteExpr(n.Dst, f)
		n.Src = a.RewriteExpr(n.Src, f)
	case *Call:
		if n.FunPtr != nil {
			n.FunPtr = a.RewriteExpr(n.FunPtr, f)
		}
		for i := range n.Args {
			n.Args[i] = a.RewriteExpr(n.Args[i], f)
		}
	case *If:
		n.Cond = a.RewriteExpr(n.Cond, f)
	case *While:
		n.Cond = a.RewriteExpr(n.Cond, f)
	case *DoLoop:
		n.Init = a.RewriteExpr(n.Init, f)
		n.Limit = a.RewriteExpr(n.Limit, f)
		n.Step = a.RewriteExpr(n.Step, f)
	case *DoParallel:
		n.Init = a.RewriteExpr(n.Init, f)
		n.Limit = a.RewriteExpr(n.Limit, f)
		n.Step = a.RewriteExpr(n.Step, f)
	case *VectorAssign:
		n.DstBase = a.RewriteExpr(n.DstBase, f)
		n.DstStride = a.RewriteExpr(n.DstStride, f)
		n.Len = a.RewriteExpr(n.Len, f)
		n.RHS = a.RewriteExpr(n.RHS, f)
		if n.Mask != nil {
			n.Mask = a.RewriteExpr(n.Mask, f)
		}
	case *Return:
		if n.Val != nil {
			n.Val = a.RewriteExpr(n.Val, f)
		}
	}
}

// RewriteTreeExprs applies RewriteStmtExprs with f to s and to every
// statement nested inside it.
func (a *Arena) RewriteTreeExprs(s Stmt, f func(Expr) Expr) {
	WalkStmts([]Stmt{s}, func(sub Stmt) bool {
		a.RewriteStmtExprs(sub, f)
		return true
	})
}

// CloneStmt copies a statement tree into arena a. Every statement node is
// new, nested lists included, so a pass may rewrite the copy's statements
// without touching s; the expression operands are s's own, since
// expressions are immutable values any statement may reference.
func (a *Arena) CloneStmt(s Stmt) Stmt {
	switch n := s.(type) {
	case *Assign:
		return a.Assign(*n)
	case *PredAssign:
		return a.PredAssign(*n)
	case *Call:
		m := *n
		m.Args = append([]Expr(nil), n.Args...)
		return a.Call(m)
	case *If:
		m := *n
		m.Then, m.Else = a.CloneStmts(n.Then), a.CloneStmts(n.Else)
		return a.If(m)
	case *While:
		m := *n
		m.Body = a.CloneStmts(n.Body)
		return a.While(m)
	case *DoLoop:
		m := *n
		m.Body = a.CloneStmts(n.Body)
		return a.DoLoop(m)
	case *DoParallel:
		m := *n
		m.Body = a.CloneStmts(n.Body)
		if n.Sync != nil {
			m.Sync = a.SyncInfo(*n.Sync)
		}
		return a.DoParallel(m)
	case *SyncPost:
		return a.SyncPost(*n)
	case *SyncWait:
		return a.SyncWait(*n)
	case *VectorAssign:
		return a.VectorAssign(*n)
	case *Goto:
		return a.Goto(*n)
	case *Label:
		return a.Label(*n)
	case *Return:
		return a.Return(*n)
	}
	panic("il: CloneStmt of unknown node")
}

// CloneStmts copies a statement list into arena a (see CloneStmt).
func (a *Arena) CloneStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = a.CloneStmt(s)
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

// LoadFree reports whether e reads no memory: its value depends on
// variables and constants only, so no store can change it.
func LoadFree(e Expr) bool {
	free := true
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*Load); ok {
			free = false
		}
		return free
	})
	return free
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

// Clone copies the procedure: its statements into a fresh arena, its
// variable table and parameter list into fresh slices, with the label
// counter and both mutation counters carried over, so every pass behaves
// on the copy exactly as it would have on the original and neither can
// observe the other being rewritten. Expressions and types are shared;
// they are immutable.
func (p *Proc) Clone() *Proc {
	a := NewArena()
	return &Proc{
		Name:     p.Name,
		Ret:      p.Ret,
		Params:   append([]VarID(nil), p.Params...),
		Vars:     append([]Var(nil), p.Vars...),
		Body:     a.CloneStmts(p.Body),
		Variadic: p.Variadic,
		labelSeq: p.labelSeq,
		arena:    a,
		gen:      p.gen,
		shape:    p.shape,
	}
}

// Clone copies the program (see Proc.Clone). The global table is
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

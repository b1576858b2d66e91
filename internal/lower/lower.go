// Package lower translates the type-checked AST into the high-level IL.
//
// Following §4 of the paper, every C expression is compiled into a pair
// (SL, E): a list of IL statements that performs the expression's side
// effects, and a pure IL expression for its value. All the side-effecting
// C operators are recast this way:
//
//   - assignment:  (SL1,E1) = (SL2,E2)  ⇒  SL1; SL2; t = E2; E1 = t
//     with result t — the temporary makes chains like a = v = b write the
//     volatile v exactly once and never read it;
//   - ++/--:       a++  ⇒  t = a; a = t + size   with result t;
//   - && and ||:   short-circuit via an If statement assigning a temp;
//   - ?::          an If statement assigning a temp;
//   - calls:       a Call statement assigning a temp.
//
// Conditional contexts duplicate the condition's statement list into the
// loop bottom (§4), and for loops are represented as while loops without
// any sophisticated analysis (§5.2) — the optimizer converts them back.
package lower

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/workpool"
)

// Error is a lowering error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos token.Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// File lowers a checked file to an IL program.
func File(f *ast.File, info *sema.Info) (*il.Program, error) {
	return FileWorkers(f, info, 1)
}

// FileWorkers is File with up to `workers` function bodies lowering
// concurrently on the pass worker pool (1 lowers serially). Lowering one
// function is a pure function of (decl, info): the only program-level
// writes — function statics and string-literal globals — are buffered on
// the per-function lowerer and flushed in declaration order, with string
// globals renumbered to the serial .strN sequence at flush. The resulting
// program is bit-identical to serial lowering.
func FileWorkers(f *ast.File, info *sema.Info, workers int) (*il.Program, error) {
	prog := &il.Program{}
	for _, g := range f.Globals {
		gv := il.GlobalVar{Name: g.Name, Type: g.Type}
		if g.Init != nil {
			iv, fv, ok := constValue(g.Init)
			if !ok {
				return nil, errf(g.Pos(), "global %s: initializer must be a constant", g.Name)
			}
			gv.InitInt = iv
			gv.InitFloat = fv
			gv.HasInit = true
		}
		if g.InitList != nil {
			data, err := buildInitData(g)
			if err != nil {
				return nil, err
			}
			gv.Data = data
		}
		prog.AddGlobal(gv)
	}
	var defs []*ast.FuncDecl
	for _, fn := range f.Funcs {
		if fn.Body != nil {
			defs = append(defs, fn)
		}
	}
	procs := make([]*il.Proc, len(defs))
	lws := make([]*lowerer, len(defs))
	errs := make([]error, len(defs))
	workpool.ForEachN(len(defs), workers, func(i int) {
		procs[i], lws[i], errs[i] = lowerFunc(defs[i], info)
	})
	// Deterministic merge in declaration order: the first error is the
	// serial one (lowering errors are per-function), and each function's
	// buffered globals land exactly where serial lowering appended them.
	strCount := 0
	for i := range defs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		lw := lws[i]
		for _, r := range lw.strRefs {
			strCount++
			name := fmt.Sprintf(".str%d", strCount)
			lw.pending[r.global].Name = name
			procs[i].Vars[r.v].Name = name
		}
		for _, gv := range lw.pending {
			prog.AddGlobal(gv)
		}
		prog.Procs = append(prog.Procs, procs[i])
	}
	return prog, nil
}

type lowerer struct {
	proc *il.Proc
	info *sema.Info
	vars map[*sema.Symbol]il.VarID
	// ar is the proc's arena; every lowered node is carved from it.
	ar *il.Arena

	breakTo    string // label to goto on break ("" if none)
	continueTo string
	breakUsed  *bool
	contUsed   *bool

	// pending buffers the globals this function creates — statics and
	// string literals, in encounter order — so lowering never touches the
	// shared program; FileWorkers flushes them in declaration order.
	pending []il.GlobalVar
	// strRefs marks which pending entries are string literals (and the
	// proc-local vars naming them) for the flush-time .strN renumbering.
	strRefs []strRef

	// pendingSafe is set after "#pragma safe"; the next loop lowered gets
	// its Safe flag.
	pendingSafe bool
}

// strRef ties a function-local string literal to its pending-global slot
// and the proc variable that addresses it.
type strRef struct {
	global int
	v      il.VarID
}

func lowerFunc(fn *ast.FuncDecl, info *sema.Info) (*il.Proc, *lowerer, error) {
	p := il.NewProc(fn.Name, fn.Type.Ret)
	p.Variadic = fn.Type.Variadic
	// Every proc owns an arena: lowered nodes and everything the optimizer
	// rebuilds come from per-proc slabs, released in one step when the
	// compile's result is dropped (see DESIGN.md, "Memory architecture").
	p.SetArena(il.NewArena())
	lw := &lowerer{proc: p, info: info, vars: map[*sema.Symbol]il.VarID{}, ar: p.Arena()}
	for _, psym := range info.ParamSyms[fn] {
		id := p.AddVar(il.Var{Name: psym.Name, Type: psym.Type, Class: il.ClassParam, AddrTaken: psym.AddrTaken})
		p.Params = append(p.Params, id)
		lw.vars[psym] = id
	}
	stmts, err := lw.stmt(fn.Body)
	if err != nil {
		return nil, nil, err
	}
	p.Body = stmts
	return p, lw, nil
}

// constValue extracts a compile-time constant from an initializer
// expression (integer, float, char, or their negations).
func constValue(e ast.Expr) (int64, float64, bool) {
	switch c := e.(type) {
	case *ast.IntConst:
		return c.Value, float64(c.Value), true
	case *ast.FloatConst:
		return int64(c.Value), c.Value, true
	case *ast.UnaryExpr:
		if c.Op == ast.Neg {
			iv, fv, ok := constValue(c.X)
			return -iv, -fv, ok
		}
	case *ast.CastExpr:
		return constValue(c.X)
	}
	return 0, 0, false
}

// buildInitData renders a brace-initialized global's initial bytes.
func buildInitData(g *ast.VarDecl) ([]byte, error) {
	cells := ctype.ScalarCells(g.Type)
	data := make([]byte, g.Type.Size())
	for i, e := range g.InitList {
		iv, fv, ok := constValue(e)
		if !ok {
			return nil, errf(e.Pos(), "global %s: initializer %d must be a constant", g.Name, i+1)
		}
		writeCell(data[cells[i].Offset:], cells[i].Type, iv, fv)
	}
	return data, nil
}

// writeCell stores one scalar value into a data image.
func writeCell(b []byte, t *ctype.Type, iv int64, fv float64) {
	switch {
	case t.Kind == ctype.Float:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(fv)))
	case t.Kind == ctype.Double:
		binary.LittleEndian.PutUint64(b, math.Float64bits(fv))
	case t.Size() == 1:
		b[0] = byte(iv)
	case t.Size() == 2:
		binary.LittleEndian.PutUint16(b, uint16(iv))
	default:
		binary.LittleEndian.PutUint32(b, uint32(iv))
	}
}

// varID returns the procedure-local variable for a symbol, creating the
// table entry on first use. Globals and function statics become ClassGlobal
// / ClassStatic entries that name program-level storage.
func (lw *lowerer) varID(sym *sema.Symbol) il.VarID {
	if id, ok := lw.vars[sym]; ok {
		return id
	}
	v := il.Var{Name: sym.Name, Type: sym.Type, AddrTaken: sym.AddrTaken}
	switch sym.Kind {
	case sema.SymGlobal:
		v.Class = il.ClassGlobal
	case sema.SymStaticLocal:
		v.Class = il.ClassStatic
		v.Name = sym.MangledName
		lw.pending = append(lw.pending, il.GlobalVar{Name: sym.MangledName, Type: sym.Type})
	case sema.SymParam:
		v.Class = il.ClassParam
	default:
		v.Class = il.ClassLocal
	}
	id := lw.proc.AddVar(v)
	lw.vars[sym] = id
	return id
}

// ---------------------------------------------------------------- statements

// stmt lowers one AST statement and stamps every resulting IL statement
// that does not yet have a position with the source statement's position.
// Nested statements were stamped by their own recursive lowering first, so
// the outer stamp only fills compiler-manufactured statements (temp
// assignments, branch scaffolding) — no lowered statement escapes with a
// zero token.Pos.
func (lw *lowerer) stmt(s ast.Stmt) ([]il.Stmt, error) {
	out, err := lw.stmtInner(s)
	if err != nil {
		return nil, err
	}
	il.StampStmts(out, s.Pos())
	return out, nil
}

func (lw *lowerer) stmtInner(s ast.Stmt) ([]il.Stmt, error) {
	switch n := s.(type) {
	case *ast.CompoundStmt:
		var out []il.Stmt
		for _, sub := range n.List {
			sl, err := lw.stmt(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, sl...)
		}
		return out, nil
	case *ast.EmptyStmt:
		return nil, nil
	case *ast.PragmaStmt:
		if n.Text == "safe" {
			lw.pendingSafe = true
		}
		return nil, nil
	case *ast.DeclStmt:
		var out []il.Stmt
		for _, d := range n.Decls {
			sym := lw.info.Decls[d]
			id := lw.varID(sym)
			if d.Init != nil {
				sl, e, err := lw.expr(d.Init)
				if err != nil {
					return nil, err
				}
				out = append(out, sl...)
				out = append(out, lw.ar.Assign(il.Assign{
					Dst: lw.ar.VarRef(id, sym.Type),
					Src: lw.coerce(e, sym.Type),
				}))
			}
			if d.InitList != nil {
				sl, err := lw.initList(d, sym, id)
				if err != nil {
					return nil, err
				}
				out = append(out, sl...)
			}
		}
		return out, nil
	case *ast.ExprStmt:
		return lw.exprStmt(n.X)
	case *ast.IfStmt:
		condSL, cond, err := lw.cond(n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := lw.stmt(n.Then)
		if err != nil {
			return nil, err
		}
		var els []il.Stmt
		if n.Else != nil {
			els, err = lw.stmt(n.Else)
			if err != nil {
				return nil, err
			}
		}
		return append(condSL, lw.ar.If(il.If{Cond: cond, Then: then, Else: els})), nil
	case *ast.WhileStmt:
		return lw.whileLoop(n.Cond, n.Body, nil)
	case *ast.ForStmt:
		var out []il.Stmt
		if n.Init != nil {
			sl, err := lw.exprStmt(n.Init)
			if err != nil {
				return nil, err
			}
			out = append(out, sl...)
		}
		cond := n.Cond
		if cond == nil {
			one := ast.NewIntConst(n.Pos(), 1)
			cond = one
		}
		loop, err := lw.whileLoop(cond, n.Body, n.Post)
		if err != nil {
			return nil, err
		}
		return append(out, loop...), nil
	case *ast.DoWhileStmt:
		return lw.doWhile(n)
	case *ast.ReturnStmt:
		if n.X == nil {
			return []il.Stmt{lw.ar.Return(il.Return{})}, nil
		}
		sl, e, err := lw.expr(n.X)
		if err != nil {
			return nil, err
		}
		return append(sl, lw.ar.Return(il.Return{Val: lw.coerce(e, lw.proc.Ret)})), nil
	case *ast.BreakStmt:
		if lw.breakTo == "" {
			return nil, errf(n.Pos(), "break outside loop")
		}
		*lw.breakUsed = true
		return []il.Stmt{lw.ar.Goto(il.Goto{Target: lw.breakTo})}, nil
	case *ast.ContinueStmt:
		if lw.continueTo == "" {
			return nil, errf(n.Pos(), "continue outside loop")
		}
		*lw.contUsed = true
		return []il.Stmt{lw.ar.Goto(il.Goto{Target: lw.continueTo})}, nil
	case *ast.GotoStmt:
		return []il.Stmt{lw.ar.Goto(il.Goto{Target: "." + n.Label})}, nil
	case *ast.LabeledStmt:
		inner, err := lw.stmt(n.Stmt)
		if err != nil {
			return nil, err
		}
		return append([]il.Stmt{lw.ar.Label(il.Label{Name: "." + n.Label})}, inner...), nil
	case *ast.SwitchStmt:
		return lw.switchStmt(n)
	case *ast.CaseStmt:
		return nil, errf(n.Pos(), "case label outside switch lowering")
	}
	return nil, errf(s.Pos(), "unhandled statement %T", s)
}

// initList expands a local brace initializer into element stores; cells
// past the list are zeroed, per C semantics.
func (lw *lowerer) initList(d *ast.VarDecl, sym *sema.Symbol, id il.VarID) ([]il.Stmt, error) {
	cells := ctype.ScalarCells(sym.Type)
	base := lw.ar.AddrOf(id, ctype.PointerTo(sym.Type))
	var out []il.Stmt
	// Scalar declared with braces: plain assignment.
	if !sym.Type.IsAggregate() && sym.Type.Kind != ctype.Array {
		sl, e, err := lw.expr(d.InitList[0])
		if err != nil {
			return nil, err
		}
		out = append(out, sl...)
		return append(out, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(id, sym.Type), Src: lw.coerce(e, sym.Type)})), nil
	}
	for i, cell := range cells {
		addr := lw.ar.Add(base, lw.ar.Int(int64(cell.Offset)), ctype.PointerTo(cell.Type))
		dst := lw.ar.Load(addr, cell.Type, cell.Type.Volatile)
		if i < len(d.InitList) {
			sl, e, err := lw.expr(d.InitList[i])
			if err != nil {
				return nil, err
			}
			out = append(out, sl...)
			out = append(out, lw.ar.Assign(il.Assign{Dst: dst, Src: lw.coerce(e, cell.Type)}))
			continue
		}
		// Zero the rest.
		var zero il.Expr
		if cell.Type.IsFloat() {
			zero = lw.ar.ConstFloat(0, cell.Type)
		} else {
			zero = lw.ar.Int(0)
		}
		out = append(out, lw.ar.Assign(il.Assign{Dst: dst, Src: zero}))
	}
	return out, nil
}

// whileLoop lowers while/for loops. post is the for-loop post expression
// (nil for while). Per §4, the condition's statement list is emitted before
// the loop and duplicated at the bottom of the body.
func (lw *lowerer) whileLoop(cond ast.Expr, body ast.Stmt, post ast.Expr) ([]il.Stmt, error) {
	safe := lw.pendingSafe
	lw.pendingSafe = false

	condSL, condE, err := lw.cond(cond)
	if err != nil {
		return nil, err
	}

	breakLbl := lw.proc.NewLabel("brk")
	contLbl := lw.proc.NewLabel("cont")
	var breakUsed, contUsed bool
	savedB, savedC := lw.breakTo, lw.continueTo
	savedBU, savedCU := lw.breakUsed, lw.contUsed
	lw.breakTo, lw.continueTo = breakLbl, contLbl
	lw.breakUsed, lw.contUsed = &breakUsed, &contUsed
	bodySL, err := lw.stmt(body)
	lw.breakTo, lw.continueTo = savedB, savedC
	lw.breakUsed, lw.contUsed = savedBU, savedCU
	if err != nil {
		return nil, err
	}

	var loopBody []il.Stmt
	loopBody = append(loopBody, bodySL...)
	if contUsed {
		loopBody = append(loopBody, lw.ar.Label(il.Label{Name: contLbl}))
	}
	if post != nil {
		postSL, err := lw.exprStmt(post)
		if err != nil {
			return nil, err
		}
		loopBody = append(loopBody, postSL...)
	}
	// Duplicate the condition's statement list at the loop bottom (§4).
	loopBody = append(loopBody, lw.ar.CloneStmts(condSL)...)

	out := condSL
	out = append(out, lw.ar.While(il.While{Cond: condE, Body: loopBody, Safe: safe}))
	if breakUsed {
		out = append(out, lw.ar.Label(il.Label{Name: breakLbl}))
	}
	return out, nil
}

// doWhile lowers do-while with a backward goto; such loops are irregular
// from the loop converter's point of view, matching their rarity in the
// paper's workloads.
func (lw *lowerer) doWhile(n *ast.DoWhileStmt) ([]il.Stmt, error) {
	top := lw.proc.NewLabel("do")
	breakLbl := lw.proc.NewLabel("brk")
	contLbl := lw.proc.NewLabel("cont")
	var breakUsed, contUsed bool
	savedB, savedC := lw.breakTo, lw.continueTo
	savedBU, savedCU := lw.breakUsed, lw.contUsed
	lw.breakTo, lw.continueTo = breakLbl, contLbl
	lw.breakUsed, lw.contUsed = &breakUsed, &contUsed
	body, err := lw.stmt(n.Body)
	lw.breakTo, lw.continueTo = savedB, savedC
	lw.breakUsed, lw.contUsed = savedBU, savedCU
	if err != nil {
		return nil, err
	}
	condSL, condE, err := lw.cond(n.Cond)
	if err != nil {
		return nil, err
	}
	out := []il.Stmt{lw.ar.Label(il.Label{Name: top})}
	out = append(out, body...)
	if contUsed {
		out = append(out, lw.ar.Label(il.Label{Name: contLbl}))
	}
	out = append(out, condSL...)
	out = append(out, lw.ar.If(il.If{Cond: condE, Then: []il.Stmt{lw.ar.Goto(il.Goto{Target: top})}}))
	if breakUsed {
		out = append(out, lw.ar.Label(il.Label{Name: breakLbl}))
	}
	return out, nil
}

// switchStmt lowers a switch to a compare-and-goto dispatch followed by the
// body with case labels replaced by IL labels.
func (lw *lowerer) switchStmt(n *ast.SwitchStmt) ([]il.Stmt, error) {
	tagSL, tagE, err := lw.expr(n.Tag)
	if err != nil {
		return nil, err
	}
	out := tagSL
	tag := lw.proc.NewTemp(ctype.IntType)
	out = append(out, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tag, ctype.IntType), Src: tagE}))

	endLbl := lw.proc.NewLabel("swend")
	// Collect the case arms in source order.
	type arm struct {
		val   *int64 // nil for default
		label string
	}
	var arms []arm
	caseLabels := map[*ast.CaseStmt]string{}
	collectCases(n.Body, func(cs *ast.CaseStmt) error {
		lbl := lw.proc.NewLabel("case")
		caseLabels[cs] = lbl
		if cs.Value == nil {
			arms = append(arms, arm{nil, lbl})
			return nil
		}
		c, ok := cs.Value.(*ast.IntConst)
		if !ok {
			return errf(cs.Pos(), "case value must be an integer constant")
		}
		v := c.Value
		arms = append(arms, arm{&v, lbl})
		return nil
	})

	defaultLbl := endLbl
	for _, a := range arms {
		if a.val == nil {
			defaultLbl = a.label
			continue
		}
		out = append(out, lw.ar.If(il.If{
			Cond: lw.ar.NewBin(il.OpEq, lw.ar.VarRef(tag, ctype.IntType), lw.ar.Int(*a.val), ctype.IntType),
			Then: []il.Stmt{lw.ar.Goto(il.Goto{Target: a.label})},
		}))
	}
	out = append(out, lw.ar.Goto(il.Goto{Target: defaultLbl}))

	// Lower the body with break → end and cases → labels.
	var breakUsed bool
	savedB := lw.breakTo
	savedBU := lw.breakUsed
	lw.breakTo = endLbl
	lw.breakUsed = &breakUsed
	bodySL, err := lw.switchBody(n.Body, caseLabels)
	lw.breakTo = savedB
	lw.breakUsed = savedBU
	if err != nil {
		return nil, err
	}
	out = append(out, bodySL...)
	out = append(out, lw.ar.Label(il.Label{Name: endLbl}))
	return out, nil
}

// collectCases walks the immediate body of a switch, visiting case labels
// (not descending into nested switches).
func collectCases(s ast.Stmt, f func(*ast.CaseStmt) error) {
	switch n := s.(type) {
	case *ast.CompoundStmt:
		for _, sub := range n.List {
			collectCases(sub, f)
		}
	case *ast.CaseStmt:
		if err := f(n); err == nil {
			collectCases(n.Stmt, f)
		}
	case *ast.LabeledStmt:
		collectCases(n.Stmt, f)
	}
}

// switchBody lowers the switch body, replacing case statements by labels.
func (lw *lowerer) switchBody(s ast.Stmt, labels map[*ast.CaseStmt]string) ([]il.Stmt, error) {
	switch n := s.(type) {
	case *ast.CompoundStmt:
		var out []il.Stmt
		for _, sub := range n.List {
			sl, err := lw.switchBody(sub, labels)
			if err != nil {
				return nil, err
			}
			out = append(out, sl...)
		}
		return out, nil
	case *ast.CaseStmt:
		inner, err := lw.switchBody(n.Stmt, labels)
		if err != nil {
			return nil, err
		}
		return append([]il.Stmt{lw.ar.Label(il.Label{Name: labels[n]})}, inner...), nil
	default:
		return lw.stmt(s)
	}
}

// ---------------------------------------------------------------- expressions

// exprStmt lowers an expression evaluated only for effect, avoiding the
// value temporary for the common assignment and increment forms.
func (lw *lowerer) exprStmt(e ast.Expr) ([]il.Stmt, error) {
	switch n := e.(type) {
	case *ast.AssignExpr:
		return lw.assign(n, false)
	case *ast.CommaExpr:
		l, err := lw.exprStmt(n.L)
		if err != nil {
			return nil, err
		}
		r, err := lw.exprStmt(n.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case *ast.UnaryExpr:
		switch n.Op {
		case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
			sl, _, err := lw.incDec(n, false)
			return sl, err
		}
	case *ast.CallExpr:
		sl, _, err := lw.call(n, false)
		return sl, err
	}
	sl, _, err := lw.expr(e)
	return sl, err
}

// cond lowers an expression used in boolean context.
func (lw *lowerer) cond(e ast.Expr) ([]il.Stmt, il.Expr, error) {
	sl, v, err := lw.expr(e)
	if err != nil {
		return nil, nil, err
	}
	// Pointers and floats compare against zero; integers are used directly.
	t := v.Type()
	if t != nil && t.IsFloat() {
		v = lw.ar.NewBin(il.OpNe, v, lw.ar.ConstFloat(0, t), ctype.IntType)
	}
	return sl, v, nil
}

// expr lowers e to (SL, E).
func (lw *lowerer) expr(e ast.Expr) ([]il.Stmt, il.Expr, error) {
	switch n := e.(type) {
	case *ast.IntConst:
		return nil, lw.ar.ConstInt(n.Value, n.Type()), nil
	case *ast.FloatConst:
		return nil, lw.ar.ConstFloat(n.Value, n.Type()), nil
	case *ast.StrConst:
		return nil, lw.stringLit(n), nil
	case *ast.IdentExpr:
		sym := lw.info.Uses[n]
		if sym.Kind == sema.SymFunc {
			// Function designator in expression context: its "value" is a
			// name; only calls and function pointers consume it.
			return nil, lw.ar.AddrOf(lw.funcRef(sym), ctype.PointerTo(sym.Type)), nil
		}
		id := lw.varID(sym)
		t := sym.Type
		if t.Kind == ctype.Array || t.IsAggregate() {
			// Arrays decay to their base address in rvalue context;
			// aggregates are referenced by address.
			return nil, lw.ar.AddrOf(id, ctype.PointerTo(t.Decay().Elem)), nil
		}
		return nil, lw.ar.VarRef(id, t), nil
	case *ast.UnaryExpr:
		return lw.unary(n)
	case *ast.BinaryExpr:
		return lw.binary(n)
	case *ast.AssignExpr:
		return lw.assignForValue(n)
	case *ast.CondExpr:
		return lw.condExpr(n)
	case *ast.CommaExpr:
		l, err := lw.exprStmt(n.L)
		if err != nil {
			return nil, nil, err
		}
		rSL, rE, err := lw.expr(n.R)
		if err != nil {
			return nil, nil, err
		}
		return append(l, rSL...), rE, nil
	case *ast.CallExpr:
		return lw.call(n, true)
	case *ast.IndexExpr, *ast.MemberExpr:
		addr, vol, err := lw.lvalueAddr(e)
		if err != nil {
			return nil, nil, err
		}
		t := e.Type()
		if t.Kind == ctype.Array || t.IsAggregate() {
			return addr.sl, addr.e, nil // decay again
		}
		return addr.sl, lw.ar.Load(addr.e, t, vol || t.Volatile), nil
	case *ast.CastExpr:
		sl, v, err := lw.expr(n.X)
		if err != nil {
			return nil, nil, err
		}
		return sl, lw.ar.NewCast(v, n.To), nil
	case *ast.SizeofExpr:
		var t *ctype.Type
		if n.OfType != nil {
			t = n.OfType
		} else {
			t = n.X.Type()
		}
		return nil, lw.ar.Int(int64(t.Size())), nil
	}
	return nil, nil, errf(e.Pos(), "unhandled expression %T", e)
}

// funcRef returns a proc-level variable standing for a function's address
// (used for function pointers).
func (lw *lowerer) funcRef(sym *sema.Symbol) il.VarID {
	if id, ok := lw.vars[sym]; ok {
		return id
	}
	id := lw.proc.AddVar(il.Var{Name: sym.Name, Type: sym.Type, Class: il.ClassGlobal})
	lw.vars[sym] = id
	return id
}

// stringLit interns a string literal as a char-array global. The global
// goes into the pending buffer with an empty name; FileWorkers assigns the
// serial .strN name (unit-wide, in declaration-then-encounter order) when
// it flushes the buffers.
func (lw *lowerer) stringLit(n *ast.StrConst) il.Expr {
	data := append([]byte(n.Value), 0)
	t := ctype.ArrayOf(ctype.CharType, len(data))
	lw.pending = append(lw.pending, il.GlobalVar{Name: "", Type: t, Data: data})
	id := lw.proc.AddVar(il.Var{Name: "", Type: t, Class: il.ClassGlobal})
	lw.strRefs = append(lw.strRefs, strRef{global: len(lw.pending) - 1, v: id})
	return lw.ar.AddrOf(id, ctype.PointerTo(ctype.CharType))
}

type addrRes struct {
	sl []il.Stmt
	e  il.Expr // byte address
}

// lvalueAddr computes the address of an lvalue expression, returning the
// statement list, address expression, and whether the storage is volatile.
func (lw *lowerer) lvalueAddr(e ast.Expr) (addrRes, bool, error) {
	switch n := e.(type) {
	case *ast.IdentExpr:
		sym := lw.info.Uses[n]
		id := lw.varID(sym)
		return addrRes{e: lw.ar.AddrOf(id, ctype.PointerTo(sym.Type))}, sym.Type.Volatile, nil
	case *ast.UnaryExpr:
		if n.Op == ast.Deref {
			sl, v, err := lw.expr(n.X)
			if err != nil {
				return addrRes{}, false, err
			}
			pt := n.X.Type().Decay()
			vol := pt.Kind == ctype.Pointer && pt.Elem.Volatile
			return addrRes{sl: sl, e: v}, vol, nil
		}
	case *ast.IndexExpr:
		// a[i] address = a + i*size (byte arithmetic).
		xt := n.X.Type().Decay()
		it := n.Index.Type().Decay()
		base, idx := n.X, n.Index
		if xt.Kind != ctype.Pointer && it.Kind == ctype.Pointer {
			base, idx = n.Index, n.X
			xt = it
		}
		bSL, bE, err := lw.expr(base)
		if err != nil {
			return addrRes{}, false, err
		}
		iSL, iE, err := lw.expr(idx)
		if err != nil {
			return addrRes{}, false, err
		}
		elem := xt.Elem
		off := lw.ar.Mul(lw.ar.Int(int64(elem.Size())), iE, ctype.IntType)
		addr := lw.ar.Add(bE, off, bE.Type())
		return addrRes{sl: append(bSL, iSL...), e: addr}, elem.Volatile, nil
	case *ast.MemberExpr:
		var base addrRes
		var st *ctype.Type
		var err error
		if n.Arrow {
			var sl []il.Stmt
			var v il.Expr
			sl, v, err = lw.expr(n.X)
			if err != nil {
				return addrRes{}, false, err
			}
			base = addrRes{sl: sl, e: v}
			st = n.X.Type().Decay().Elem
		} else {
			var vol bool
			base, vol, err = lw.lvalueAddr(n.X)
			if err != nil {
				return addrRes{}, false, err
			}
			_ = vol
			st = n.X.Type()
		}
		f := st.Field(n.Name)
		addr := lw.ar.Add(base.e, lw.ar.Int(int64(f.Offset)), base.e.Type())
		return addrRes{sl: base.sl, e: addr}, f.Type.Volatile, nil
	}
	return addrRes{}, false, errf(e.Pos(), "not an lvalue: %T", e)
}

// scale returns sizeof(elem) for a pointer/array type used in arithmetic.
func scale(t *ctype.Type) int64 {
	d := t.Decay()
	if d.Kind == ctype.Pointer {
		return int64(d.Elem.Size())
	}
	return 1
}

func (lw *lowerer) unary(n *ast.UnaryExpr) ([]il.Stmt, il.Expr, error) {
	switch n.Op {
	case ast.Neg:
		sl, v, err := lw.expr(n.X)
		if err != nil {
			return nil, nil, err
		}
		return sl, lw.ar.NewUn(il.OpNeg, lw.coerce(v, n.Type()), n.Type()), nil
	case ast.BitNot:
		sl, v, err := lw.expr(n.X)
		if err != nil {
			return nil, nil, err
		}
		return sl, lw.ar.NewUn(il.OpBitNot, lw.coerce(v, n.Type()), n.Type()), nil
	case ast.Not:
		sl, v, err := lw.expr(n.X)
		if err != nil {
			return nil, nil, err
		}
		if v.Type() != nil && v.Type().IsFloat() {
			return sl, lw.ar.NewBin(il.OpEq, v, lw.ar.ConstFloat(0, v.Type()), ctype.IntType), nil
		}
		return sl, lw.ar.NewUn(il.OpNot, v, ctype.IntType), nil
	case ast.Deref:
		sl, v, err := lw.expr(n.X)
		if err != nil {
			return nil, nil, err
		}
		t := n.Type()
		if t.Kind == ctype.Array || t.IsAggregate() {
			return sl, v, nil
		}
		pt := n.X.Type().Decay()
		vol := t.Volatile || (pt.Kind == ctype.Pointer && pt.Elem.Volatile)
		return sl, lw.ar.Load(v, t, vol), nil
	case ast.Addr:
		res, _, err := lw.lvalueAddr(n.X)
		if err != nil {
			return nil, nil, err
		}
		return res.sl, res.e, nil
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		return lw.incDec(n, true)
	}
	return nil, nil, errf(n.Pos(), "unhandled unary %v", n.Op)
}

// incDec lowers the four ++/-- forms per the paper's scheme. When the value
// is needed, post forms yield a temp holding the old value and pre forms
// yield a temp holding the new value (a temp so that a later change to the
// variable cannot be observed through the expression).
func (lw *lowerer) incDec(n *ast.UnaryExpr, needValue bool) ([]il.Stmt, il.Expr, error) {
	t := n.Type() // decayed operand type
	op := il.OpAdd
	if n.Op == ast.PreDec || n.Op == ast.PostDec {
		op = il.OpSub
	}
	delta := lw.ar.Int(1)
	if t.Kind == ctype.Pointer {
		delta = lw.ar.Int(scale(n.X.Type()))
	}
	isPost := n.Op == ast.PostInc || n.Op == ast.PostDec

	// Fast path: a named scalar variable.
	if id, simple := lw.simpleVar(n.X); simple {
		vref := lw.ar.VarRef(id, lw.proc.Vars[id].Type)
		if !needValue {
			return []il.Stmt{lw.ar.Assign(il.Assign{Dst: vref, Src: lw.ar.NewBin(op, vref, delta, t)})}, nil, nil
		}
		tmp := lw.proc.NewTemp(t)
		var sl []il.Stmt
		if isPost {
			// t = a; a = t ± d; value t  (the paper's §5.3 shape)
			sl = append(sl,
				lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, t), Src: vref}),
				lw.ar.Assign(il.Assign{Dst: vref, Src: lw.ar.NewBin(op, lw.ar.VarRef(tmp, t), delta, t)}))
		} else {
			sl = append(sl,
				lw.ar.Assign(il.Assign{Dst: vref, Src: lw.ar.NewBin(op, vref, delta, t)}),
				lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, t), Src: vref}))
		}
		return sl, lw.ar.VarRef(tmp, t), nil
	}

	// General lvalue: compute the address once.
	res, vol, err := lw.lvalueAddr(n.X)
	if err != nil {
		return nil, nil, err
	}
	sl := res.sl
	addrT := ctype.PointerTo(t)
	addrTmp := lw.proc.NewTemp(addrT)
	sl = append(sl, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(addrTmp, addrT), Src: res.e}))
	loadOld := lw.ar.Load(lw.ar.VarRef(addrTmp, addrT), t, vol)
	valTmp := lw.proc.NewTemp(t)
	sl = append(sl, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(valTmp, t), Src: loadOld}))
	newVal := lw.ar.NewBin(op, lw.ar.VarRef(valTmp, t), delta, t)
	sl = append(sl, lw.ar.Assign(il.Assign{
		Dst: lw.ar.Load(lw.ar.VarRef(addrTmp, addrT), t, vol),
		Src: newVal,
	}))
	if !needValue {
		return sl, nil, nil
	}
	if isPost {
		return sl, lw.ar.VarRef(valTmp, t), nil
	}
	resTmp := lw.proc.NewTemp(t)
	sl = append(sl, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(resTmp, t), Src: lw.ar.NewBin(op, lw.ar.VarRef(valTmp, t), delta, t)}))
	return sl, lw.ar.VarRef(resTmp, t), nil
}

// simpleVar reports whether e is a direct reference to a scalar variable.
func (lw *lowerer) simpleVar(e ast.Expr) (il.VarID, bool) {
	id, ok := e.(*ast.IdentExpr)
	if !ok {
		return il.NoVar, false
	}
	sym := lw.info.Uses[id]
	if sym == nil || sym.Kind == sema.SymFunc {
		return il.NoVar, false
	}
	if sym.Type.Kind == ctype.Array || sym.Type.IsAggregate() {
		return il.NoVar, false
	}
	return lw.varID(sym), true
}

var binOpMap = map[ast.BinOp]il.Op{
	ast.Add: il.OpAdd, ast.Sub: il.OpSub, ast.Mul: il.OpMul, ast.Div: il.OpDiv,
	ast.Rem: il.OpRem, ast.And: il.OpAnd, ast.Or: il.OpOr, ast.Xor: il.OpXor,
	ast.Shl: il.OpShl, ast.Shr: il.OpShr,
	ast.Eq: il.OpEq, ast.Ne: il.OpNe, ast.Lt: il.OpLt, ast.Gt: il.OpGt,
	ast.Le: il.OpLe, ast.Ge: il.OpGe,
}

func (lw *lowerer) binary(n *ast.BinaryExpr) ([]il.Stmt, il.Expr, error) {
	if n.Op == ast.LogAnd || n.Op == ast.LogOr {
		return lw.logical(n)
	}
	lSL, lE, err := lw.expr(n.L)
	if err != nil {
		return nil, nil, err
	}
	rSL, rE, err := lw.expr(n.R)
	if err != nil {
		return nil, nil, err
	}
	sl := append(lSL, rSL...)
	lt := n.L.Type().Decay()
	rt := n.R.Type().Decay()
	op := binOpMap[n.Op]

	// Pointer arithmetic in bytes.
	if n.Op == ast.Add || n.Op == ast.Sub {
		switch {
		case lt.Kind == ctype.Pointer && rt.IsInteger():
			off := lw.ar.Mul(lw.ar.Int(scale(lt)), rE, ctype.IntType)
			return sl, lw.ar.NewBin(op, lE, off, lt), nil
		case rt.Kind == ctype.Pointer && lt.IsInteger() && n.Op == ast.Add:
			off := lw.ar.Mul(lw.ar.Int(scale(rt)), lE, ctype.IntType)
			return sl, lw.ar.NewBin(op, rE, off, rt), nil
		case lt.Kind == ctype.Pointer && rt.Kind == ctype.Pointer && n.Op == ast.Sub:
			diff := lw.ar.NewBin(il.OpSub, lE, rE, ctype.IntType)
			return sl, lw.ar.NewBin(il.OpDiv, diff, lw.ar.Int(scale(lt)), ctype.IntType), nil
		}
	}

	if op.IsComparison() {
		common := ctype.Common(lt, rt)
		return sl, lw.ar.NewBin(op, lw.coerce(lE, common), lw.coerce(rE, common), ctype.IntType), nil
	}
	t := n.Type()
	return sl, lw.ar.NewBin(op, lw.coerce(lE, t), lw.coerce(rE, t), t), nil
}

// logical lowers && and || into an If assigning a temp, since the IL has no
// short-circuit operators (§4).
func (lw *lowerer) logical(n *ast.BinaryExpr) ([]il.Stmt, il.Expr, error) {
	lSL, lE, err := lw.cond(n.L)
	if err != nil {
		return nil, nil, err
	}
	rSL, rE, err := lw.cond(n.R)
	if err != nil {
		return nil, nil, err
	}
	tmp := lw.proc.NewTemp(ctype.IntType)
	bool01 := func(e il.Expr) il.Expr {
		// Normalize to 0/1 as C requires.
		if b, ok := e.(*il.Bin); ok && b.Op.IsComparison() {
			return e
		}
		return lw.ar.NewBin(il.OpNe, e, lw.ar.Int(0), ctype.IntType)
	}
	set := func(e il.Expr) il.Stmt {
		return lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, ctype.IntType), Src: bool01(e)})
	}
	inner := append(rSL, set(rE))
	var out []il.Stmt
	out = append(out, lSL...)
	if n.Op == ast.LogAnd {
		out = append(out, set(lw.ar.Int(0)), lw.ar.If(il.If{Cond: lE, Then: inner}))
	} else {
		out = append(out, set(lw.ar.Int(1)), lw.ar.If(il.If{Cond: lw.ar.NewUn(il.OpNot, lE, ctype.IntType), Then: inner}))
	}
	return out, lw.ar.VarRef(tmp, ctype.IntType), nil
}

// condExpr lowers ?: into an If assigning a temp.
func (lw *lowerer) condExpr(n *ast.CondExpr) ([]il.Stmt, il.Expr, error) {
	cSL, cE, err := lw.cond(n.Cond)
	if err != nil {
		return nil, nil, err
	}
	t := n.Type()
	tmp := lw.proc.NewTemp(t)
	tSL, tE, err := lw.expr(n.Then)
	if err != nil {
		return nil, nil, err
	}
	eSL, eE, err := lw.expr(n.Else)
	if err != nil {
		return nil, nil, err
	}
	then := append(tSL, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, t), Src: lw.coerce(tE, t)}))
	els := append(eSL, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, t), Src: lw.coerce(eE, t)}))
	out := append(cSL, lw.ar.If(il.If{Cond: cE, Then: then, Else: els}))
	return out, lw.ar.VarRef(tmp, t), nil
}

// assign lowers an assignment for effect only.
func (lw *lowerer) assign(n *ast.AssignExpr, needValue bool) ([]il.Stmt, error) {
	sl, _, err := lw.assignCommon(n, needValue)
	return sl, err
}

// assignForValue lowers an assignment whose value is consumed: the paper's
// temp scheme guarantees the LHS is written once and never read.
func (lw *lowerer) assignForValue(n *ast.AssignExpr) ([]il.Stmt, il.Expr, error) {
	return lw.assignCommon(n, true)
}

func (lw *lowerer) assignCommon(n *ast.AssignExpr, needValue bool) ([]il.Stmt, il.Expr, error) {
	lt := n.L.Type()
	rSL, rE, err := lw.expr(n.R)
	if err != nil {
		return nil, nil, err
	}

	// Compound assignment reads the LHS once: L = L op R.
	makeRHS := func(cur il.Expr) il.Expr {
		if n.Op == nil {
			return lw.coerce(rE, lt)
		}
		op := binOpMap[*n.Op]
		// Pointer compound assignment scales.
		if lt.Decay().Kind == ctype.Pointer {
			off := lw.ar.Mul(lw.ar.Int(scale(lt)), rE, ctype.IntType)
			return lw.ar.NewBin(op, cur, off, lt.Decay())
		}
		common := ctype.Common(lt.Decay(), n.R.Type().Decay())
		v := lw.ar.NewBin(op, lw.coerce(cur, common), lw.coerce(rE, common), common)
		return lw.coerce(v, lt)
	}

	if id, simple := lw.simpleVar(n.L); simple {
		vref := lw.ar.VarRef(id, lw.proc.Vars[id].Type)
		var sl []il.Stmt
		sl = append(sl, rSL...)
		if !needValue {
			sl = append(sl, lw.ar.Assign(il.Assign{Dst: vref, Src: makeRHS(vref)}))
			return sl, nil, nil
		}
		// t = RHS; v = t; value t — writes v once, never reads it.
		tmp := lw.proc.NewTemp(lt)
		sl = append(sl, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, lt), Src: makeRHS(vref)}))
		sl = append(sl, lw.ar.Assign(il.Assign{Dst: vref, Src: lw.ar.VarRef(tmp, lt)}))
		return sl, lw.ar.VarRef(tmp, lt), nil
	}

	res, vol, err := lw.lvalueAddr(n.L)
	if err != nil {
		return nil, nil, err
	}
	sl := res.sl
	sl = append(sl, rSL...)
	addr := res.e
	vol = vol || lt.Volatile
	if n.Op != nil || needValue {
		// Pin the address in a temp so reads and the write agree.
		addrT := ctype.PointerTo(lt)
		at := lw.proc.NewTemp(addrT)
		sl = append(sl, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(at, addrT), Src: addr}))
		addr = lw.ar.VarRef(at, addrT)
	}
	cur := lw.ar.Load(addr, lt, vol)
	if !needValue {
		sl = append(sl, lw.ar.Assign(il.Assign{
			Dst: lw.ar.Load(addr, lt, vol),
			Src: makeRHS(cur),
		}))
		return sl, nil, nil
	}
	tmp := lw.proc.NewTemp(lt)
	sl = append(sl, lw.ar.Assign(il.Assign{Dst: lw.ar.VarRef(tmp, lt), Src: makeRHS(cur)}))
	sl = append(sl, lw.ar.Assign(il.Assign{
		Dst: lw.ar.Load(addr, lt, vol),
		Src: lw.ar.VarRef(tmp, lt),
	}))
	return sl, lw.ar.VarRef(tmp, lt), nil
}

// call lowers a function call to a Call statement.
func (lw *lowerer) call(n *ast.CallExpr, needValue bool) ([]il.Stmt, il.Expr, error) {
	var sl []il.Stmt
	var args []il.Expr
	ft := n.Fun.Type()
	if ft.Kind == ctype.Pointer {
		ft = ft.Elem
	}
	for i, a := range n.Args {
		aSL, aE, err := lw.expr(a)
		if err != nil {
			return nil, nil, err
		}
		sl = append(sl, aSL...)
		if !ft.OldStyle && i < len(ft.Params) {
			aE = lw.coerce(aE, ft.Params[i].Type)
		} else if a.Type().Decay().Kind == ctype.Float {
			// Default argument promotion: float → double.
			aE = lw.coerce(aE, ctype.DoubleType)
		}
		args = append(args, aE)
	}
	dst := il.NoVar
	var result il.Expr
	retT := ft.Ret
	if needValue && retT.Kind != ctype.Void {
		dst = lw.proc.NewTemp(retT)
		result = lw.ar.VarRef(dst, retT)
	}
	call := lw.ar.Call(il.Call{Dst: dst, Args: args, T: retT})
	if id, ok := n.Fun.(*ast.IdentExpr); ok {
		sym := lw.info.Uses[id]
		if sym != nil && sym.Kind == sema.SymFunc {
			call.Callee = sym.Name
		}
	}
	if call.Callee == "" {
		fSL, fE, err := lw.expr(n.Fun)
		if err != nil {
			return nil, nil, err
		}
		sl = append(sl, fSL...)
		call.FunPtr = fE
	}
	sl = append(sl, call)
	return sl, result, nil
}

// coerce inserts a cast when e's IL type kind differs from the target.
func (lw *lowerer) coerce(e il.Expr, to *ctype.Type) il.Expr {
	if e == nil || to == nil {
		return e
	}
	from := e.Type()
	if from == nil {
		return e
	}
	to = to.Decay()
	from = from.Decay()
	// Integer kinds are interchangeable in the IL (one register width).
	if from.IsInteger() && to.IsInteger() {
		return e
	}
	if from.Kind == ctype.Pointer && to.Kind == ctype.Pointer {
		return e
	}
	if from.Kind == to.Kind {
		return e
	}
	if from.Kind == ctype.Pointer && to.IsInteger() || from.IsInteger() && to.Kind == ctype.Pointer {
		return e // same word
	}
	return lw.ar.NewCast(e, to)
}

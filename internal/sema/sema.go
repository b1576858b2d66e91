// Package sema performs name resolution and type checking over the AST.
//
// It annotates every expression with its C type (after the usual
// conversions), binds identifier uses to symbols, verifies call signatures
// against prototypes, enforces lvalue and scalar-context rules, and records
// which variables have their address taken (needed for register allocation
// and alias analysis downstream).
package sema

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctype"
	"repro/internal/token"
)

// Error is a semantic error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	SymGlobal SymKind = iota
	SymFunc
	SymParam
	SymLocal
	SymStaticLocal
)

// Symbol is a named program entity.
type Symbol struct {
	Name    string
	Type    *ctype.Type
	Kind    SymKind
	Storage ast.StorageClass
	// AddrTaken is set when & is applied to the symbol.
	AddrTaken bool
	// MangledName distinguishes function-static locals promoted to
	// globals ("func.name"), per the paper's catalog requirement (§7).
	MangledName string
}

// Info is the result of checking a file.
type Info struct {
	// Uses binds each identifier expression to its symbol.
	Uses map[*ast.IdentExpr]*Symbol
	// Decls binds each declaration to its symbol.
	Decls map[*ast.VarDecl]*Symbol
	// Funcs binds function declarations to symbols.
	Funcs map[*ast.FuncDecl]*Symbol
	// ParamSyms lists, for each function definition, the parameter symbols
	// in order.
	ParamSyms map[*ast.FuncDecl][]*Symbol
}

type checker struct {
	info   *Info
	scopes []map[string]*Symbol
	// current function context
	curFunc     *ast.FuncDecl
	loopDepth   int
	switchDepth int
	labels      map[string]bool // labels defined in current function
	gotos       []gotoRef
}

type gotoRef struct {
	pos   token.Pos
	label string
}

// Check resolves and type-checks a file.
func Check(f *ast.File) (*Info, error) {
	c := &checker{
		info: &Info{
			Uses:      map[*ast.IdentExpr]*Symbol{},
			Decls:     map[*ast.VarDecl]*Symbol{},
			Funcs:     map[*ast.FuncDecl]*Symbol{},
			ParamSyms: map[*ast.FuncDecl][]*Symbol{},
		},
		scopes: []map[string]*Symbol{{}},
	}
	// Pass 1: declare all file-scope names so forward references work.
	for _, g := range f.Globals {
		sym := &Symbol{Name: g.Name, Type: g.Type, Kind: SymGlobal, Storage: g.Storage}
		c.scopes[0][g.Name] = sym
		c.info.Decls[g] = sym
	}
	for _, fn := range f.Funcs {
		if prev, ok := c.scopes[0][fn.Name]; ok && prev.Kind == SymFunc {
			// Prototype followed by definition: prefer the definition's
			// type if it has named parameters.
			if fn.Body != nil {
				prev.Type = fn.Type
			}
			c.info.Funcs[fn] = prev
			continue
		}
		sym := &Symbol{Name: fn.Name, Type: fn.Type, Kind: SymFunc, Storage: fn.Storage}
		c.scopes[0][fn.Name] = sym
		c.info.Funcs[fn] = sym
	}
	// Pass 2: check global initializers, then each function body.
	for _, g := range f.Globals {
		if g.Init != nil {
			if _, err := c.expr(g.Init); err != nil {
				return nil, err
			}
		}
		if g.InitList != nil {
			if err := c.checkInitList(g); err != nil {
				return nil, err
			}
		}
	}
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		if err := c.checkFunc(fn); err != nil {
			return nil, err
		}
	}
	return c.info, nil
}

// CheckWorkers is Check; workers is ignored. It stays only because the
// benchmark's layer harness calls it.
func CheckWorkers(f *ast.File, workers int) (*Info, error) { return Check(f) }

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, sym *Symbol) { c.scopes[len(c.scopes)-1][name] = sym }

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func errf(pos token.Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) checkFunc(fn *ast.FuncDecl) error {
	c.curFunc = fn
	c.labels = map[string]bool{}
	c.gotos = nil
	c.push()
	defer c.pop()
	var params []*Symbol
	for _, p := range fn.Type.Params {
		if p.Name == "" {
			return errf(fn.Pos(), "%s: parameter missing name in definition", fn.Name)
		}
		sym := &Symbol{Name: p.Name, Type: p.Type, Kind: SymParam}
		c.declare(p.Name, sym)
		params = append(params, sym)
	}
	c.info.ParamSyms[fn] = params
	if err := c.stmt(fn.Body); err != nil {
		return err
	}
	for _, g := range c.gotos {
		if !c.labels[g.label] {
			return errf(g.pos, "goto undefined label %q", g.label)
		}
	}
	return nil
}

// --------------------------------------------------------------- statements

func (c *checker) stmt(s ast.Stmt) error {
	switch n := s.(type) {
	case *ast.CompoundStmt:
		c.push()
		defer c.pop()
		for _, sub := range n.List {
			if err := c.stmt(sub); err != nil {
				return err
			}
		}
	case *ast.DeclStmt:
		for _, d := range n.Decls {
			kind := SymLocal
			mangled := ""
			if d.Storage == ast.SCStatic {
				kind = SymStaticLocal
				mangled = c.curFunc.Name + "." + d.Name
			}
			sym := &Symbol{Name: d.Name, Type: d.Type, Kind: kind,
				Storage: d.Storage, MangledName: mangled}
			c.declare(d.Name, sym)
			c.info.Decls[d] = sym
			if d.Init != nil {
				it, err := c.expr(d.Init)
				if err != nil {
					return err
				}
				if !ctype.Compatible(d.Type.Decay(), it.Decay()) {
					return errf(d.Pos(), "cannot initialize %s with %s", d.Type, it)
				}
			}
			if d.InitList != nil {
				if err := c.checkInitList(d); err != nil {
					return err
				}
			}
		}
	case *ast.ExprStmt:
		_, err := c.expr(n.X)
		return err
	case *ast.IfStmt:
		if err := c.scalarCond(n.Cond); err != nil {
			return err
		}
		if err := c.stmt(n.Then); err != nil {
			return err
		}
		if n.Else != nil {
			return c.stmt(n.Else)
		}
	case *ast.WhileStmt:
		if err := c.scalarCond(n.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.stmt(n.Body)
	case *ast.DoWhileStmt:
		c.loopDepth++
		err := c.stmt(n.Body)
		c.loopDepth--
		if err != nil {
			return err
		}
		return c.scalarCond(n.Cond)
	case *ast.ForStmt:
		if n.Init != nil {
			if _, err := c.expr(n.Init); err != nil {
				return err
			}
		}
		if n.Cond != nil {
			if err := c.scalarCond(n.Cond); err != nil {
				return err
			}
		}
		if n.Post != nil {
			if _, err := c.expr(n.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.stmt(n.Body)
	case *ast.ReturnStmt:
		ret := c.curFunc.Type.Ret
		if n.X == nil {
			if ret.Kind != ctype.Void {
				return errf(n.Pos(), "%s: return without value", c.curFunc.Name)
			}
			return nil
		}
		t, err := c.expr(n.X)
		if err != nil {
			return err
		}
		if ret.Kind == ctype.Void {
			return errf(n.Pos(), "%s: return with value in void function", c.curFunc.Name)
		}
		if !ctype.Compatible(ret, t.Decay()) {
			return errf(n.Pos(), "cannot return %s as %s", t, ret)
		}
	case *ast.BreakStmt:
		if c.loopDepth == 0 && c.switchDepth == 0 {
			return errf(n.Pos(), "break outside loop or switch")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			return errf(n.Pos(), "continue outside loop")
		}
	case *ast.GotoStmt:
		c.gotos = append(c.gotos, gotoRef{n.Pos(), n.Label})
	case *ast.LabeledStmt:
		if c.labels[n.Label] {
			return errf(n.Pos(), "duplicate label %q", n.Label)
		}
		c.labels[n.Label] = true
		return c.stmt(n.Stmt)
	case *ast.SwitchStmt:
		t, err := c.expr(n.Tag)
		if err != nil {
			return err
		}
		if !t.IsInteger() {
			return errf(n.Pos(), "switch expression must be integer, have %s", t)
		}
		c.switchDepth++
		defer func() { c.switchDepth-- }()
		return c.stmt(n.Body)
	case *ast.CaseStmt:
		if c.switchDepth == 0 {
			return errf(n.Pos(), "case label outside switch")
		}
		if n.Value != nil {
			if _, err := c.expr(n.Value); err != nil {
				return err
			}
		}
		return c.stmt(n.Stmt)
	case *ast.EmptyStmt, *ast.PragmaStmt:
	default:
		return errf(s.Pos(), "unhandled statement %T", s)
	}
	return nil
}

// checkInitList validates a brace initializer against the declared type's
// flattened scalar cells.
func (c *checker) checkInitList(d *ast.VarDecl) error {
	if !d.Type.IsAggregate() && d.Type.Kind != ctype.Array {
		if len(d.InitList) != 1 {
			return errf(d.Pos(), "scalar %s initialized with %d values", d.Name, len(d.InitList))
		}
	}
	cells := ctype.ScalarCells(d.Type)
	if len(d.InitList) > len(cells) {
		return errf(d.Pos(), "too many initializers for %s (%d > %d)", d.Name, len(d.InitList), len(cells))
	}
	for i, e := range d.InitList {
		et, err := c.expr(e)
		if err != nil {
			return err
		}
		if !ctype.Compatible(cells[i].Type, et.Decay()) {
			return errf(e.Pos(), "initializer %d: cannot use %s as %s", i+1, et, cells[i].Type)
		}
	}
	return nil
}

func (c *checker) scalarCond(e ast.Expr) error {
	t, err := c.expr(e)
	if err != nil {
		return err
	}
	if !t.Decay().IsScalar() {
		return errf(e.Pos(), "condition must be scalar, have %s", t)
	}
	return nil
}

// --------------------------------------------------------------- expressions

type typeSetter interface{ SetType(*ctype.Type) }

func setT(e ast.Expr, t *ctype.Type) *ctype.Type {
	if s, ok := e.(typeSetter); ok {
		s.SetType(t)
	}
	return t
}

func (c *checker) expr(e ast.Expr) (*ctype.Type, error) {
	switch n := e.(type) {
	case *ast.IntConst:
		return setT(e, ctype.IntType), nil
	case *ast.FloatConst:
		if n.Type() != nil {
			return n.Type(), nil
		}
		return setT(e, ctype.DoubleType), nil
	case *ast.StrConst:
		return setT(e, ctype.PointerTo(ctype.CharType)), nil
	case *ast.IdentExpr:
		sym := c.lookup(n.Name)
		if sym == nil {
			return nil, errf(n.Pos(), "undeclared identifier %q", n.Name)
		}
		c.info.Uses[n] = sym
		return setT(e, sym.Type), nil
	case *ast.UnaryExpr:
		return c.unary(n)
	case *ast.BinaryExpr:
		return c.binary(n)
	case *ast.AssignExpr:
		return c.assign(n)
	case *ast.CondExpr:
		if err := c.scalarCond(n.Cond); err != nil {
			return nil, err
		}
		tt, err := c.expr(n.Then)
		if err != nil {
			return nil, err
		}
		et, err := c.expr(n.Else)
		if err != nil {
			return nil, err
		}
		if !ctype.Compatible(tt.Decay(), et.Decay()) {
			return nil, errf(n.Pos(), "?: branches have incompatible types %s and %s", tt, et)
		}
		return setT(e, ctype.Common(tt.Decay(), et.Decay())), nil
	case *ast.CommaExpr:
		if _, err := c.expr(n.L); err != nil {
			return nil, err
		}
		rt, err := c.expr(n.R)
		if err != nil {
			return nil, err
		}
		return setT(e, rt), nil
	case *ast.CallExpr:
		return c.call(n)
	case *ast.IndexExpr:
		xt, err := c.expr(n.X)
		if err != nil {
			return nil, err
		}
		it, err := c.expr(n.Index)
		if err != nil {
			return nil, err
		}
		base := xt.Decay()
		// C allows i[a] as well as a[i].
		if base.Kind != ctype.Pointer && it.Decay().Kind == ctype.Pointer {
			base, it = it.Decay(), base
		}
		if base.Kind != ctype.Pointer {
			return nil, errf(n.Pos(), "subscripted value is not array or pointer (type %s)", xt)
		}
		if !it.IsInteger() {
			return nil, errf(n.Pos(), "array subscript is not an integer (type %s)", it)
		}
		return setT(e, base.Elem), nil
	case *ast.MemberExpr:
		xt, err := c.expr(n.X)
		if err != nil {
			return nil, err
		}
		st := xt
		if n.Arrow {
			if xt.Decay().Kind != ctype.Pointer {
				return nil, errf(n.Pos(), "-> applied to non-pointer %s", xt)
			}
			st = xt.Decay().Elem
		}
		if !st.IsAggregate() {
			return nil, errf(n.Pos(), "member access on non-aggregate %s", st)
		}
		f := st.Field(n.Name)
		if f == nil {
			return nil, errf(n.Pos(), "no field %q in %s", n.Name, st)
		}
		return setT(e, f.Type), nil
	case *ast.CastExpr:
		if _, err := c.expr(n.X); err != nil {
			return nil, err
		}
		return setT(e, n.To), nil
	case *ast.SizeofExpr:
		if n.X != nil {
			if _, err := c.expr(n.X); err != nil {
				return nil, err
			}
		}
		return setT(e, ctype.IntType), nil
	}
	return nil, errf(e.Pos(), "unhandled expression %T", e)
}

func (c *checker) unary(n *ast.UnaryExpr) (*ctype.Type, error) {
	xt, err := c.expr(n.X)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case ast.Neg, ast.BitNot:
		if !xt.IsArith() {
			return nil, errf(n.Pos(), "unary %s on non-arithmetic %s", n.Op, xt)
		}
		if n.Op == ast.BitNot && !xt.IsInteger() {
			return nil, errf(n.Pos(), "~ on non-integer %s", xt)
		}
		return setT(n, promote(xt)), nil
	case ast.Not:
		if !xt.Decay().IsScalar() {
			return nil, errf(n.Pos(), "! on non-scalar %s", xt)
		}
		return setT(n, ctype.IntType), nil
	case ast.Deref:
		d := xt.Decay()
		if d.Kind != ctype.Pointer {
			return nil, errf(n.Pos(), "* applied to non-pointer %s", xt)
		}
		return setT(n, d.Elem), nil
	case ast.Addr:
		if !c.isLValue(n.X) {
			return nil, errf(n.Pos(), "& requires an lvalue")
		}
		c.markAddrTaken(n.X)
		return setT(n, ctype.PointerTo(xt)), nil
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		if !c.isLValue(n.X) {
			return nil, errf(n.Pos(), "%s requires an lvalue", n.Op)
		}
		d := xt.Decay()
		if !d.IsArith() && d.Kind != ctype.Pointer {
			return nil, errf(n.Pos(), "%s on %s", n.Op, xt)
		}
		return setT(n, d), nil
	}
	return nil, errf(n.Pos(), "unhandled unary op %v", n.Op)
}

func promote(t *ctype.Type) *ctype.Type {
	switch t.Kind {
	case ctype.Char, ctype.Short, ctype.Enum:
		return ctype.IntType
	}
	return t
}

func (c *checker) binary(n *ast.BinaryExpr) (*ctype.Type, error) {
	lt, err := c.expr(n.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.expr(n.R)
	if err != nil {
		return nil, err
	}
	ld, rd := lt.Decay(), rt.Decay()
	switch n.Op {
	case ast.LogAnd, ast.LogOr:
		if !ld.IsScalar() || !rd.IsScalar() {
			return nil, errf(n.Pos(), "%s on non-scalar operands (%s, %s)", n.Op, lt, rt)
		}
		return setT(n, ctype.IntType), nil
	case ast.Eq, ast.Ne, ast.Lt, ast.Gt, ast.Le, ast.Ge:
		if !ld.IsScalar() || !rd.IsScalar() {
			return nil, errf(n.Pos(), "%s on non-scalar operands (%s, %s)", n.Op, lt, rt)
		}
		return setT(n, ctype.IntType), nil
	case ast.Add:
		if ld.Kind == ctype.Pointer && rd.IsInteger() {
			return setT(n, ld), nil
		}
		if rd.Kind == ctype.Pointer && ld.IsInteger() {
			return setT(n, rd), nil
		}
		if ld.IsArith() && rd.IsArith() {
			return setT(n, ctype.Common(ld, rd)), nil
		}
		return nil, errf(n.Pos(), "invalid operands to + (%s, %s)", lt, rt)
	case ast.Sub:
		if ld.Kind == ctype.Pointer && rd.Kind == ctype.Pointer {
			return setT(n, ctype.IntType), nil // ptrdiff
		}
		if ld.Kind == ctype.Pointer && rd.IsInteger() {
			return setT(n, ld), nil
		}
		if ld.IsArith() && rd.IsArith() {
			return setT(n, ctype.Common(ld, rd)), nil
		}
		return nil, errf(n.Pos(), "invalid operands to - (%s, %s)", lt, rt)
	case ast.Mul, ast.Div:
		if !ld.IsArith() || !rd.IsArith() {
			return nil, errf(n.Pos(), "invalid operands to %s (%s, %s)", n.Op, lt, rt)
		}
		return setT(n, ctype.Common(ld, rd)), nil
	case ast.Rem, ast.And, ast.Or, ast.Xor, ast.Shl, ast.Shr:
		if !ld.IsInteger() || !rd.IsInteger() {
			return nil, errf(n.Pos(), "invalid operands to %s (%s, %s)", n.Op, lt, rt)
		}
		return setT(n, ctype.Common(ld, rd)), nil
	}
	return nil, errf(n.Pos(), "unhandled binary op %v", n.Op)
}

func (c *checker) assign(n *ast.AssignExpr) (*ctype.Type, error) {
	lt, err := c.expr(n.L)
	if err != nil {
		return nil, err
	}
	if !c.isLValue(n.L) {
		return nil, errf(n.Pos(), "assignment to non-lvalue")
	}
	if lt.Const {
		return nil, errf(n.Pos(), "assignment to const-qualified %s", lt)
	}
	if lt.Kind == ctype.Array {
		return nil, errf(n.Pos(), "assignment to array")
	}
	rt, err := c.expr(n.R)
	if err != nil {
		return nil, err
	}
	if n.Op != nil {
		// Compound assignment obeys the binary operator's constraints.
		fake := &ast.BinaryExpr{Op: *n.Op, L: n.L, R: n.R}
		if _, err := c.binary(fake); err != nil {
			return nil, err
		}
	} else if !ctype.Compatible(lt, rt.Decay()) {
		return nil, errf(n.Pos(), "cannot assign %s to %s", rt, lt)
	}
	return setT(n, lt), nil
}

func (c *checker) call(n *ast.CallExpr) (*ctype.Type, error) {
	// Calls to undeclared functions default to int(), K&R style.
	if id, ok := n.Fun.(*ast.IdentExpr); ok && c.lookup(id.Name) == nil {
		sym := &Symbol{Name: id.Name, Kind: SymFunc,
			Type: &ctype.Type{Kind: ctype.Func, Ret: ctype.IntType, OldStyle: true}}
		c.scopes[0][id.Name] = sym
		c.info.Uses[id] = sym
		setT(id, sym.Type)
	}
	ft, err := c.expr(n.Fun)
	if err != nil {
		return nil, err
	}
	f := ft
	if f.Kind == ctype.Pointer {
		f = f.Elem
	}
	if f.Kind != ctype.Func {
		return nil, errf(n.Pos(), "called object is not a function (type %s)", ft)
	}
	if !f.OldStyle && !f.Variadic && len(n.Args) != len(f.Params) {
		return nil, errf(n.Pos(), "call has %d arguments, function takes %d", len(n.Args), len(f.Params))
	}
	for i, a := range n.Args {
		at, err := c.expr(a)
		if err != nil {
			return nil, err
		}
		if !f.OldStyle && i < len(f.Params) {
			if !ctype.Compatible(f.Params[i].Type, at.Decay()) {
				return nil, errf(a.Pos(), "argument %d: cannot pass %s as %s", i+1, at, f.Params[i].Type)
			}
		}
	}
	return setT(n, f.Ret), nil
}

// isLValue reports whether e designates an object.
func (c *checker) isLValue(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.IdentExpr:
		sym := c.info.Uses[n]
		return sym != nil && sym.Kind != SymFunc
	case *ast.UnaryExpr:
		return n.Op == ast.Deref
	case *ast.IndexExpr:
		return true
	case *ast.MemberExpr:
		return true
	}
	return false
}

// markAddrTaken records that &e roots at a named symbol. Subscripting a
// pointer (&p[1]) reads the pointer's value rather than exposing the
// pointer variable's own address, so only array bases propagate the mark.
func (c *checker) markAddrTaken(e ast.Expr) {
	switch n := e.(type) {
	case *ast.IdentExpr:
		if sym := c.info.Uses[n]; sym != nil {
			sym.AddrTaken = true
		}
	case *ast.IndexExpr:
		if n.X.Type() != nil && n.X.Type().Kind == ctype.Array {
			c.markAddrTaken(n.X)
		}
	case *ast.MemberExpr:
		if !n.Arrow {
			c.markAddrTaken(n.X)
		}
	}
}

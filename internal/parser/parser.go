// Package parser implements a recursive-descent parser for the C subset
// accepted by the Titan C compiler.
//
// Supported surface: all C89 statements (if/while/do/for/switch/goto/
// labels/break/continue/return), full expression grammar with C precedence
// including ?:, && and ||, comma, ++/-- and compound assignment; declarators
// with pointers, arrays, function parameters (prototype and old-style empty
// lists) and parenthesized declarators (function pointers); struct, union
// and enum definitions; typedef; const/volatile qualifiers; #pragma lines.
package parser

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/ctype"
	"repro/internal/token"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token.Token
	pos  int

	// typedef names in scope; stack of scopes for shadowing.
	typedefs []map[string]*ctype.Type
	// struct/union tags in scope (single flat table is enough for our subset).
	tags map[string]*ctype.Type
	// enum constants.
	enums map[string]int64

	// defCount counts every write to the shared typedef/tag/enum tables;
	// the deferred-body skim (parallel.go) snapshots it per function body
	// to prove each body sees the same table state it would see serially.
	defCount int
	// skim, when non-nil, makes parseFile record function bodies for
	// deferred parallel parsing instead of parsing them inline.
	skim *skimState
	// depth is how many levels of nesting enclose the current token (see
	// maxNesting). A function body starts at 0, parsed inline or deferred.
	depth int
}

// maxNesting bounds the nesting of statements, operands, declarators and
// initializer braces. Each level is a few frames of this recursive
// descent and of every later walk of the tree, so without a bound a
// deep enough input overflows the host stack, which no recover catches.
// C99 asks a compiler for 127 levels of blocks and 63 of parentheses.
const maxNesting = 256

// enter opens one more level of nesting at the current token, failing
// there when it would be one past maxNesting; the caller leaves it with
// leave.
func (p *parser) enter() error {
	if p.depth == maxNesting {
		return p.tooDeep()
	}
	p.depth++
	return nil
}

// tooDeep is enter's error, out of line so that enter inlines.
func (p *parser) tooDeep() error {
	return p.errorf("nesting deeper than %d levels", maxNesting)
}

func (p *parser) leave() { p.depth-- }

// newParser returns a parser over a pre-lexed token stream.
func newParser(toks []token.Token) *parser {
	return &parser{
		toks:     toks,
		typedefs: []map[string]*ctype.Type{{}},
		tags:     map[string]*ctype.Type{},
		enums:    map[string]int64{},
	}
}

// Parse parses a complete translation unit.
func Parse(src string) (*ast.File, error) { return ParseWorkers(src, 1) }

func (p *parser) peek() token.Token { return p.toks[p.pos] }
func (p *parser) peekN(n int) token.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.peek().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %s, found %s", k, p.peek())
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// --------------------------------------------------------------- scopes

func (p *parser) pushScope() { p.typedefs = append(p.typedefs, map[string]*ctype.Type{}) }
func (p *parser) popScope()  { p.typedefs = p.typedefs[:len(p.typedefs)-1] }

func (p *parser) lookupTypedef(name string) *ctype.Type {
	for i := len(p.typedefs) - 1; i >= 0; i-- {
		if t, ok := p.typedefs[i][name]; ok {
			return t
		}
	}
	return nil
}

func (p *parser) defineTypedef(name string, t *ctype.Type) {
	p.defCount++
	p.typedefs[len(p.typedefs)-1][name] = t
}

// isTypeName reports whether the current token begins a type, considering
// typedef names.
func (p *parser) isTypeName(t token.Token) bool {
	if t.Kind.IsTypeStart() {
		return true
	}
	return t.Kind == token.Ident && p.lookupTypedef(t.Text) != nil
}

// --------------------------------------------------------------- file

func (p *parser) parseFile() (*ast.File, error) {
	f := &ast.File{}
	for !p.at(token.EOF) {
		if p.at(token.Pragma) {
			// File-scope pragmas are ignored (loop pragmas are handled in
			// statement position).
			p.next()
			continue
		}
		if p.accept(token.Semi) {
			continue
		}
		base, storage, err := p.parseDeclSpecs()
		if err != nil {
			return nil, err
		}
		// Bare "struct s { ... };" defines a tag with no declarator.
		if p.accept(token.Semi) {
			continue
		}
		name, typ, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if storage == ast.SCTypedef {
			p.defineTypedef(name, typ)
			if _, err := p.expect(token.Semi); err != nil {
				return nil, err
			}
			continue
		}
		if typ.Kind == ctype.Func && p.at(token.LBrace) {
			if p.skim != nil {
				// Deferred-body mode: skip the balanced body now, record
				// where it starts, and parse it on the worker pool later.
				start := p.pos
				if err := p.skipBody(); err != nil {
					return nil, err
				}
				fd := &ast.FuncDecl{P: p.peek().Pos, Name: name, Type: typ, Storage: storage}
				p.skim.bodies = append(p.skim.bodies, deferredBody{fd: fd, start: start, snap: p.defCount})
				f.Funcs = append(f.Funcs, fd)
				f.Order = append(f.Order, fd)
				continue
			}
			body, err := p.parseCompound()
			if err != nil {
				return nil, err
			}
			fd := &ast.FuncDecl{P: p.peek().Pos, Name: name, Type: typ, Storage: storage, Body: body}
			f.Funcs = append(f.Funcs, fd)
			f.Order = append(f.Order, fd)
			continue
		}
		// Prototype or global variable(s).
		for {
			if typ.Kind == ctype.Func {
				fd := &ast.FuncDecl{P: p.peek().Pos, Name: name, Type: typ, Storage: storage}
				f.Funcs = append(f.Funcs, fd)
				f.Order = append(f.Order, fd)
			} else {
				vd := &ast.VarDecl{P: p.peek().Pos, Name: name, Type: typ, Storage: storage}
				if p.accept(token.Assign) {
					if err := p.parseInitializer(vd); err != nil {
						return nil, err
					}
				}
				f.Globals = append(f.Globals, vd)
				f.Order = append(f.Order, vd)
			}
			if !p.accept(token.Comma) {
				break
			}
			name, typ, err = p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// --------------------------------------------------------------- decl specs

// parseDeclSpecs parses storage class + type specifiers + qualifiers.
func (p *parser) parseDeclSpecs() (*ctype.Type, ast.StorageClass, error) {
	storage := ast.SCNone
	var (
		base                *ctype.Type
		sawVoid, sawChar    bool
		sawFloat, sawDouble bool
		sawInt              bool
		shorts, longs       int
		unsigned, signed    bool
		volat, cnst         bool
		any                 bool
	)
	for {
		t := p.peek()
		switch t.Kind {
		case token.KwStatic:
			storage = ast.SCStatic
		case token.KwExtern:
			storage = ast.SCExtern
		case token.KwRegister:
			storage = ast.SCRegister
		case token.KwAuto:
			storage = ast.SCAuto
		case token.KwTypedef:
			storage = ast.SCTypedef
		case token.KwVolatile:
			volat = true
		case token.KwConst:
			cnst = true
		case token.KwVoid:
			sawVoid = true
		case token.KwChar:
			sawChar = true
		case token.KwShort:
			shorts++
		case token.KwInt:
			sawInt = true
		case token.KwLong:
			longs++
		case token.KwFloat:
			sawFloat = true
		case token.KwDouble:
			sawDouble = true
		case token.KwUnsigned:
			unsigned = true
		case token.KwSigned:
			signed = true
		case token.KwStruct, token.KwUnion:
			st, err := p.parseStructOrUnion()
			if err != nil {
				return nil, storage, err
			}
			base = st
			any = true
			continue
		case token.KwEnum:
			et, err := p.parseEnum()
			if err != nil {
				return nil, storage, err
			}
			base = et
			any = true
			continue
		case token.Ident:
			if base == nil && !sawVoid && !sawChar && !sawFloat && !sawDouble &&
				!sawInt && shorts == 0 && longs == 0 && !unsigned && !signed {
				if td := p.lookupTypedef(t.Text); td != nil {
					base = td
					p.next()
					any = true
					continue
				}
			}
			goto done
		default:
			goto done
		}
		p.next()
		any = true
	}
done:
	if !any {
		return nil, storage, p.errorf("expected declaration specifiers, found %s", p.peek())
	}
	if base == nil {
		switch {
		case sawVoid:
			base = ctype.VoidType
		case sawChar:
			if unsigned {
				base = ctype.UCharType
			} else {
				base = ctype.CharType
			}
		case sawFloat:
			base = ctype.FloatType
		case sawDouble:
			base = ctype.DoubleType
		case shorts > 0:
			base = ctype.ShortType
		case longs > 0:
			base = ctype.LongType
		default:
			if unsigned {
				base = ctype.UIntType
			} else {
				base = ctype.IntType
			}
		}
		_ = sawInt
		_ = signed
	}
	base = ctype.Qualified(base, volat, cnst)
	return base, storage, nil
}

func (p *parser) parseStructOrUnion() (*ctype.Type, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	isUnion := p.peek().Kind == token.KwUnion
	p.next()
	tag := ""
	if p.at(token.Ident) {
		tag = p.next().Text
	}
	if !p.at(token.LBrace) {
		if tag == "" {
			return nil, p.errorf("anonymous struct/union requires a body")
		}
		if t, ok := p.tags[tag]; ok {
			return t, nil
		}
		// Forward reference: create an incomplete type; fields may be
		// filled in later by a definition with the same tag.
		t := &ctype.Type{Kind: ctype.Struct, Tag: tag}
		if isUnion {
			t.Kind = ctype.Union
		}
		p.defCount++
		p.tags[tag] = t
		return t, nil
	}
	p.next() // {
	var fields []ctype.Field
	for !p.at(token.RBrace) {
		base, _, err := p.parseDeclSpecs()
		if err != nil {
			return nil, err
		}
		for {
			name, typ, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			fields = append(fields, ctype.Field{Name: name, Type: typ})
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
	}
	p.next() // }
	var t *ctype.Type
	if isUnion {
		t = ctype.UnionOf(tag, fields)
	} else {
		t = ctype.StructOf(tag, fields)
	}
	if tag != "" {
		if prev, ok := p.tags[tag]; ok && len(prev.Fields) == 0 {
			// Complete a forward declaration in place so earlier pointer
			// types see the fields.
			*prev = *t
			t = prev
		}
		p.defCount++
		p.tags[tag] = t
	}
	return t, nil
}

func (p *parser) parseEnum() (*ctype.Type, error) {
	p.next() // enum
	tag := ""
	if p.at(token.Ident) {
		tag = p.next().Text
	}
	t := &ctype.Type{Kind: ctype.Enum, Tag: tag}
	if !p.at(token.LBrace) {
		return t, nil
	}
	p.next()
	val := int64(0)
	for !p.at(token.RBrace) {
		nameTok, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if p.accept(token.Assign) {
			e, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			v, ok := constFold(e)
			if !ok {
				return nil, p.errorf("enum value must be a constant expression")
			}
			val = v
		}
		p.defCount++
		p.enums[nameTok.Text] = val
		val++
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return t, nil
}

// --------------------------------------------------------------- declarators

// parseDeclarator parses pointer/array/function declarator syntax around a
// base type, returning the declared name (possibly empty for abstract
// declarators) and the full type.
func (p *parser) parseDeclarator(base *ctype.Type) (string, *ctype.Type, error) {
	if err := p.enter(); err != nil {
		return "", nil, err
	}
	defer p.leave()
	// Pointers bind first.
	for p.accept(token.Star) {
		base = ctype.PointerTo(base)
		for p.at(token.KwConst) || p.at(token.KwVolatile) {
			q := p.next()
			base = ctype.Qualified(base, q.Kind == token.KwVolatile, q.Kind == token.KwConst)
		}
	}
	// Direct declarator: name, or parenthesized declarator.
	var name string
	var inner func(*ctype.Type) *ctype.Type // applied to the suffix-completed type
	switch {
	case p.at(token.Ident):
		name = p.next().Text
	case p.at(token.LParen) && (p.peekN(1).Kind == token.Star || p.peekN(1).Kind == token.LParen ||
		(p.peekN(1).Kind == token.Ident && p.lookupTypedef(p.peekN(1).Text) == nil)):
		// Parenthesized declarator, e.g. (*fp)(int). We parse it with a
		// placeholder and compose afterwards.
		p.next()
		n, placeholder, err := p.parseDeclarator(markerType)
		if err != nil {
			return "", nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return "", nil, err
		}
		name = n
		inner = func(outer *ctype.Type) *ctype.Type { return substMarker(placeholder, outer) }
	}
	// Suffixes: arrays and function parameter lists.
	typ, err := p.parseDeclSuffix(base)
	if err != nil {
		return "", nil, err
	}
	if inner != nil {
		typ = inner(typ)
	}
	return name, typ, nil
}

// markerType is a unique placeholder spliced by parenthesized declarators.
var markerType = &ctype.Type{Kind: ctype.Void, Tag: "\x00marker"}

// substMarker returns a copy of t with markerType replaced by repl.
func substMarker(t, repl *ctype.Type) *ctype.Type {
	if t == markerType {
		return repl
	}
	c := *t
	if t.Elem != nil {
		c.Elem = substMarker(t.Elem, repl)
	}
	if t.Ret != nil {
		c.Ret = substMarker(t.Ret, repl)
	}
	return &c
}

func (p *parser) parseDeclSuffix(base *ctype.Type) (*ctype.Type, error) {
	switch {
	case p.at(token.LBracket):
		p.next()
		n := -1
		if !p.at(token.RBracket) {
			e, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			v, ok := constFold(e)
			if !ok {
				return nil, p.errorf("array size must be a constant expression")
			}
			n = int(v)
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		elem, err := p.parseDeclSuffix(base)
		if err != nil {
			return nil, err
		}
		return ctype.ArrayOf(elem, n), nil
	case p.at(token.LParen):
		p.next()
		var params []ctype.Param
		variadic := false
		oldStyle := false
		if p.at(token.RParen) {
			oldStyle = true
		} else if p.at(token.KwVoid) && p.peekN(1).Kind == token.RParen {
			p.next()
		} else {
			for {
				if p.accept(token.Ellipsis) {
					variadic = true
					break
				}
				pbase, _, err := p.parseDeclSpecs()
				if err != nil {
					return nil, err
				}
				pname, ptyp, err := p.parseDeclarator(pbase)
				if err != nil {
					return nil, err
				}
				// Parameter arrays decay to pointers.
				if ptyp.Kind == ctype.Array {
					ptyp = ctype.PointerTo(ptyp.Elem)
				}
				if ptyp.Kind == ctype.Func {
					ptyp = ctype.PointerTo(ptyp)
				}
				params = append(params, ctype.Param{Name: pname, Type: ptyp})
				if !p.accept(token.Comma) {
					break
				}
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		ft := ctype.FuncOf(base, params, variadic)
		ft.OldStyle = oldStyle
		return ft, nil
	}
	return base, nil
}

// parseInitializer parses "= expr" or "= { ... }" into the declaration.
// Brace lists are flattened in layout order; nested braces contribute
// their elements in sequence.
func (p *parser) parseInitializer(vd *ast.VarDecl) error {
	if !p.at(token.LBrace) {
		e, err := p.parseAssignExpr()
		if err != nil {
			return err
		}
		vd.Init = e
		return nil
	}
	var flatten func() error
	flatten = func() error {
		if err := p.enter(); err != nil {
			return err
		}
		defer p.leave()
		if _, err := p.expect(token.LBrace); err != nil {
			return err
		}
		for !p.at(token.RBrace) {
			if p.at(token.LBrace) {
				if err := flatten(); err != nil {
					return err
				}
			} else {
				e, err := p.parseAssignExpr()
				if err != nil {
					return err
				}
				vd.InitList = append(vd.InitList, e)
			}
			if !p.accept(token.Comma) {
				break
			}
		}
		_, err := p.expect(token.RBrace)
		return err
	}
	return flatten()
}

// parseTypeName parses a type-name (for casts and sizeof).
func (p *parser) parseTypeName() (*ctype.Type, error) {
	base, _, err := p.parseDeclSpecs()
	if err != nil {
		return nil, err
	}
	_, typ, err := p.parseDeclarator(base)
	return typ, err
}

// --------------------------------------------------------------- statements

func (p *parser) parseCompound() (*ast.CompoundStmt, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	cs := &ast.CompoundStmt{}
	cs.P = lb.Pos
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errorf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		cs.List = append(cs.List, s)
	}
	p.next() // }
	return cs, nil
}

// parseStmt parses a statement one level of nesting deeper. The level is
// counted here rather than deferred in stmt, whose many returns would
// make the defer a slow one.
func (p *parser) parseStmt() (ast.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	s, err := p.stmt()
	p.leave()
	return s, err
}

func (p *parser) stmt() (ast.Stmt, error) {
	t := p.peek()
	switch t.Kind {
	case token.Pragma:
		p.next()
		s := &ast.PragmaStmt{Text: t.Text}
		s.P = t.Pos
		return s, nil
	case token.LBrace:
		return p.parseCompound()
	case token.Semi:
		p.next()
		s := &ast.EmptyStmt{}
		s.P = t.Pos
		return s, nil
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwCase, token.KwDefault:
		return p.parseCase()
	case token.KwReturn:
		p.next()
		s := &ast.ReturnStmt{}
		s.P = t.Pos
		if !p.at(token.Semi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.X = e
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return s, nil
	case token.KwBreak:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &ast.BreakStmt{}
		s.P = t.Pos
		return s, nil
	case token.KwContinue:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &ast.ContinueStmt{}
		s.P = t.Pos
		return s, nil
	case token.KwGoto:
		p.next()
		lbl, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &ast.GotoStmt{Label: lbl.Text}
		s.P = t.Pos
		return s, nil
	case token.Ident:
		// Label?
		if p.peekN(1).Kind == token.Colon {
			name := p.next().Text
			p.next() // :
			inner, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			s := &ast.LabeledStmt{Label: name, Stmt: inner}
			s.P = t.Pos
			return s, nil
		}
	}
	if p.isTypeName(t) {
		return p.parseDeclStmt()
	}
	// Expression statement.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	s := &ast.ExprStmt{X: e}
	s.P = t.Pos
	return s, nil
}

func (p *parser) parseDeclStmt() (ast.Stmt, error) {
	pos := p.peek().Pos
	base, storage, err := p.parseDeclSpecs()
	if err != nil {
		return nil, err
	}
	ds := &ast.DeclStmt{}
	ds.P = pos
	if p.accept(token.Semi) {
		return ds, nil // bare struct definition in block scope
	}
	for {
		name, typ, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if storage == ast.SCTypedef {
			p.defineTypedef(name, typ)
		} else {
			vd := &ast.VarDecl{P: pos, Name: name, Type: typ, Storage: storage}
			if p.accept(token.Assign) {
				if err := p.parseInitializer(vd); err != nil {
					return nil, err
				}
			}
			ds.Decls = append(ds.Decls, vd)
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &ast.IfStmt{Cond: cond, Then: then}
	s.P = pos
	if p.accept(token.KwElse) {
		e, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = e
	}
	return s, nil
}

func (p *parser) parseWhile() (ast.Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &ast.WhileStmt{Cond: cond, Body: body}
	s.P = pos
	return s, nil
}

func (p *parser) parseDoWhile() (ast.Stmt, error) {
	pos := p.next().Pos
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	s := &ast.DoWhileStmt{Body: body, Cond: cond}
	s.P = pos
	return s, nil
}

func (p *parser) parseFor() (ast.Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	s := &ast.ForStmt{}
	s.P = pos
	if !p.at(token.Semi) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Init = e
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	if !p.at(token.Semi) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = e
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	if !p.at(token.RParen) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Post = e
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

func (p *parser) parseSwitch() (ast.Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &ast.SwitchStmt{Tag: tag, Body: body}
	s.P = pos
	return s, nil
}

func (p *parser) parseCase() (ast.Stmt, error) {
	t := p.next()
	s := &ast.CaseStmt{}
	s.P = t.Pos
	if t.Kind == token.KwCase {
		e, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		s.Value = e
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	inner, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Stmt = inner
	return s, nil
}

// --------------------------------------------------------------- expressions

func (p *parser) parseExpr() (ast.Expr, error) {
	l, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.Comma) {
		pos := p.next().Pos
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		c := &ast.CommaExpr{L: l, R: r}
		setPos(c, pos)
		l = c
	}
	return l, nil
}

var compoundOps = map[token.Kind]ast.BinOp{
	token.PlusAssign: ast.Add, token.MinusAssign: ast.Sub,
	token.StarAssign: ast.Mul, token.SlashAssign: ast.Div,
	token.PercentAssign: ast.Rem, token.AmpAssign: ast.And,
	token.PipeAssign: ast.Or, token.CaretAssign: ast.Xor,
	token.ShlAssign: ast.Shl, token.ShrAssign: ast.Shr,
}

func (p *parser) parseAssignExpr() (ast.Expr, error) {
	l, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	k := p.peek().Kind
	if !k.IsAssignOp() {
		return l, nil
	}
	pos := p.next().Pos
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	r, err := p.parseAssignExpr() // right-associative
	if err != nil {
		return nil, err
	}
	a := &ast.AssignExpr{L: l, R: r}
	if k != token.Assign {
		op := compoundOps[k]
		a.Op = &op
	}
	setPos(a, pos)
	return a, nil
}

func (p *parser) parseCondExpr() (ast.Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.at(token.Question) {
		return cond, nil
	}
	pos := p.next().Pos
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	els, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	c := &ast.CondExpr{Cond: cond, Then: then, Else: els}
	setPos(c, pos)
	return c, nil
}

// binary operator precedence climbing; level 0 is lowest (||).
var binLevels = []map[token.Kind]ast.BinOp{
	{token.OrOr: ast.LogOr},
	{token.AndAnd: ast.LogAnd},
	{token.Pipe: ast.Or},
	{token.Caret: ast.Xor},
	{token.Amp: ast.And},
	{token.Eq: ast.Eq, token.Ne: ast.Ne},
	{token.Lt: ast.Lt, token.Gt: ast.Gt, token.Le: ast.Le, token.Ge: ast.Ge},
	{token.Shl: ast.Shl, token.Shr: ast.Shr},
	{token.Plus: ast.Add, token.Minus: ast.Sub},
	{token.Star: ast.Mul, token.Slash: ast.Div, token.Percent: ast.Rem},
}

func (p *parser) parseBinary(level int) (ast.Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := binLevels[level][p.peek().Kind]
		if !ok {
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		b := &ast.BinaryExpr{Op: op, L: l, R: r}
		setPos(b, pos)
		l = b
	}
}

// parseUnary parses an operand one level of nesting deeper, counted as
// parseStmt counts a statement.
func (p *parser) parseUnary() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	x, err := p.unary()
	p.leave()
	return x, err
}

func (p *parser) unary() (ast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case token.Plus:
		p.next()
		return p.parseUnary() // unary plus is identity
	case token.Minus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.Neg, x), nil
	case token.Not:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.Not, x), nil
	case token.Tilde:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.BitNot, x), nil
	case token.Star:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.Deref, x), nil
	case token.Amp:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.Addr, x), nil
	case token.Inc:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.PreInc, x), nil
	case token.Dec:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return newUnary(t.Pos, ast.PreDec, x), nil
	case token.KwSizeof:
		p.next()
		if p.at(token.LParen) && p.isTypeName(p.peekN(1)) {
			p.next()
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			s := &ast.SizeofExpr{OfType: typ}
			setPos(s, t.Pos)
			return s, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		s := &ast.SizeofExpr{X: x}
		setPos(s, t.Pos)
		return s, nil
	case token.LParen:
		// Cast?
		if p.isTypeName(p.peekN(1)) {
			p.next()
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			c := &ast.CastExpr{To: typ, X: x}
			setPos(c, t.Pos)
			return c, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (ast.Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.Kind {
		case token.LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			ix := &ast.IndexExpr{X: x, Index: idx}
			setPos(ix, t.Pos)
			x = ix
		case token.LParen:
			p.next()
			var args []ast.Expr
			if !p.at(token.RParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			c := &ast.CallExpr{Fun: x, Args: args}
			setPos(c, t.Pos)
			x = c
		case token.Dot, token.Arrow:
			p.next()
			name, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			m := &ast.MemberExpr{X: x, Name: name.Text, Arrow: t.Kind == token.Arrow}
			setPos(m, t.Pos)
			x = m
		case token.Inc:
			p.next()
			x = newUnary(t.Pos, ast.PostInc, x)
		case token.Dec:
			p.next()
			x = newUnary(t.Pos, ast.PostDec, x)
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case token.IntLit, token.CharLit:
		p.next()
		return ast.NewIntConst(t.Pos, t.IntVal), nil
	case token.FloatLit:
		p.next()
		fc := ast.NewFloatConst(t.Pos, t.FloatVal)
		if strings.ContainsAny(t.Text, "fF") {
			fc.SetType(ctype.FloatType)
		}
		return fc, nil
	case token.StringLit:
		p.next()
		s := &ast.StrConst{Value: t.Text}
		setPos(s, t.Pos)
		return s, nil
	case token.Ident:
		p.next()
		if v, ok := p.enums[t.Text]; ok {
			return ast.NewIntConst(t.Pos, v), nil
		}
		return ast.NewIdent(t.Pos, t.Text), nil
	case token.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errorf("expected expression, found %s", t)
}

func newUnary(pos token.Pos, op ast.UnaryOp, x ast.Expr) *ast.UnaryExpr {
	u := &ast.UnaryExpr{Op: op, X: x}
	setPos(u, pos)
	return u
}

// setPos stores the position via the embedded exprBase, which every
// expression node provides through SetPosition.
func setPos(e ast.Expr, pos token.Pos) {
	if s, ok := e.(interface{ SetPosition(token.Pos) }); ok {
		s.SetPosition(pos)
	}
}

// constFold evaluates integer constant expressions at parse time (array
// sizes and enum values). It handles the arithmetic and bitwise operators
// over IntConst leaves plus sizeof(type).
func constFold(e ast.Expr) (int64, bool) {
	switch n := e.(type) {
	case *ast.IntConst:
		return n.Value, true
	case *ast.SizeofExpr:
		if n.OfType != nil {
			return int64(n.OfType.Size()), true
		}
	case *ast.UnaryExpr:
		v, ok := constFold(n.X)
		if !ok {
			return 0, false
		}
		switch n.Op {
		case ast.Neg:
			return -v, true
		case ast.BitNot:
			return ^v, true
		case ast.Not:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *ast.BinaryExpr:
		l, ok1 := constFold(n.L)
		r, ok2 := constFold(n.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		switch n.Op {
		case ast.Add:
			return l + r, true
		case ast.Sub:
			return l - r, true
		case ast.Mul:
			return l * r, true
		case ast.Div:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case ast.Rem:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case ast.And:
			return l & r, true
		case ast.Or:
			return l | r, true
		case ast.Xor:
			return l ^ r, true
		case ast.Shl:
			return l << uint(r), true
		case ast.Shr:
			return l >> uint(r), true
		case ast.Eq:
			return b2i(l == r), true
		case ast.Ne:
			return b2i(l != r), true
		case ast.Lt:
			return b2i(l < r), true
		case ast.Gt:
			return b2i(l > r), true
		case ast.Le:
			return b2i(l <= r), true
		case ast.Ge:
			return b2i(l >= r), true
		}
	}
	return 0, false
}

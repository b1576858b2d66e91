package inline

// This file implements procedure catalogs: the paper's databases of parsed
// procedures (§7). "In order to inline functions from other files, the
// intermediate representation for functions must be saved in an easily
// accessible form. To permit this, we eliminated all hard pointers from
// the IL." Our IL references variables by index and globals/callees by
// name, so serialization needs only a type table (types form graphs —
// self-referential structs — and are flattened to indices here).
//
// The format is a simple tagged binary encoding (varints via
// encoding/binary) with a magic header and version byte. It covers the
// front end's IL and nothing else: a catalog is written from lowered
// source, before any pass has run.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/token"
)

// Catalog is a set of procedures plus the globals they reference
// (including exported function statics).
type Catalog struct {
	Procs   []*il.Proc
	Globals []il.GlobalVar
}

const (
	catalogMagic = "TITANCAT"
	// catalogVersion 2 added per-statement source positions (line, col)
	// ahead of each statement tag, so diagnostics on inlined bodies can
	// point at the callee's source. Version-1 catalogs still read; their
	// statements decode with zero positions and inherit the call site at
	// expansion time.
	catalogVersion    = 2
	catalogMinVersion = 1
)

// BuildCatalog packages a program's procedures and globals for archiving.
func BuildCatalog(prog *il.Program) *Catalog {
	return &Catalog{Procs: prog.Procs, Globals: prog.Globals}
}

// WriteCatalog serializes a catalog.
func WriteCatalog(w io.Writer, c *Catalog) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(catalogMagic); err != nil {
		return err
	}
	enc := &encoder{w: bw, typeIdx: map[*ctype.Type]int{}}
	enc.u64(catalogVersion)

	// Pass 1: collect every type reachable from procs and globals so the
	// table is complete before any body encodes.
	for _, g := range c.Globals {
		enc.typeID(g.Type)
	}
	for _, p := range c.Procs {
		enc.typeID(p.Ret)
		for i := range p.Vars {
			enc.typeID(p.Vars[i].Type)
		}
		il.WalkStmts(p.Body, func(s il.Stmt) bool {
			il.StmtExprs(s, func(e il.Expr) {
				il.WalkExpr(e, func(x il.Expr) bool {
					if t := x.Type(); t != nil {
						enc.typeID(t)
					}
					return true
				})
			})
			return true
		})
	}
	enc.writeTypeTable()

	enc.u64(uint64(len(c.Globals)))
	for _, g := range c.Globals {
		enc.str(g.Name)
		enc.u64(uint64(enc.typeID(g.Type)))
		enc.i64(g.InitInt)
		enc.f64(g.InitFloat)
		enc.boolean(g.HasInit)
		enc.bytes(g.Data)
	}
	enc.u64(uint64(len(c.Procs)))
	for _, p := range c.Procs {
		enc.proc(p)
	}
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// ReadCatalog deserializes a catalog. Malformed input — wrong magic,
// a version this build does not understand, or a stream truncated or
// corrupted anywhere after the header — is reported as a descriptive
// error, never a panic: the daemon feeds this decoder bytes uploaded
// over HTTP.
func ReadCatalog(r io.Reader) (c *Catalog, err error) {
	// Backstop: the decoder validates counts and indices as it goes, but
	// corrupt input that slips through a missed check must still surface
	// as an error, not take down the process.
	defer func() {
		if p := recover(); p != nil {
			c, err = nil, fmt.Errorf("catalog: malformed input: %v", p)
		}
	}()
	br := bufio.NewReader(r)
	magic := make([]byte, len(catalogMagic))
	if n, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("catalog: truncated input: got %d of %d magic bytes (want %q)", n, len(catalogMagic), catalogMagic)
	}
	if string(magic) != catalogMagic {
		return nil, fmt.Errorf("catalog: bad magic %q (want %q): not a Titan procedure catalog", magic, catalogMagic)
	}
	dec := &decoder{r: br}
	v := dec.u64()
	if dec.err != nil {
		return nil, fmt.Errorf("catalog: truncated input: missing version: %w", dec.err)
	}
	if v < catalogMinVersion || v > catalogVersion {
		return nil, fmt.Errorf("catalog: unsupported version %d (this build reads versions %d through %d)", v, catalogMinVersion, catalogVersion)
	}
	dec.version = int(v)
	dec.readTypeTable()

	c = &Catalog{}
	ng := dec.u64()
	for i := uint64(0); i < ng && dec.err == nil; i++ {
		g := il.GlobalVar{}
		g.Name = dec.str()
		g.Type = dec.typeByID(int(dec.u64()))
		g.InitInt = dec.i64()
		g.InitFloat = dec.f64()
		g.HasInit = dec.boolean()
		g.Data = dec.bytes()
		c.Globals = append(c.Globals, g)
	}
	np := dec.u64()
	for i := uint64(0); i < np && dec.err == nil; i++ {
		c.Procs = append(c.Procs, dec.proc())
	}
	if dec.err != nil {
		if errors.Is(dec.err, io.EOF) || errors.Is(dec.err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("catalog: truncated input: %w", dec.err)
		}
		return nil, dec.err
	}
	return c, nil
}

// ---------------------------------------------------------------- encoder

type encoder struct {
	w       *bufio.Writer
	err     error
	typeIdx map[*ctype.Type]int
	types   []*ctype.Type
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, e.err = e.w.Write(buf[:n])
}

// i64 writes v zigzag-encoded, as binary.PutVarint does.
func (e *encoder) i64(v int64) { e.u64(uint64(v<<1) ^ uint64(v>>63)) }

func (e *encoder) f64(v float64) {
	if e.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, e.err = e.w.Write(buf[:])
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) boolean(b bool) {
	if b {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

// typeID interns a type, assigning indices before recursion so cyclic
// types (struct node { struct node *next; }) terminate.
func (e *encoder) typeID(t *ctype.Type) int {
	if t == nil {
		return -1
	}
	if id, ok := e.typeIdx[t]; ok {
		return id
	}
	id := len(e.types)
	e.typeIdx[t] = id
	e.types = append(e.types, t)
	if t.Elem != nil {
		e.typeID(t.Elem)
	}
	if t.Ret != nil {
		e.typeID(t.Ret)
	}
	for i := range t.Params {
		e.typeID(t.Params[i].Type)
	}
	for i := range t.Fields {
		e.typeID(t.Fields[i].Type)
	}
	return id
}

func (e *encoder) writeTypeTable() {
	e.u64(uint64(len(e.types)))
	for _, t := range e.types {
		e.u64(uint64(t.Kind))
		e.boolean(t.Unsigned)
		e.boolean(t.Volatile)
		e.boolean(t.Const)
		e.i64(int64(t.Len))
		e.i64(int64(e.refID(t.Elem)))
		e.i64(int64(e.refID(t.Ret)))
		e.boolean(t.Variadic)
		e.boolean(t.OldStyle)
		e.str(t.Tag)
		e.u64(uint64(len(t.Params)))
		for _, p := range t.Params {
			e.str(p.Name)
			e.i64(int64(e.refID(p.Type)))
		}
		e.u64(uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.str(f.Name)
			e.i64(int64(e.refID(f.Type)))
			e.i64(int64(f.Offset))
		}
		// Aggregate size is recomputed via StructOf layout rules on read?
		// No: offsets are stored; store the total size too.
		e.i64(int64(t.Size()))
	}
}

func (e *encoder) refID(t *ctype.Type) int {
	if t == nil {
		return -1
	}
	return e.typeIdx[t]
}

func (e *encoder) proc(p *il.Proc) {
	e.str(p.Name)
	e.i64(int64(e.refID(p.Ret)))
	e.boolean(p.Variadic)
	e.u64(uint64(len(p.Params)))
	for _, id := range p.Params {
		e.u64(uint64(id))
	}
	e.u64(uint64(len(p.Vars)))
	for i := range p.Vars {
		v := &p.Vars[i]
		e.str(v.Name)
		e.i64(int64(e.refID(v.Type)))
		e.u64(uint64(v.Class))
		e.boolean(v.AddrTaken)
	}
	e.stmts(p.Body)
}

// Statement tags. A catalog holds front-end IL, the statements and
// expressions lowering builds: §7's parsed procedures. The DO, do parallel
// and vector forms are built only by the passes after inlining, so no
// catalog writer emits them; their tags stay reserved and the decoder
// refuses them (notFrontEnd). A catalog that carried a do parallel would
// assert an independence no dependence test had checked.
const (
	tAssign = iota
	tCall
	tIf
	tWhile
	tDoLoop       // reserved
	tDoParallel   // reserved
	tVectorAssign // reserved
	tGoto
	tLabel
	tReturn
)

// Expression tags.
const (
	xNil = iota
	xConstInt
	xConstFloat
	xVarRef
	xAddrOf
	xLoad
	xBin
	xUn
	xCast
	xVecRef // reserved
)

func (e *encoder) stmts(list []il.Stmt) {
	e.u64(uint64(len(list)))
	for _, s := range list {
		e.stmt(s)
	}
}

func (e *encoder) stmt(s il.Stmt) {
	pos := il.StmtPos(s)
	e.u64(uint64(pos.Line))
	e.u64(uint64(pos.Col))
	switch n := s.(type) {
	case *il.Assign:
		e.u64(tAssign)
		e.expr(n.Dst)
		e.expr(n.Src)
	case *il.Call:
		e.u64(tCall)
		e.i64(int64(n.Dst))
		e.str(n.Callee)
		e.expr(n.FunPtr)
		e.i64(int64(e.refID(n.T)))
		e.u64(uint64(len(n.Args)))
		for _, a := range n.Args {
			e.expr(a)
		}
	case *il.If:
		e.u64(tIf)
		e.expr(n.Cond)
		e.stmts(n.Then)
		e.stmts(n.Else)
	case *il.While:
		e.u64(tWhile)
		e.expr(n.Cond)
		e.boolean(n.Safe)
		e.stmts(n.Body)
	case *il.Goto:
		e.u64(tGoto)
		e.str(n.Target)
	case *il.Label:
		e.u64(tLabel)
		e.str(n.Name)
	case *il.Return:
		e.u64(tReturn)
		e.expr(n.Val)
	default:
		e.err = fmt.Errorf("catalog: cannot encode %T", s)
	}
}

func (e *encoder) expr(x il.Expr) {
	if x == nil {
		e.u64(xNil)
		return
	}
	switch n := x.(type) {
	case *il.ConstInt:
		e.u64(xConstInt)
		e.i64(n.Val)
		e.i64(int64(e.refID(n.T)))
	case *il.ConstFloat:
		e.u64(xConstFloat)
		e.f64(n.Val)
		e.i64(int64(e.refID(n.T)))
	case *il.VarRef:
		e.u64(xVarRef)
		e.u64(uint64(n.ID))
		e.i64(int64(e.refID(n.T)))
	case *il.AddrOf:
		e.u64(xAddrOf)
		e.u64(uint64(n.ID))
		e.i64(int64(e.refID(n.T)))
	case *il.Load:
		e.u64(xLoad)
		e.expr(n.Addr)
		e.i64(int64(e.refID(n.T)))
		e.boolean(n.Volatile)
	case *il.Bin:
		e.u64(xBin)
		e.u64(uint64(n.Op))
		e.expr(n.L)
		e.expr(n.R)
		e.i64(int64(e.refID(n.T)))
	case *il.Un:
		e.u64(xUn)
		e.u64(uint64(n.Op))
		e.expr(n.X)
		e.i64(int64(e.refID(n.T)))
	case *il.Cast:
		e.u64(xCast)
		e.expr(n.X)
		e.i64(int64(e.refID(n.T)))
	default:
		e.err = fmt.Errorf("catalog: cannot encode expr %T", x)
	}
}

// ---------------------------------------------------------------- decoder

type decoder struct {
	r       *bufio.Reader
	err     error
	version int
	types   []*ctype.Type
	depth   int // statement/expression recursion depth (bounded)
}

// maxDecodeDepth bounds statement/expression nesting so a crafted input
// cannot overflow the stack via deeply nested tags (every level of real
// nesting consumes input bytes, so legitimate catalogs stay far below).
const maxDecodeDepth = 1 << 14

// enter tracks recursion depth; it reports false (and sets the error)
// once the nesting bound is exceeded.
func (d *decoder) enter() bool {
	d.depth++
	if d.depth > maxDecodeDepth {
		if d.err == nil {
			d.err = fmt.Errorf("catalog: statement/expression nesting exceeds %d levels", maxDecodeDepth)
		}
		return false
	}
	return true
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *decoder) i64() int64 {
	u := d.u64()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (d *decoder) str() string { return string(d.data(1<<20, "string")) }

func (d *decoder) bytes() []byte { return d.data(1<<24, "data") }

// data reads a length-prefixed run of at most limit bytes.
func (d *decoder) data(limit uint64, what string) []byte {
	n := d.u64()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > limit {
		d.err = fmt.Errorf("catalog: %s too long (%d)", what, n)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return nil
	}
	return buf
}

func (d *decoder) boolean() bool { return d.u64() != 0 }

func (d *decoder) typeByID(id int) *ctype.Type {
	if id < 0 || id >= len(d.types) {
		return nil
	}
	return d.types[id]
}

func (d *decoder) readTypeTable() {
	// 64k types is far beyond any real translation unit; the bound also
	// caps finishTypes' value-edge recursion depth on crafted input.
	n := int(d.u64())
	if d.err != nil || n < 0 || n > 1<<16 {
		if d.err == nil {
			d.err = fmt.Errorf("catalog: bad type count %d", n)
		}
		return
	}
	// Allocate shells first so cyclic references resolve.
	d.types = make([]*ctype.Type, n)
	for i := range d.types {
		d.types[i] = &ctype.Type{}
	}
	for i := 0; i < n && d.err == nil; i++ {
		t := d.types[i]
		t.Kind = ctype.Kind(d.u64())
		if t.Kind < ctype.Void || t.Kind > ctype.Enum {
			if d.err == nil {
				d.err = fmt.Errorf("catalog: type %d has unknown kind %d", i, t.Kind)
			}
			return
		}
		t.Unsigned = d.boolean()
		t.Volatile = d.boolean()
		t.Const = d.boolean()
		t.Len = int(d.i64())
		t.Elem = d.typeByID(int(d.i64()))
		t.Ret = d.typeByID(int(d.i64()))
		t.Variadic = d.boolean()
		t.OldStyle = d.boolean()
		t.Tag = d.str()
		np := int(d.u64())
		for j := 0; j < np && d.err == nil; j++ {
			name := d.str()
			pt := d.typeByID(int(d.i64()))
			t.Params = append(t.Params, ctype.Param{Name: name, Type: pt})
		}
		nf := int(d.u64())
		var fields []ctype.Field
		for j := 0; j < nf && d.err == nil; j++ {
			name := d.str()
			ft := d.typeByID(int(d.i64()))
			off := int(d.i64())
			fields = append(fields, ctype.Field{Name: name, Type: ft, Offset: off})
		}
		t.Fields = fields
		d.i64() // stored aggregate size; recomputed by finishTypes
	}
	if d.err == nil {
		d.finishTypes()
	}
}

// finishTypes validates the decoded type graph and rebuilds aggregate
// layout. Two jobs, both deferred until the whole table is read:
//
//  1. Validation. The layout helpers dereference element and field types
//     and recurse through value containment, so a corrupt table with a
//     dangling reference or a type that contains itself by value (legal
//     in no C program — only pointers may close a cycle) must be
//     rejected here, not crash there.
//  2. Bottom-up rebuild. StructOf/UnionOf recompute offsets from field
//     sizes, so a struct's field types must have final layout before the
//     struct does. typeID interns parents before children at encode
//     time, so table order is top-down — the rebuild follows value edges
//     depth-first instead.
func (d *decoder) finishTypes() {
	const (
		unseen = iota
		visiting
		finished
	)
	state := make([]byte, len(d.types))
	index := make(map[*ctype.Type]int, len(d.types))
	for i, t := range d.types {
		index[t] = i
	}
	var visit func(i int)
	visit = func(i int) {
		if d.err != nil || state[i] == finished {
			return
		}
		if state[i] == visiting {
			d.err = fmt.Errorf("catalog: type %d contains itself by value", i)
			return
		}
		state[i] = visiting
		t := d.types[i]
		switch t.Kind {
		case ctype.Array:
			if t.Elem == nil {
				d.err = fmt.Errorf("catalog: array type %d has a dangling element type", i)
				return
			}
			visit(index[t.Elem])
		case ctype.Struct, ctype.Union:
			for _, f := range t.Fields {
				if f.Type == nil {
					d.err = fmt.Errorf("catalog: aggregate type %d field %q has a dangling type reference", i, f.Name)
					return
				}
				visit(index[f.Type])
				if d.err != nil {
					return
				}
			}
			*t = *rebuildAggregate(t)
		}
		state[i] = finished
	}
	for i := range d.types {
		visit(i)
		if d.err != nil {
			return
		}
	}
}

// rebuildAggregate restores a struct/union through the layout helper.
// StructOf recomputes offsets with the same algorithm used at parse
// time, so the stored offsets match; qualifiers are kept.
func rebuildAggregate(t *ctype.Type) *ctype.Type {
	var nt *ctype.Type
	if t.Kind == ctype.Struct {
		nt = ctype.StructOf(t.Tag, t.Fields)
	} else {
		nt = ctype.UnionOf(t.Tag, t.Fields)
	}
	nt.Volatile = t.Volatile
	nt.Const = t.Const
	return nt
}

func (d *decoder) proc() *il.Proc {
	p := &il.Proc{}
	p.Name = d.str()
	p.Ret = d.typeByID(int(d.i64()))
	p.Variadic = d.boolean()
	np := int(d.u64())
	for i := 0; i < np && d.err == nil; i++ {
		p.Params = append(p.Params, il.VarID(d.u64()))
	}
	nv := int(d.u64())
	for i := 0; i < nv && d.err == nil; i++ {
		var v il.Var
		v.Name = d.str()
		v.Type = d.typeByID(int(d.i64()))
		v.Class = il.VarClass(d.u64())
		v.AddrTaken = d.boolean()
		p.Vars = append(p.Vars, v)
	}
	p.Body = d.stmts()
	return p
}

func (d *decoder) stmts() []il.Stmt {
	n := int(d.u64())
	if d.err != nil || n < 0 || n > 1<<22 {
		if d.err == nil {
			d.err = fmt.Errorf("catalog: bad statement count %d", n)
		}
		return nil
	}
	var out []il.Stmt
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.stmt())
	}
	return out
}

func (d *decoder) stmt() il.Stmt {
	if !d.enter() {
		return &il.Label{Name: ".bad"}
	}
	defer func() { d.depth-- }()
	var pos token.Pos
	if d.version >= 2 {
		pos.Line = int(d.u64())
		pos.Col = int(d.u64())
	}
	s := d.stmtBody()
	if pos.Line > 0 {
		il.SetStmtPos(s, pos)
	}
	return s
}

func (d *decoder) stmtBody() il.Stmt {
	switch tag := d.u64(); tag {
	case tAssign:
		dst := d.expr()
		src := d.expr()
		return &il.Assign{Dst: dst, Src: src}
	case tCall:
		c := &il.Call{}
		c.Dst = il.VarID(d.i64())
		c.Callee = d.str()
		c.FunPtr = d.expr()
		c.T = d.typeByID(int(d.i64()))
		na := int(d.u64())
		for i := 0; i < na && d.err == nil; i++ {
			c.Args = append(c.Args, d.expr())
		}
		return c
	case tIf:
		cond := d.expr()
		then := d.stmts()
		els := d.stmts()
		return &il.If{Cond: cond, Then: then, Else: els}
	case tWhile:
		cond := d.expr()
		safe := d.boolean()
		body := d.stmts()
		return &il.While{Cond: cond, Safe: safe, Body: body}
	case tGoto:
		return &il.Goto{Target: d.str()}
	case tLabel:
		return &il.Label{Name: d.str()}
	case tReturn:
		return &il.Return{Val: d.expr()}
	case tDoLoop, tDoParallel, tVectorAssign:
		d.notFrontEnd([...]string{"DoLoop", "DoParallel", "VectorAssign"}[tag-tDoLoop])
		return &il.Label{Name: ".bad"}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("catalog: unknown statement tag %d", tag)
		}
		return &il.Label{Name: ".bad"}
	}
}

// notFrontEnd records a reserved tag: form is built only by the passes
// after inlining, so no catalog holds it.
func (d *decoder) notFrontEnd(form string) {
	if d.err == nil {
		d.err = fmt.Errorf("catalog: %s is not front-end IL: a catalog holds procedures as lowering builds them", form)
	}
}

func (d *decoder) expr() il.Expr {
	if !d.enter() {
		return &il.ConstInt{T: ctype.IntType}
	}
	defer func() { d.depth-- }()
	switch tag := d.u64(); tag {
	case xNil:
		return nil
	case xConstInt:
		v := d.i64()
		t := d.typeByID(int(d.i64()))
		return &il.ConstInt{Val: v, T: t}
	case xConstFloat:
		v := d.f64()
		t := d.typeByID(int(d.i64()))
		return &il.ConstFloat{Val: v, T: t}
	case xVarRef:
		id := il.VarID(d.u64())
		t := d.typeByID(int(d.i64()))
		return &il.VarRef{ID: id, T: t}
	case xAddrOf:
		id := il.VarID(d.u64())
		t := d.typeByID(int(d.i64()))
		return &il.AddrOf{ID: id, T: t}
	case xLoad:
		addr := d.expr()
		t := d.typeByID(int(d.i64()))
		vol := d.boolean()
		return &il.Load{Addr: addr, T: t, Volatile: vol}
	case xBin:
		op := il.Op(d.u64())
		l := d.expr()
		r := d.expr()
		t := d.typeByID(int(d.i64()))
		return &il.Bin{Op: op, L: l, R: r, T: t}
	case xUn:
		op := il.Op(d.u64())
		x := d.expr()
		t := d.typeByID(int(d.i64()))
		return &il.Un{Op: op, X: x, T: t}
	case xCast:
		x := d.expr()
		t := d.typeByID(int(d.i64()))
		return &il.Cast{X: x, T: t}
	case xVecRef:
		d.notFrontEnd("VecRef")
		return &il.ConstInt{T: ctype.IntType}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("catalog: unknown expr tag %d", tag)
		}
		return &il.ConstInt{T: ctype.IntType}
	}
}

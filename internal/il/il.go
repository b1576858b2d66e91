// Package il defines the Titan compiler's high-level intermediate language.
//
// Following the paper (§3), the IL departs from the traditional low-level C
// representation in three ways:
//
//   - Expressions are pure. Every operation that changes memory is an
//     explicit statement: the IL has an assignment statement but no
//     assignment operator, and ?:, &&, || and function calls are not
//     representable inside expressions. The repository adds one rule:
//     no Expr is written after its constructor returns. Expressions are
//     values, so any statement of any procedure may reference any of
//     them, and a pass that changes an operand builds a new expression
//     (RewriteExpr) and stores it in the statement. Statements are
//     rewritten in place, and copying a statement tree (CloneStmt,
//     Proc.Clone, inline expansion) copies statements only.
//   - Loops are explicit. The front end lowers every C for loop to a While;
//     the optimizer converts While loops to Fortran-style DoLoops when it
//     can prove the iteration pattern, and the vectorizer converts DoLoops
//     to VectorAssign and DoParallel forms.
//   - Procedures contain no hard pointers. Variables are referenced by
//     VarID (an index into the procedure's variable table), globals by
//     name, and callees by name, so a procedure can be written to a catalog
//     and inlined into another translation unit (§7).
//
// IL is built one way: every constructor, rewriter and cloner is a method
// on *Arena (arena.go has the ownership contract), normally the owning
// procedure's p.Arena(). A nil *Arena is valid and allocates from the
// heap; a procedure with no arena — hand-built test IL, a catalog-decoded
// procedure — builds from that.
//
// The loop-analysis vocabulary also has one home here, so that dependence
// analysis, the vectorizer, strength reduction and the parallelizers ask
// the same question the same way: (*Arena).Affine decomposes an address
// into rest + coef·iv over one or two loop indices and LinearTerms flattens
// an index-free sum (affine.go); (*DoLoop).TripCount is the constant trip
// count, LoadFree says an expression reads no memory, and (*Var).Escapes
// says code other than a direct reference may touch a variable.
//
// Only this package knows which statements hold statement lists (If,
// While, DoLoop, DoParallel): WalkStmts reads a statement tree and
// RewriteStmts rewrites one bottom-up, and every phase that edits a
// procedure's statements is a callback on it (walk.go).
package il

import (
	"fmt"
	"strings"

	"repro/internal/ctype"
	"repro/internal/token"
)

// VarID indexes a procedure's Vars table.
type VarID int

// NoVar marks "no variable" (e.g. a call whose result is discarded).
const NoVar VarID = -1

// VarClass says where a variable lives.
type VarClass int

// Variable classes.
const (
	ClassParam  VarClass = iota // incoming parameter
	ClassLocal                  // automatic local
	ClassTemp                   // compiler temporary
	ClassGlobal                 // reference to a program global (by name)
	ClassStatic                 // function-static, exported as a hidden global
)

var classNames = [...]string{"param", "local", "temp", "global", "static"}

// String names the class.
func (c VarClass) String() string { return classNames[c] }

// Var is one entry in a procedure's variable table.
type Var struct {
	Name  string
	Type  *ctype.Type
	Class VarClass
	// AddrTaken records whether & was applied to the variable (or it is an
	// array/aggregate, which is addressed by nature). Address-taken
	// variables cannot be register-allocated and may alias loads/stores.
	AddrTaken bool
}

// IsVolatile reports whether accesses to the variable are volatile.
func (v *Var) IsVolatile() bool { return v.Type != nil && v.Type.Volatile }

// Escapes reports whether code other than a direct reference can read or
// write the variable: its address was taken, or it is a global or static,
// so a store, a call or another procedure may touch it.
func (v *Var) Escapes() bool {
	return v.AddrTaken || v.Class == ClassGlobal || v.Class == ClassStatic
}

// ---------------------------------------------------------------- Expressions

// Op is an IL operator. The set is smaller than C's: logical and
// conditional operators were statement-ized by the front end.
type Op int

// Operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpNeg // unary -
	OpNot // unary ! (0/1 result)
	OpBitNot
)

var opNames = [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"==", "!=", "<", ">", "<=", ">=", "neg", "!", "~"}

// String returns the operator spelling.
func (op Op) String() string { return opNames[op] }

// IsComparison reports whether op produces a 0/1 int.
func (op Op) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Expr is a pure IL expression.
type Expr interface {
	Type() *ctype.Type
	String() string
	exprNode()
}

// ConstInt is an integer constant.
type ConstInt struct {
	Val int64
	T   *ctype.Type
}

// Type returns the constant's type.
func (e *ConstInt) Type() *ctype.Type { return e.T }

// String renders the constant.
func (e *ConstInt) String() string { return fmt.Sprintf("%d", e.Val) }
func (e *ConstInt) exprNode()      {}

// ConstFloat is a floating constant.
type ConstFloat struct {
	Val float64
	T   *ctype.Type
}

// Type returns the constant's type.
func (e *ConstFloat) Type() *ctype.Type { return e.T }

// String renders the constant.
func (e *ConstFloat) String() string { return fmt.Sprintf("%g", e.Val) }
func (e *ConstFloat) exprNode()      {}

// VarRef reads a scalar variable.
type VarRef struct {
	ID VarID
	T  *ctype.Type
}

// Type returns the variable's type.
func (e *VarRef) Type() *ctype.Type { return e.T }

// String renders the reference as v<ID>; Proc.ExprString gives names.
func (e *VarRef) String() string { return fmt.Sprintf("v%d", e.ID) }
func (e *VarRef) exprNode()      {}

// AddrOf takes the address of a variable (for arrays and aggregates this is
// the base address).
type AddrOf struct {
	ID VarID
	T  *ctype.Type // pointer type
}

// Type returns the pointer type.
func (e *AddrOf) Type() *ctype.Type { return e.T }

// String renders the address expression.
func (e *AddrOf) String() string { return fmt.Sprintf("&v%d", e.ID) }
func (e *AddrOf) exprNode()      {}

// Load reads memory at Addr. Volatile loads must not be duplicated,
// eliminated, or reordered.
type Load struct {
	Addr     Expr
	T        *ctype.Type
	Volatile bool
}

// Type returns the loaded value's type.
func (e *Load) Type() *ctype.Type { return e.T }

// String renders the load.
func (e *Load) String() string {
	if e.Volatile {
		return fmt.Sprintf("*(volatile)(%s)", e.Addr)
	}
	return fmt.Sprintf("*(%s)", e.Addr)
}
func (e *Load) exprNode() {}

// Bin applies a binary operator.
type Bin struct {
	Op   Op
	L, R Expr
	T    *ctype.Type
}

// Type returns the result type.
func (e *Bin) Type() *ctype.Type { return e.T }

// String renders the expression fully parenthesized.
func (e *Bin) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *Bin) exprNode()      {}

// Un applies a unary operator.
type Un struct {
	Op Op
	X  Expr
	T  *ctype.Type
}

// Type returns the result type.
func (e *Un) Type() *ctype.Type { return e.T }

// String renders the expression.
func (e *Un) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.X) }
func (e *Un) exprNode()      {}

// Cast converts between scalar types.
type Cast struct {
	X Expr
	T *ctype.Type
}

// Type returns the target type.
func (e *Cast) Type() *ctype.Type { return e.T }

// String renders the cast.
func (e *Cast) String() string { return fmt.Sprintf("(%s)(%s)", e.T, e.X) }
func (e *Cast) exprNode()      {}

// VecRef is a vector operand inside a VectorAssign right-hand side: the
// memory section Base + lane*Stride for lane in [0, length). Base is a byte
// address expression; Stride is in bytes.
type VecRef struct {
	Base   Expr
	Stride Expr
	T      *ctype.Type // element type
}

// Type returns the element type.
func (e *VecRef) Type() *ctype.Type { return e.T }

// String renders the section in the paper's colon notation.
func (e *VecRef) String() string { return fmt.Sprintf("[%s :%s]", e.Base, e.Stride) }
func (e *VecRef) exprNode()      {}

// VectorOpExact reports whether node e, applied to a vector operand, has
// an exact vector lowering. The vector register file holds float64, so
// +, −, × and a floating ÷ compute every lane as the scalar code does, as
// do negation and a cast that truncates nothing; an integer ÷, a
// float→int cast, every other operator and every other unary operator do
// not. The vectorizer declines a statement with such a node and codegen
// refuses one, so the rule is stated here once.
func VectorOpExact(e Expr) bool {
	switch n := e.(type) {
	case *Bin:
		switch n.Op {
		case OpAdd, OpSub, OpMul:
			return true
		case OpDiv:
			return n.T != nil && n.T.IsFloat()
		}
		return false
	case *Un:
		return n.Op == OpNeg
	case *Cast:
		return !(n.T.IsInteger() && n.X.Type() != nil && n.X.Type().IsFloat())
	}
	return true
}

// VectorExact reports whether every node of e that computes on a vector
// operand (a VecRef below it) is VectorOpExact.
func VectorExact(e Expr) bool {
	_, exact := vectorExact(e)
	return exact
}

// vectorExact reports whether e carries a vector operand, and whether
// every node of it that does is VectorOpExact.
func vectorExact(e Expr) (carries, exact bool) {
	var kids [2]Expr
	switch n := e.(type) {
	case *VecRef:
		return true, true
	case *Bin:
		kids = [2]Expr{n.L, n.R}
	case *Un:
		kids[0] = n.X
	case *Cast:
		kids[0] = n.X
	default:
		return false, true
	}
	exact = true
	for _, k := range kids {
		if k == nil {
			continue
		}
		c, x := vectorExact(k)
		carries, exact = carries || c, exact && x
	}
	return carries, exact && (!carries || VectorOpExact(e))
}

// ---------------------------------------------------------------- Statements

// Stmt is an IL statement. Every statement carries the source position of
// the C statement it was lowered from (or, for statements manufactured by
// the optimizer, the position of the construct that caused them — the
// converted loop, the inline call site); StmtPos/SetStmtPos access it
// uniformly.
type Stmt interface {
	String() string
	stmtNode()
}

// Assign stores Src into Dst. Dst must be a *VarRef (scalar variable) or a
// *Load (store through an address).
type Assign struct {
	Dst Expr
	Src Expr
	Pos token.Pos
}

// String renders the assignment.
func (s *Assign) String() string { return fmt.Sprintf("%s = %s", s.Dst, s.Src) }
func (s *Assign) stmtNode()      {}

// PredAssign is a predicated store, the scalar form if-conversion
// rewrites a guarded assignment into:  if (Cond) Dst = Src  with no
// branch. Dst must be a *Load (a store through an address): guarded
// scalar-variable assignments stay as If so scalar dataflow is
// unchanged. When Cond is false the statement has no effect — no store,
// no fault from the destination address. The vectorizer turns these
// into masked VectorAssign strips; codegen lowers a scalar residue
// PredAssign to a conditional skip around the store.
type PredAssign struct {
	Cond Expr
	Dst  Expr // must be *Load
	Src  Expr
	Pos  token.Pos
}

// String renders the predicated store.
func (s *PredAssign) String() string {
	return fmt.Sprintf("(%s)? %s = %s", s.Cond, s.Dst, s.Src)
}
func (s *PredAssign) stmtNode() {}

// Call invokes Callee. Dst receives the result (NoVar to discard). An
// indirect call through a function pointer sets FunPtr instead of Callee.
type Call struct {
	Dst    VarID
	Callee string
	FunPtr Expr // non-nil for indirect calls
	Args   []Expr
	T      *ctype.Type // result type (void for none)
	Pos    token.Pos
}

// String renders the call.
func (s *Call) String() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	target := s.Callee
	if s.FunPtr != nil {
		target = "(*" + s.FunPtr.String() + ")"
	}
	if s.Dst == NoVar {
		return fmt.Sprintf("call %s(%s)", target, strings.Join(args, ", "))
	}
	return fmt.Sprintf("v%d = call %s(%s)", s.Dst, target, strings.Join(args, ", "))
}
func (s *Call) stmtNode() {}

// If branches on Cond.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  token.Pos
}

// String renders a one-line summary.
func (s *If) String() string {
	return fmt.Sprintf("if %s then [%d stmts] else [%d stmts]", s.Cond, len(s.Then), len(s.Else))
}
func (s *If) stmtNode() {}

// While loops while Cond is non-zero.
type While struct {
	Cond Expr
	Body []Stmt
	// Safe is set by "#pragma safe": the loop body is free of aliasing
	// between distinct pointer parameters.
	Safe bool
	Pos  token.Pos
}

// String renders a one-line summary.
func (s *While) String() string { return fmt.Sprintf("while %s [%d stmts]", s.Cond, len(s.Body)) }
func (s *While) stmtNode()      {}

// DoLoop is a Fortran-style counted loop: IV takes Init, Init+Step, ...
// while the trip count floor((Limit-Init)/Step)+1 (when positive) has not
// been exhausted. Step must evaluate non-zero; its sign gives direction.
// The loop body must not assign IV; the conversion passes guarantee this.
type DoLoop struct {
	IV    VarID
	Init  Expr
	Limit Expr
	Step  Expr
	Body  []Stmt
	Safe  bool
	Pos   token.Pos
}

// String renders a one-line summary.
func (s *DoLoop) String() string {
	return fmt.Sprintf("do v%d = %s, %s, %s [%d stmts]", s.IV, s.Init, s.Limit, s.Step, len(s.Body))
}
func (s *DoLoop) stmtNode() {}

// TripCount returns the loop's compile-time trip count, or -1 when a
// bound or the step is not a constant (or the step is zero).
func (s *DoLoop) TripCount() int64 { return TripCount(s.Init, s.Limit, s.Step) }

// TripCount returns how many times a DO or do parallel loop from init
// through limit by step iterates, or -1 when a bound or the step is not a
// constant (or the step is zero).
func TripCount(init, limit, step Expr) int64 {
	i, ok1 := IsIntConst(init)
	l, ok2 := IsIntConst(limit)
	s, ok3 := IsIntConst(step)
	if !ok1 || !ok2 || !ok3 || s == 0 {
		return -1
	}
	if s > 0 && l < i || s < 0 && l > i {
		return 0
	}
	return (l-i)/s + 1
}

// DoParallel is a DoLoop whose iterations are independent and may be
// spread across processors.
type DoParallel struct {
	IV    VarID
	Init  Expr
	Limit Expr
	Step  Expr
	Body  []Stmt
	// Sync, when non-nil, makes the loop a DOACROSS region: iterations
	// carry a dependence of constant distance Sync.Distance, enforced by
	// SyncPost/SyncWait markers in Body that codegen lowers to post/wait.
	Sync *SyncInfo
	Pos  token.Pos
}

// SyncInfo annotates a DoParallel scheduled DOACROSS: its iterations are
// not independent but pipeline across processors, synchronized on the
// carried dependence it describes (arXiv:1211.4101). All carried
// dependences of the loop are covered by one combined post/wait pair at
// the minimum distance.
type SyncInfo struct {
	// Distance is the combined (minimum) constant dependence distance in
	// iterations; the consumer of iteration i waits for iteration
	// i-Distance to pass its SyncPost.
	Distance int64
	// Desc names the dependence being synchronized, for remarks.
	Desc string
}

// String renders a one-line summary.
func (s *DoParallel) String() string {
	suffix := ""
	if s.Sync != nil {
		suffix = fmt.Sprintf(" sync(%d)", s.Sync.Distance)
	}
	return fmt.Sprintf("do parallel%s v%d = %s, %s, %s [%d stmts]", suffix, s.IV, s.Init, s.Limit, s.Step, len(s.Body))
}
func (s *DoParallel) stmtNode() {}

// SyncPost marks the point in a DOACROSS body after which the iteration's
// contribution to the carried dependence is complete: codegen emits the
// post releasing iteration IV+Distance here. Valid only directly inside a
// DoParallel with Sync set.
type SyncPost struct {
	Pos token.Pos
}

// String renders a one-line summary.
func (s *SyncPost) String() string { return "sync.post" }
func (s *SyncPost) stmtNode()      {}

// SyncWait marks the point in a DOACROSS body before which the iteration
// must observe iteration IV-Distance's SyncPost: codegen emits the wait
// here. Valid only directly inside a DoParallel with Sync set.
type SyncWait struct {
	// Distance mirrors the enclosing loop's Sync.Distance.
	Distance int64
	Pos      token.Pos
}

// String renders a one-line summary.
func (s *SyncWait) String() string { return fmt.Sprintf("sync.wait(%d)", s.Distance) }
func (s *SyncWait) stmtNode()      {}

// VectorAssign is the vector statement  dst[0:Len) = RHS  where the
// destination section starts at byte address DstBase with byte stride
// DstStride, and RHS is an expression over VecRef sections (all of length
// Len) and scalar (broadcast) operands. Len is an expression (elements).
type VectorAssign struct {
	DstBase   Expr
	DstStride Expr
	Len       Expr
	Elem      *ctype.Type
	RHS       Expr
	// Mask, when non-nil, predicates the statement per lane: only lanes
	// where Mask evaluates non-zero load operands, compute, and store
	// (if-conversion / masked vector execution). A nil Mask is the dense
	// form. Mask is an expression over VecRef sections and scalar
	// operands, like RHS, compared non-zero lane-wise.
	Mask Expr
	Pos  token.Pos
}

// String renders the vector statement.
func (s *VectorAssign) String() string {
	if s.Mask != nil {
		return fmt.Sprintf("[%s :%s](0:%s) =?(%s) %s", s.DstBase, s.DstStride, s.Len, s.Mask, s.RHS)
	}
	return fmt.Sprintf("[%s :%s](0:%s) = %s", s.DstBase, s.DstStride, s.Len, s.RHS)
}
func (s *VectorAssign) stmtNode() {}

// Goto transfers control to a label.
type Goto struct {
	Target string
	Pos    token.Pos
}

// String renders the goto.
func (s *Goto) String() string { return "goto " + s.Target }
func (s *Goto) stmtNode()      {}

// Label marks a goto target.
type Label struct {
	Name string
	Pos  token.Pos
}

// String renders the label.
func (s *Label) String() string { return s.Name + ":" }
func (s *Label) stmtNode()      {}

// Return leaves the procedure, optionally with a value.
type Return struct {
	Val Expr
	Pos token.Pos
}

// String renders the return.
func (s *Return) String() string {
	if s.Val == nil {
		return "return"
	}
	return "return " + s.Val.String()
}
func (s *Return) stmtNode() {}

// ---------------------------------------------------------------- Procedures

// Proc is one procedure in IL form. It is self-contained: all variables it
// touches are in Vars (globals appear as ClassGlobal entries naming the
// program-level symbol), so a Proc can be serialized to a catalog.
type Proc struct {
	Name     string
	Ret      *ctype.Type
	Params   []VarID // indexes of ClassParam vars, in order
	Vars     []Var
	Body     []Stmt
	Variadic bool

	labelSeq int
	// arena, when non-nil, owns the chunked slabs this procedure's
	// statements and expressions are allocated from (the front end
	// attaches one per procedure). Passes reach it through Arena(); a
	// procedure without one (hand-built test IL, catalog-decoded procs)
	// allocates from the heap node by node.
	arena *Arena
	// gen counts mutations of the procedure (body rewrites, new
	// variables). Analyses memoize per (proc, generation): a pass that
	// made no changes leaves gen alone, so the next analysis request can
	// reuse the previous solution (§5.2's incremental-reconstruction
	// obligation, discharged by generation-keyed caching in package
	// analysis). Every mutating pass must route its change count through
	// Changed (or call BumpGeneration directly); AddVar bumps on its own
	// so growing the variable table can never be forgotten.
	gen uint64
	// shape counts the mutations that can move a definition site: every
	// one gen counts except Rewrote's. The CFG and reaching definitions
	// read nothing else, so they are keyed by it.
	shape uint64
}

// NewProc returns an empty procedure.
func NewProc(name string, ret *ctype.Type) *Proc {
	return &Proc{Name: name, Ret: ret}
}

// Arena returns the procedure's node arena, or nil when the procedure
// allocates from the heap. A nil result is safe to allocate from.
func (p *Proc) Arena() *Arena { return p.arena }

// SetArena attaches the arena the procedure's nodes are allocated from.
func (p *Proc) SetArena(a *Arena) { p.arena = a }

// Generation returns the procedure's mutation counter. Two calls
// returning the same value bracket a window in which no pass registered a
// change, so any analysis computed inside the window is still valid.
func (p *Proc) Generation() uint64 { return p.gen }

// Shape returns the counter of mutations that can add, remove or move a
// statement, change a scalar destination or add a variable. It advances
// with Generation except under Rewrote, so two equal readings bracket a
// window in which the CFG and every definition site stayed put.
func (p *Proc) Shape() uint64 { return p.shape }

// BumpGeneration invalidates every cached analysis of the procedure.
func (p *Proc) BumpGeneration() { p.gen++; p.shape++ }

// Changed notes that a pass made n changes to the procedure: any nonzero
// count bumps the generation so generation-keyed analysis caches
// invalidate. It returns n, so mutating passes end with
// `return p.Changed(n)` and cannot forget the bump.
func (p *Proc) Changed(n int) int {
	if n != 0 {
		p.BumpGeneration()
	}
	return n
}

// Rewrote notes n rewrites that only replaced expressions inside existing
// statements: no statement was added, removed or moved, no scalar
// destination changed and no variable was added. It advances the
// generation but not the shape, so the CFG and reaching definitions
// survive while everything that reads uses is recomputed. A caller that
// breaks the contract leaves use-def chains silently stale, so the
// callers are an allow-list (structure_test.go).
func (p *Proc) Rewrote(n int) int {
	if n != 0 {
		p.gen++
	}
	return n
}

// AddVar appends a variable and returns its ID. Growing the variable
// table invalidates cached analyses (their bitsets are sized to Vars), so
// it bumps the generation itself.
func (p *Proc) AddVar(v Var) VarID {
	p.Vars = append(p.Vars, v)
	p.BumpGeneration()
	return VarID(len(p.Vars) - 1)
}

// NewTemp creates a fresh compiler temporary of type t.
func (p *Proc) NewTemp(t *ctype.Type) VarID {
	return p.AddVar(Var{Name: fmt.Sprintf("t%d", len(p.Vars)), Type: t, Class: ClassTemp})
}

// NewLabel returns a fresh label name unique within the procedure.
func (p *Proc) NewLabel(hint string) string {
	p.labelSeq++
	return fmt.Sprintf(".%s%d", hint, p.labelSeq)
}

// Var returns the variable table entry for id.
func (p *Proc) Var(id VarID) *Var { return &p.Vars[id] }

// LookupVar finds a variable by name, returning NoVar if absent.
func (p *Proc) LookupVar(name string) VarID {
	for i := range p.Vars {
		if p.Vars[i].Name == name {
			return VarID(i)
		}
	}
	return NoVar
}

// Program is a whole translation unit in IL form.
type Program struct {
	Globals []GlobalVar
	Procs   []*Proc
}

// GlobalVar is a program-level variable.
type GlobalVar struct {
	Name string
	Type *ctype.Type
	// Init is an optional scalar initial value.
	InitInt   int64
	InitFloat float64
	HasInit   bool
	// Data holds raw initial bytes (string literals).
	Data []byte
}

// Proc finds a procedure by name, or nil.
func (pr *Program) Proc(name string) *Proc {
	for _, p := range pr.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Global finds a global by name, or nil.
func (pr *Program) Global(name string) *GlobalVar {
	for i := range pr.Globals {
		if pr.Globals[i].Name == name {
			return &pr.Globals[i]
		}
	}
	return nil
}

// AddGlobal appends a global if not already present.
func (pr *Program) AddGlobal(g GlobalVar) {
	if pr.Global(g.Name) == nil {
		pr.Globals = append(pr.Globals, g)
	}
}

// Release releases every procedure's arena (see Arena.Release): the
// program stops holding bulk IL memory and the ArenaBytesLive gauge
// drops by its share. The IL remains readable until the Program itself
// is dropped. Safe on a nil program and safe to call more than once.
func (pr *Program) Release() {
	if pr == nil {
		return
	}
	for _, p := range pr.Procs {
		p.arena.Release()
	}
}

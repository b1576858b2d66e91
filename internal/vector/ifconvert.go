package vector

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/il"
)

// This file implements if-conversion: flattening single-level conditionals
// in countable DO bodies into predicated stores (il.PredAssign) so the
// vectorizer can treat guarded statements as ordinary dependence-graph
// nodes and, when legal, execute them as masked vector strips. The pass
// runs after loop-nest parallelization and before vectorization; the
// transform is the classic one (guarded branches become predicates on the
// statements they guard), restricted to guards over pure conditions and
// branches made entirely of memory stores, so no scalar ever takes a
// predicated definition.

// IfConvStats reports what if-conversion did to a procedure.
type IfConvStats struct {
	LoopsExamined   int `json:"loops_examined"` // innermost DO loops holding a conditional
	IfsConverted    int `json:"ifs_converted"`
	StmtsPredicated int `json:"stmts_predicated"`
}

// Add folds another procedure's stats into s.
func (s *IfConvStats) Add(o IfConvStats) {
	s.LoopsExamined += o.LoopsExamined
	s.IfsConverted += o.IfsConverted
	s.StmtsPredicated += o.StmtsPredicated
}

// IfConvertProc flattens convertible conditionals in every innermost DO
// loop of the procedure. A loop whose schedule sets MaskStrategy
// "branchy-serial" converts too (the flattened predicated form is what
// its serial strips execute); the vectorizer later refuses to mask it.
func IfConvertProc(p *il.Proc, r *diag.Reporter) IfConvStats {
	var st IfConvStats
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		loop, ok := s.(*il.DoLoop)
		if !ok || !isInnermost(loop.Body) {
			return true
		}
		ifConvertLoop(p, loop, r, &st)
		return false // nothing below an innermost loop to visit
	})
	return st
}

// ifConvertLoop rewrites the loop body in place, replacing each
// convertible top-level If with the predicated forms of its branch
// statements.
func ifConvertLoop(p *il.Proc, loop *il.DoLoop, r *diag.Reporter, st *IfConvStats) {
	hasIf := false
	for _, s := range loop.Body {
		if _, ok := s.(*il.If); ok {
			hasIf = true
			break
		}
	}
	if !hasIf {
		return
	}
	st.LoopsExamined++

	ar := p.Arena()
	out := make([]il.Stmt, 0, len(loop.Body))
	converted, predicated := 0, 0
	for _, s := range loop.Body {
		cond, ok := s.(*il.If)
		if !ok || !convertibleIf(p, cond) {
			out = append(out, s)
			continue
		}
		for _, t := range cond.Then {
			as := t.(*il.Assign)
			out = append(out, ar.PredAssign(il.PredAssign{
				Cond: cond.Cond,
				Dst:  as.Dst, Src: as.Src, Pos: as.Pos,
			}))
			predicated++
		}
		for _, t := range cond.Else {
			as := t.(*il.Assign)
			out = append(out, ar.PredAssign(il.PredAssign{
				Cond: ar.NewUn(il.OpNot, cond.Cond, cond.Cond.Type()),
				Dst:  as.Dst, Src: as.Src, Pos: as.Pos,
			}))
			predicated++
		}
		converted++
		r.Report(diag.Diagnostic{
			Severity: diag.SevRemark, Code: diag.VectIfConverted,
			Pos: cond.Pos, Proc: p.Name, Pass: "ifconvert",
			Args:    map[string]string{"stmts": fmt.Sprint(len(cond.Then) + len(cond.Else))},
			Message: "conditional if-converted: guarded stores flattened to predicated statements",
		})
	}
	if converted == 0 {
		return
	}
	loop.Body = out
	il.StampStmts(loop.Body, loop.Pos)
	st.IfsConverted += converted
	st.StmtsPredicated += predicated
	p.BumpGeneration()
}

// convertibleIf reports whether the conditional can be flattened: a pure
// (non-volatile) condition guarding branches made entirely of non-volatile
// memory stores. Anything else — scalar assignments, nested control, calls,
// volatile accesses — must keep its branch, because predicating it would
// either give a scalar a conditional definition or change the program's
// observable behavior.
func convertibleIf(p *il.Proc, n *il.If) bool {
	if len(n.Then) == 0 && len(n.Else) == 0 {
		return false
	}
	if p.HasVolatile(n.Cond) {
		return false
	}
	stores := func(list []il.Stmt) bool {
		for _, s := range list {
			as, ok := s.(*il.Assign)
			if !ok {
				return false
			}
			dst, ok := as.Dst.(*il.Load)
			if !ok || dst.Volatile {
				return false
			}
			if p.HasVolatile(dst.Addr) || p.HasVolatile(as.Src) {
				return false
			}
		}
		return true
	}
	return stores(n.Then) && stores(n.Else)
}

package il

import (
	"fmt"
	"strings"
)

// This file renders procedures in a readable named form for titancc, golden
// tests, and debugging.

// ExprString renders e with variable names from the procedure's table.
func (p *Proc) ExprString(e Expr) string {
	if e == nil {
		return "<nil>"
	}
	switch n := e.(type) {
	case *VarRef:
		return p.varName(n.ID)
	case *AddrOf:
		return "&" + p.varName(n.ID)
	case *Load:
		if n.Volatile {
			return fmt.Sprintf("*(volatile)(%s)", p.ExprString(n.Addr))
		}
		return fmt.Sprintf("*(%s)", p.ExprString(n.Addr))
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", p.ExprString(n.L), n.Op, p.ExprString(n.R))
	case *Un:
		return fmt.Sprintf("(%s %s)", n.Op, p.ExprString(n.X))
	case *Cast:
		return fmt.Sprintf("(%s)(%s)", n.T, p.ExprString(n.X))
	case *VecRef:
		return fmt.Sprintf("[%s :%s]", p.ExprString(n.Base), p.ExprString(n.Stride))
	default:
		return e.String()
	}
}

func (p *Proc) varName(id VarID) string {
	if id == NoVar {
		return "_"
	}
	if int(id) < len(p.Vars) {
		return p.Vars[id].Name
	}
	return fmt.Sprintf("v%d", id)
}

// StmtString renders a statement (single line for simple forms, nested
// multi-line for structured forms) at the given indent level.
func (p *Proc) StmtString(s Stmt, indent int) string {
	pad := strings.Repeat("    ", indent)
	switch n := s.(type) {
	case *Assign:
		return fmt.Sprintf("%s%s = %s", pad, p.ExprString(n.Dst), p.ExprString(n.Src))
	case *PredAssign:
		return fmt.Sprintf("%s(%s)? %s = %s", pad, p.ExprString(n.Cond),
			p.ExprString(n.Dst), p.ExprString(n.Src))
	case *Call:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = p.ExprString(a)
		}
		target := n.Callee
		if n.FunPtr != nil {
			target = "(*" + p.ExprString(n.FunPtr) + ")"
		}
		if n.Dst == NoVar {
			return fmt.Sprintf("%scall %s(%s)", pad, target, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%s%s = call %s(%s)", pad, p.varName(n.Dst), target, strings.Join(args, ", "))
	case *If:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%sif %s {\n%s", pad, p.ExprString(n.Cond), p.stmtsString(n.Then, indent+1))
		if len(n.Else) > 0 {
			fmt.Fprintf(&sb, "%s} else {\n%s", pad, p.stmtsString(n.Else, indent+1))
		}
		fmt.Fprintf(&sb, "%s}", pad)
		return sb.String()
	case *While:
		safe := ""
		if n.Safe {
			safe = " /*safe*/"
		}
		return fmt.Sprintf("%swhile %s%s {\n%s%s}", pad, p.ExprString(n.Cond), safe,
			p.stmtsString(n.Body, indent+1), pad)
	case *DoLoop:
		safe := ""
		if n.Safe {
			safe = " /*safe*/"
		}
		return fmt.Sprintf("%sdo %s = %s, %s, %s%s {\n%s%s}", pad, p.varName(n.IV),
			p.ExprString(n.Init), p.ExprString(n.Limit), p.ExprString(n.Step), safe,
			p.stmtsString(n.Body, indent+1), pad)
	case *DoParallel:
		sync := ""
		if n.Sync != nil {
			sync = fmt.Sprintf(" sync(%d)", n.Sync.Distance)
		}
		return fmt.Sprintf("%sdo parallel%s %s = %s, %s, %s {\n%s%s}", pad, sync, p.varName(n.IV),
			p.ExprString(n.Init), p.ExprString(n.Limit), p.ExprString(n.Step),
			p.stmtsString(n.Body, indent+1), pad)
	case *VectorAssign:
		if n.Mask != nil {
			return fmt.Sprintf("%s[%s :%s](0:%s) =?(%s) %s", pad, p.ExprString(n.DstBase),
				p.ExprString(n.DstStride), p.ExprString(n.Len), p.ExprString(n.Mask), p.ExprString(n.RHS))
		}
		return fmt.Sprintf("%s[%s :%s](0:%s) = %s", pad, p.ExprString(n.DstBase),
			p.ExprString(n.DstStride), p.ExprString(n.Len), p.ExprString(n.RHS))
	case *Goto:
		return pad + "goto " + n.Target
	case *Label:
		return pad + n.Name + ":"
	case *Return:
		if n.Val == nil {
			return pad + "return"
		}
		return pad + "return " + p.ExprString(n.Val)
	default:
		return pad + s.String()
	}
}

func (p *Proc) stmtsString(list []Stmt, indent int) string {
	var sb strings.Builder
	for _, s := range list {
		sb.WriteString(p.StmtString(s, indent))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders the whole procedure.
func (p *Proc) String() string {
	var sb strings.Builder
	params := make([]string, len(p.Params))
	for i, id := range p.Params {
		params[i] = fmt.Sprintf("%s %s", p.Vars[id].Type, p.Vars[id].Name)
	}
	fmt.Fprintf(&sb, "proc %s(%s) %s {\n", p.Name, strings.Join(params, ", "), p.Ret)
	for i, v := range p.Vars {
		if v.Class == ClassParam {
			continue
		}
		flags := ""
		if v.AddrTaken {
			flags = " addrtaken"
		}
		fmt.Fprintf(&sb, "    var %s %s // %s%s (v%d)\n", v.Name, v.Type, v.Class, flags, i)
	}
	sb.WriteString(p.stmtsString(p.Body, 1))
	sb.WriteString("}\n")
	return sb.String()
}

// String renders the whole program.
func (pr *Program) String() string {
	var sb strings.Builder
	for _, g := range pr.Globals {
		fmt.Fprintf(&sb, "global %s %s\n", g.Type, g.Name)
	}
	for _, p := range pr.Procs {
		sb.WriteString(p.String())
	}
	return sb.String()
}

// CountStmts returns the number of statements in the list, including those
// nested inside structured statements. It is the code-size metric used by
// the unreachable-code experiments (E5).
func CountStmts(list []Stmt) int {
	n := 0
	WalkStmts(list, func(Stmt) bool {
		n++
		return true
	})
	return n
}

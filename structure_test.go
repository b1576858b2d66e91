package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// literalAllowed lists the only places outside package il that may build
// an IL node as a composite literal instead of through an *il.Arena.
var literalAllowed = []struct{ file, node, why string }{
	{"internal/inline/catalog.go", "*",
		"catalog decode: a decoded procedure owns no arena by contract; its body is cloned into the caller's arena at expansion"},
}

// parseIL parses package il's non-test files.
func parseIL(t *testing.T, fset *token.FileSet) []*ast.File {
	paths, err := filepath.Glob("internal/il/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("internal/il: %v (%d files)", err, len(paths))
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// ilNodeTypes returns the names of package il's node types: everything
// that implements Expr or Stmt, plus everything the Arena keeps a slab of.
func ilNodeTypes(t *testing.T, fset *token.FileSet) map[string]bool {
	nodes := map[string]bool{}
	for _, f := range parseIL(t, fset) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && (n.Name.Name == "exprNode" || n.Name.Name == "stmtNode") {
					if star, ok := n.Recv.List[0].Type.(*ast.StarExpr); ok {
						nodes[star.X.(*ast.Ident).Name] = true
					}
				}
			case *ast.IndexExpr: // slab[T]
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "slab" {
					if arg, ok := n.Index.(*ast.Ident); ok && ast.IsExported(arg.Name) {
						nodes[arg.Name] = true
					}
				}
			}
			return true
		})
	}
	if !nodes["Bin"] || !nodes["DoLoop"] || !nodes["SyncInfo"] {
		t.Fatalf("node type discovery is broken: %v", nodes)
	}
	return nodes
}

// forEachGoFile parses every Go file under internal/ and cmd/, tests
// included, and hands each to fn under its slash-separated path.
func forEachGoFile(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			fn(filepath.ToSlash(path), f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// ilImportName returns the name f imports package il under, or "".
func ilImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/il" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "il"
		}
	}
	return ""
}

// TestILBuildersHaveOneForm: every constructor, rewriter and cloner of
// package il is a method on *Arena. The arena-less free functions and
// their …In twins are gone and must not come back.
func TestILBuildersHaveOneForm(t *testing.T) {
	heapForm := map[string]bool{}
	for _, name := range strings.Fields(`NewBin NewUn NewCast Int Flt Ref Add Sub Mul SimplifyLinear
		RewriteExpr RewriteStmtExprs RewriteTreeExprs CloneStmt CloneStmts`) {
		heapForm[name] = true
	}
	fset := token.NewFileSet()
	for _, f := range parseIL(t, fset) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "In") {
				t.Errorf("%s: il.%s: the In suffix told arena twins apart; there are no twins", fset.Position(fn.Pos()), fn.Name.Name)
			}
			if fn.Recv == nil && heapForm[fn.Name.Name] {
				t.Errorf("%s: il.%s is an arena-less builder; make it a method on *Arena", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
}

// TestILNodesComeFromAnArena keeps the heap/arena fork from regrowing:
// outside package il, no non-test file under internal/ or cmd/ builds an IL
// node as &il.T{…}. Node kinds and call sites have bypassed the arena
// unnoticed before (the DOACROSS markers, the masked stores).
func TestILNodesComeFromAnArena(t *testing.T) {
	fset := token.NewFileSet()
	nodes := ilNodeTypes(t, fset)
	used := make([]bool, len(literalAllowed))
	forEachGoFile(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/il/") {
			return
		}
		ilName := ilImportName(f)
		if ilName == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			u, ok := n.(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			lit, ok := u.X.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != ilName || !nodes[sel.Sel.Name] {
				return true
			}
			for i, a := range literalAllowed {
				if a.file == path && (a.node == "*" || a.node == sel.Sel.Name) {
					used[i] = true
					return true
				}
			}
			t.Errorf("%s: &%s.%s{…} builds an IL node outside an arena; use p.Arena().%s(…)",
				fset.Position(u.Pos()), ilName, sel.Sel.Name, sel.Sel.Name)
			return true
		})
	})
	for i, a := range literalAllowed {
		if !used[i] {
			t.Errorf("allow-list entry %s (%s) matches nothing; delete it", a.file, a.node)
		}
	}
}

// TestOneAffineDecomposer keeps base + coef·iv decomposed in one place:
// il.Affine finds the form, il.LinearTerms flattens what is left, and the
// consumers derive from the pair. A walker of its own has to switch on
// il.OpMul to scale a coefficient, so outside il (and codegen, which
// selects multiply instructions) no non-test file may; and the walkers and
// small facts that were folded into il must not be declared again.
func TestOneAffineDecomposer(t *testing.T) {
	gone := map[string]bool{}
	for _, name := range strings.Fields(`tripCount tripConst pureExpr pureNoLoad isSimpleBound
		linearize2 scaleLin splitAffine mustSplit`) {
		gone[name] = true
	}
	fset := token.NewFileSet()
	forEachGoFile(t, fset, func(path string, f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && gone[fn.Name.Name] {
				t.Errorf("%s: %s is back; il has the one spelling (Affine, LinearTerms, TripCount, LoadFree)",
					fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
		ilName := ilImportName(f)
		if ilName == "" || strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/codegen/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, x := range cc.List {
				sel, ok := x.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "OpMul" {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == ilName {
					t.Errorf("%s: case %s.OpMul outside il and codegen: decompose with (*il.Arena).Affine instead of walking the sum again",
						fset.Position(cc.Pos()), ilName)
				}
			}
			return true
		})
	})
}

// walkerAllowed lists the only functions outside package il that may
// descend into a statement's nested lists by calling themselves.
var walkerAllowed = []struct{ file, fn, why string }{
	{"internal/opt/constprop.go", "postpassUnreachable",
		"top-down, not bottom-up: each nested list is cleaned knowing the label control falls to after its parent, which a leave callback is not told"},
}

// TestOneStatementTreeRewriter keeps "which statements hold statement
// lists" known to package il alone: il.WalkStmts reads a tree,
// il.RewriteStmts rewrites one, and the phases are callbacks on them. A
// walker of its own has to assign a nested list from a call to itself, so
// outside il no non-test function — nor a function literal bound to a
// variable — may; a forgotten case in such a switch is a silently
// unvisited body.
func TestOneStatementTreeRewriter(t *testing.T) {
	fset := token.NewFileSet()
	used := make([]bool, len(walkerAllowed))
	forEachGoFile(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/il/") {
			return
		}
		// check reports the assignments in body that store self's own
		// result into a nested-list field.
		check := func(owner, self string, body ast.Node) {
			ast.Inspect(body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					field, ok := lhs.(*ast.SelectorExpr)
					if !ok || (field.Sel.Name != "Then" && field.Sel.Name != "Else" && field.Sel.Name != "Body") {
						continue
					}
					call, ok := as.Rhs[i].(*ast.CallExpr)
					if !ok {
						continue
					}
					callee := ""
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						callee = fun.Name
					case *ast.SelectorExpr:
						callee = fun.Sel.Name
					}
					if callee != self {
						continue
					}
					allowed := false
					for j, a := range walkerAllowed {
						if a.file == path && a.fn == owner {
							used[j], allowed = true, true
						}
					}
					if !allowed {
						t.Errorf("%s: %s walks nested statement lists by itself (.%s = %s(…)); make it a callback on il.RewriteStmts or il.WalkStmts",
							fset.Position(as.Pos()), owner, field.Sel.Name, self)
					}
				}
				return true
			})
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			check(fn.Name.Name, fn.Name.Name, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, rhs := range as.Rhs {
					lit, isLit := rhs.(*ast.FuncLit)
					name, isIdent := as.Lhs[i].(*ast.Ident)
					if isLit && isIdent {
						check(fn.Name.Name, name.Name, lit.Body)
					}
				}
				return true
			})
		}
	})
	for i, a := range walkerAllowed {
		if !used[i] {
			t.Errorf("allow-list entry %s (%s) matches nothing; delete it", a.file, a.fn)
		}
	}
}

// rewroteAllowed lists the only functions outside package il that may
// report through il.Proc.Rewrote, each with the reason its rewrites leave
// every statement and definition site where it was.
var rewroteAllowed = []struct{ file, fn, why string }{
	{"internal/opt/dce.go", "copyPropOnce",
		"copy propagation replaces uses inside existing statements; a store's destination stays a store and a scalar destination is never rewritten"},
	{"internal/opt/constprop.go", "propagateOnce",
		"constant substitution and folding replace expressions inside existing statements; the deletions after them (simplifyControl, postpassUnreachable) report through Changed"},
}

// TestRewroteCallersAllowListed: Rewrote keeps the cached reaching
// definitions, so a caller that moves a definition leaves use-def chains
// silently stale. Outside il, no non-test function but the allow-listed
// ones may call it; a new caller is a reviewed edit of this list.
func TestRewroteCallersAllowListed(t *testing.T) {
	fset := token.NewFileSet()
	used := make([]bool, len(rewroteAllowed))
	forEachGoFile(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/il/") {
			return
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Rewrote" {
					return true
				}
				for i, a := range rewroteAllowed {
					if a.file == path && a.fn == fn.Name.Name {
						used[i] = true
						return true
					}
				}
				t.Errorf("%s: %s calls Rewrote; a rewrite that may move a statement or definition reports through Changed",
					fset.Position(call.Pos()), fn.Name.Name)
				return true
			})
		}
	})
	for i, a := range rewroteAllowed {
		if !used[i] {
			t.Errorf("allow-list entry %s (%s) matches nothing; delete it", a.file, a.fn)
		}
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ProbeGuard enforces the nil-probe discipline: the observability
// layer is disabled by leaving Machine.Probe nil, so every call to a
// method on a *obs.Probe value must be dominated by a nil check of the
// same receiver expression — either an enclosing `if p != nil { ... }`
// or an earlier `if p == nil { return }` in the same block. The obs
// package itself is exempt (it is the implementation).
var ProbeGuard = &Analyzer{
	Name: "probeguard",
	Doc:  "require a nil check around every *obs.Probe method call",
	Run:  runProbeGuard,
}

func runProbeGuard(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path(), "internal/obs") {
		return
	}
	for _, f := range p.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := p.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal || !isProbePtr(selection.Recv()) {
				return true
			}
			recv := types.ExprString(sel.X)
			if !guardedAt(call, recv, parents) {
				p.Reportf(call.Pos(),
					"call to (%s).%s without a %s != nil guard; a disabled probe is nil",
					recv, sel.Sel.Name, recv)
			}
			return true
		})
	}
}

// isProbePtr reports whether t is *obs.Probe.
func isProbePtr(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Probe" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// buildParents records each node's syntactic parent.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// guardedAt walks from the call up to the function root looking for a
// dominating nil check of recv: an enclosing if whose taken branch
// proves recv non-nil, or an earlier terminating `if recv == nil`
// statement in an enclosing block.
func guardedAt(call ast.Node, recv string, parents map[ast.Node]ast.Node) bool {
	child := call
	for {
		anc := parents[child]
		if anc == nil {
			return false
		}
		switch s := anc.(type) {
		case *ast.IfStmt:
			if child == ast.Node(s.Body) && nilCompares(s.Cond, token.NEQ)[recv] {
				return true
			}
			if s.Else != nil && child == s.Else && nilCompares(s.Cond, token.EQL)[recv] {
				return true
			}
		case *ast.BlockStmt:
			for _, st := range s.List {
				if st == child {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if ok && ifs.Else == nil && terminates(ifs.Body) && nilCompares(ifs.Cond, token.EQL)[recv] {
					return true
				}
			}
		}
		child = anc
	}
}

// nilCompares collects the rendered expressions that cond compares
// against nil with op. For op == NEQ the checks may be joined by &&
// (all hold in the taken branch); for op == EQL by || (each failing
// check terminates, so all operands are non-nil afterwards).
func nilCompares(cond ast.Expr, op token.Token) map[string]bool {
	out := make(map[string]bool)
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch b := e.(type) {
		case *ast.ParenExpr:
			walk(b.X)
		case *ast.BinaryExpr:
			if (op == token.NEQ && b.Op == token.LAND) || (op == token.EQL && b.Op == token.LOR) {
				walk(b.X)
				walk(b.Y)
				return
			}
			if b.Op != op {
				return
			}
			switch {
			case isNilIdent(b.Y):
				out[types.ExprString(b.X)] = true
			case isNilIdent(b.X):
				out[types.ExprString(b.Y)] = true
			}
		}
	}
	walk(cond)
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether the block's last statement leaves the
// enclosing scope (return, panic, or a branch).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

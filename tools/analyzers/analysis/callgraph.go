package analysis

// Package-level call-graph summaries. The protocol analyzers need
// "does this function, directly or through package-local helpers,
// eventually do X" — launch a compute kernel, tick the fault injector,
// call a verifier. The graph is intraprocedural-resolution only:
// calls through interfaces, function values, or other packages are
// not edges (their effects are invisible here and analyzers treat
// them conservatively at the call site).

import (
	"go/ast"
	"go/types"
)

// CallGraph is the static call graph of one package.
type CallGraph struct {
	decls   map[*types.Func]*ast.FuncDecl
	callees map[*types.Func]map[*types.Func]bool
}

// BuildCallGraph constructs the call graph of the pass's package.
// Function literals are folded into their enclosing declaration: a
// call made inside a closure counts as a call by the function that
// created it (closures here are kernel bodies executed at launch).
func BuildCallGraph(pass *Pass) *CallGraph {
	cg := &CallGraph{
		decls:   map[*types.Func]*ast.FuncDecl{},
		callees: map[*types.Func]map[*types.Func]bool{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.decls[fn] = fd
			if fd.Body == nil {
				continue
			}
			set := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := CalleeOf(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
					set[callee] = true
				}
				return true
			})
			cg.callees[fn] = set
		}
	}
	return cg
}

// CalleeOf resolves the static callee of a call, or nil when the call
// is through a function value, a conversion, or a builtin.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

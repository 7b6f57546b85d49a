package analysis

// Reaching-definition support for the flow-aware analyzers. The
// functions they inspect are short and assign the objects they track
// (mutexes, in lockcheck) once or a few times, so a flow-insensitive
// definition collection is precise enough in practice: an analyzer
// that needs "which expressions can this identifier hold" unions every
// assignment, and path-sensitive questions go through CFG.Reachable.

import (
	"go/ast"
	"go/types"
)

// DefUse summarizes the local variables of one function.
type DefUse struct {
	// Defs maps each local object to every expression assigned to it
	// (from :=, =, and var declarations with initializers). A variable
	// declared without an initializer has an entry with a nil slice.
	Defs map[types.Object][]ast.Expr
	// Params holds the function's parameters (and receiver), which are
	// definitions whose value comes from the caller.
	Params map[types.Object]bool
}

// CollectDefUse scans fn's body, including nested function literals.
func CollectDefUse(fn *ast.FuncDecl, info *types.Info) *DefUse {
	du := &DefUse{
		Defs:   map[types.Object][]ast.Expr{},
		Params: map[types.Object]bool{},
	}
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					du.Params[obj] = true
				}
			}
		}
	}
	addParams(fn.Recv)
	if fn.Type != nil {
		addParams(fn.Type.Params)
		addParams(fn.Type.Results)
	}
	if fn.Body == nil {
		return du
	}

	record := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue // field or index assignment: not a local def
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || id.Name == "_" {
				continue
			}
			var v ast.Expr
			if len(rhs) == len(lhs) {
				v = rhs[i]
			} else if len(rhs) == 1 {
				v = rhs[0] // multi-value assignment: every LHS sees the call
			}
			if v != nil {
				du.Defs[obj] = append(du.Defs[obj], v)
			} else if _, ok := du.Defs[obj]; !ok {
				du.Defs[obj] = nil
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			record(n.Lhs, n.Rhs)
		case *ast.RangeStmt:
			var lhs []ast.Expr
			if n.Key != nil {
				lhs = append(lhs, n.Key)
			}
			if n.Value != nil {
				lhs = append(lhs, n.Value)
			}
			record(lhs, nil)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, name := range n.Names {
				lhs = append(lhs, name)
			}
			record(lhs, n.Values)
		}
		return true
	})
	return du
}

package goleak

// Goroutine and defer lifetime tracking. A function's CFG already
// places every statement; this file picks out the statements whose
// effects outlive the statement — `go` launches a concurrent body,
// `defer` schedules a call for function exit — so the join checks can
// ask dominance and reachability questions about them ("is this spawn
// joined on every path to exit?", "is the Done deferred?").

import (
	"go/ast"
	"go/types"

	"abftchol/tools/analyzers/analysis"
)

// spawnSite is one `go` statement.
type spawnSite struct {
	// Go is the statement itself.
	Go *ast.GoStmt
	// Node is its CFG node.
	Node *analysis.Node
	// Body is the launched function literal, nil for `go expr()` on a
	// method or function value (whose body lives elsewhere).
	Body *ast.FuncLit
}

// lifetime lists the escape points of one function body.
type lifetime struct {
	Spawns []spawnSite
	// Defers holds each deferred call.
	Defers []*ast.CallExpr
}

// collectLifetime walks the CFG for go and defer statements. Both are
// statements in Go's grammar, so each is its own CFG node; statements
// inside nested function literals belong to those literals' lifetimes
// and are not collected here.
func collectLifetime(g *analysis.CFG) *lifetime {
	lt := &lifetime{}
	for _, node := range g.Nodes {
		if node.Kind != analysis.NodeStmt {
			continue
		}
		switch s := node.Stmt.(type) {
		case *ast.GoStmt:
			site := spawnSite{Go: s, Node: node}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				site.Body = lit
			}
			lt.Spawns = append(lt.Spawns, site)
		case *ast.DeferStmt:
			lt.Defers = append(lt.Defers, s.Call)
		}
	}
	return lt
}

// waitGroupCall matches a call of the named sync.WaitGroup method
// (Add, Done, Wait), returning the receiver expression.
func waitGroupCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return nil, "", false
	}
	tv, has := info.Types[sel.X]
	if !has || !isWaitGroupType(tv.Type) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

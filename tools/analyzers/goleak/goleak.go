// Package goleak verifies that every goroutine spawned by the
// parallel sweep engine (internal/experiments), the blocked
// right-looking kernels (internal/blas), the checksum kernels
// (internal/checksum), the ABFT executor (internal/core), the job
// daemon (internal/server), and the reliability campaign engine
// (internal/reliability) is joined before its spawner returns. The
// engine's determinism contract — byte-identical output at -parallel 1
// and -parallel N — relies on every worker finishing before results
// are assembled, and a kernel goroutine still writing the shared
// matrix after its kernel "completes" races the next kernel. Either
// way the corruption is silent, exactly the class the paper's online
// ABFT exists to catch at the next checksum — except no checksum
// models it. Catch it at lint time instead.
//
// For each `go func(){...}()` the analyzer identifies the join
// mechanism and checks it flow-sensitively on the spawner's CFG:
//
//   - sync.WaitGroup: the matching wg.Add must dominate the spawn
//     (Add after `go` races the Wait), wg.Done must run on every exit
//     path of the goroutine body (defer it), and wg.Wait must be
//     crossed on every path from the spawn to the spawner's return —
//     including the zero-trip edge of any loop the Wait hides in.
//   - channel: the goroutine sends on (or closes) a channel and the
//     spawner receives from it on some path, or the channel escapes
//     (parameter, field, captured from an enclosing scope, returned
//     to the caller) so an outer join is plausible. A channel the
//     literal takes as a parameter is judged by the argument the
//     spawn binds to it.
//   - neither: the spawn has no join point and is flagged.
//
// `go method()` spawns (no literal body) are outside the analysis:
// their join question belongs to a body this pass does not see.
package goleak

import (
	"go/ast"
	"go/types"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; it is also the driver help text.
const Doc = "require every go statement to have a join point reachable on all exits: wg.Add dominating the spawn, wg.Done on every goroutine exit path, wg.Wait (or a channel receive) on every spawner path to return"

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:  "goleak",
	Doc:   Doc,
	Scope: "internal/experiments, internal/blas, internal/checksum, internal/core, internal/server, internal/reliability",
	AppliesTo: analysis.PathIn(
		"abftchol/internal/experiments",
		"abftchol/internal/blas",
		"abftchol/internal/checksum",
		"abftchol/internal/core",
		"abftchol/internal/server",
		"abftchol/internal/reliability",
	),
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !spawns(fd.Body) {
		return // most functions spawn nothing; skip building their CFG
	}
	g := analysis.BuildCFG(fd.Body)
	lt := collectLifetime(g)
	if len(lt.Spawns) == 0 {
		return
	}
	info := pass.TypesInfo
	for _, sp := range lt.Spawns {
		if sp.Body == nil {
			continue // method-value spawn: no body to inspect
		}
		if wg, ok := waitGroupFor(info, sp); ok {
			checkWaitGroupJoin(pass, fd, g, sp, wg)
			continue
		}
		if ch, local, ok := channelFor(info, fd, sp); ok {
			if local && !spawnerReceives(info, fd, sp, ch) {
				pass.Reportf(sp.Go.Pos(), "goroutine signals on local channel %s but the spawner never receives from it; the goroutine may outlive (or block forever inside) %s", types.ExprString(ch), fd.Name.Name)
			}
			continue
		}
		pass.Reportf(sp.Go.Pos(), "goroutine has no join point: no WaitGroup, no channel the spawner waits on; it can outlive %s and race later work", fd.Name.Name)
	}
}

// spawns reports whether body contains a go statement at any depth.
func spawns(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// ---- WaitGroup discipline -------------------------------------------

// waitGroupFor finds the WaitGroup the goroutine body reports to: a
// Done call inside the body (possibly deferred), keyed by receiver
// expression text.
func waitGroupFor(info *types.Info, sp spawnSite) (recv string, ok bool) {
	ast.Inspect(sp.Body.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if r, method, is := waitGroupCall(info, call); is && method == "Done" {
			recv, ok = types.ExprString(r), true
			return false
		}
		return true
	})
	return recv, ok
}

func checkWaitGroupJoin(pass *analysis.Pass, fd *ast.FuncDecl, g *analysis.CFG, sp spawnSite, wg string) {
	info := pass.TypesInfo

	// (a) Add must dominate the spawn: on every path reaching the `go`,
	// the counter is already up. An Add after (or merely sometimes
	// before) the spawn lets Wait return while the goroutine runs.
	addNodes := nodesCalling(g, info, wg, "Add")
	dom := g.Dominators()
	dominated := false
	for _, n := range addNodes {
		if dom[sp.Node.Index][n] && n != sp.Node {
			dominated = true
			break
		}
	}
	// Add in the same statement list position can't happen (Add is its
	// own statement) but Add textually inside the spawn node would be
	// Add inside the goroutine body — also wrong, and not dominating.
	if !dominated {
		pass.Reportf(sp.Go.Pos(), "%s.Add does not dominate this spawn; every path to the go statement must Add first or %s.Wait can return early", wg, wg)
	}

	// (b) Done on every exit path of the goroutine body. A deferred
	// Done covers all exits including panics; otherwise the body's exit
	// must be unreachable when Done nodes are barred.
	body := analysis.BuildCFG(sp.Body.Body)
	deferredDone := false
	for _, call := range collectLifetime(body).Defers {
		if r, method, is := waitGroupCall(info, call); is && method == "Done" && types.ExprString(r) == wg {
			deferredDone = true
		}
	}
	if !deferredDone {
		doneNodes := map[*analysis.Node]bool{}
		for _, n := range nodesCalling(body, info, wg, "Done") {
			doneNodes[n] = true
		}
		reach := body.Reachable(body.Entry, func(n *analysis.Node) bool { return doneNodes[n] })
		if reach[body.Exit] {
			pass.Reportf(sp.Go.Pos(), "%s.Done is not called on every exit path of the goroutine body; defer %s.Done() so panics and early returns still count down", wg, wg)
		}
	}

	// (c) Wait joins every path from the spawn to the spawner's return.
	// A deferred Wait always runs; otherwise bar the Wait nodes and ask
	// whether exit is still reachable — zero-trip loop edges count, so
	// a Wait only inside `for range xs { ... }` does not join when xs
	// is empty.
	for _, call := range collectLifetime(g).Defers {
		if r, method, is := waitGroupCall(info, call); is && method == "Wait" && types.ExprString(r) == wg {
			return
		}
	}
	waitNodes := map[*analysis.Node]bool{}
	for _, n := range nodesCalling(g, info, wg, "Wait") {
		waitNodes[n] = true
	}
	reach := g.Reachable(sp.Node, func(n *analysis.Node) bool { return waitNodes[n] })
	if reach[g.Exit] {
		pass.Reportf(sp.Go.Pos(), "goroutine is not joined on every path: %s can return without crossing %s.Wait", fd.Name.Name, wg)
	}
}

// nodesCalling lists CFG nodes containing a call of the named
// WaitGroup method on the given receiver (by expression text), not
// descending into function literals.
func nodesCalling(g *analysis.CFG, info *types.Info, recv, method string) []*analysis.Node {
	var out []*analysis.Node
	for _, node := range g.Nodes {
		var root ast.Node
		switch {
		case node.Kind == analysis.NodeStmt:
			root = node.Stmt
		case node.Kind == analysis.NodeCond && node.Cond != nil:
			root = node.Cond
		default:
			continue
		}
		found := false
		ast.Inspect(root, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if _, isGo := n.(*ast.GoStmt); isGo && node.Stmt != n {
				return false
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if r, m, is := waitGroupCall(info, call); is && m == method && types.ExprString(r) == recv {
				found = true
			}
			return true
		})
		if found {
			out = append(out, node)
		}
	}
	return out
}

// ---- channel joins ---------------------------------------------------

// channelFor finds a channel the goroutine body signals on (send or
// close), resolved to the spawner's expression for it. local reports
// whether that channel is declared inside the spawning function and
// not returned from it — only then can this pass demand the join
// locally; params, fields, captures, and returned channels may be
// joined by a caller.
func channelFor(info *types.Info, fd *ast.FuncDecl, sp spawnSite) (ch ast.Expr, local, ok bool) {
	ast.Inspect(sp.Body.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			ch, ok = n.Chan, true
			return false
		case *ast.CallExpr:
			if id, isID := n.Fun.(*ast.Ident); isID && id.Name == "close" && len(n.Args) == 1 {
				if tv, has := info.Types[n.Args[0]]; has && isChanType(tv.Type) {
					ch, ok = n.Args[0], true
					return false
				}
			}
		}
		return true
	})
	if !ok {
		return nil, false, false
	}
	ch = boundArg(info, sp, ch)
	obj := varOf(info, ch)
	local = obj != nil && obj.Pos() > fd.Body.Pos() && obj.Pos() < fd.Body.End() &&
		!returned(info, fd, obj)
	return ch, local, true
}

// varOf resolves a channel expression that is a simple variable to
// its object; nil for fields, calls, and other expressions.
func varOf(info *types.Info, ch ast.Expr) types.Object {
	id, isID := ast.Unparen(ch).(*ast.Ident)
	if !isID {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// boundArg maps a channel the goroutine literal names by one of its
// own parameters to the argument the spawn binds to that parameter:
// `go func(d chan<- T) { d <- v }(done)` signals on done.
func boundArg(info *types.Info, sp spawnSite, ch ast.Expr) ast.Expr {
	obj := varOf(info, ch)
	if obj == nil {
		return ch
	}
	i := 0
	for _, field := range sp.Body.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == obj && i < len(sp.Go.Call.Args) {
				return sp.Go.Call.Args[i]
			}
			i++
		}
	}
	return ch
}

// returned reports whether fd hands the channel to its caller in one
// of its own return statements; the join then belongs to the caller.
func returned(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if varOf(info, r) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// spawnerReceives reports whether the spawning function (outside the
// goroutine body) receives from the channel: a unary <-, a range over
// it, or a select with a receive case on it.
func spawnerReceives(info *types.Info, fd *ast.FuncDecl, sp spawnSite, ch ast.Expr) bool {
	key := types.ExprString(ast.Unparen(ch))
	sameChan := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		if tv, has := info.Types[e]; !has || !isChanType(tv.Type) {
			return false
		}
		return types.ExprString(ast.Unparen(e)) == key
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == sp.Go {
			return false // the goroutine's own receives don't join it
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && sameChan(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if sameChan(n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

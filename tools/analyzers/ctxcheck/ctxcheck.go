// Package ctxcheck proves the cancellation discipline of the serving
// and campaign planes. The abftd daemon long-polls, streams SSE, and
// runs million-trial campaigns on behalf of HTTP clients; every one of
// those paths holds a goroutine (and often s.mu-adjacent state) on
// behalf of a request, so a blocking operation that ignores the
// request's context turns one disconnected client into a leaked
// goroutine or an undrainable daemon. The compiler enforces none of
// this; until now it was convention.
//
// A function is request-scoped when its signature carries a
// context.Context or *http.Request parameter; function literals it
// builds inherit that status, except literals launched with `go` or
// passed to guard.Group.Go — those run on their own goroutine, which
// the Group's Wait joins.
// Within request-scoped code, in non-test files:
//
//	R1: context.Background() / context.TODO() never appears. Minting a
//	    fresh root context detaches the work from its request.
//	R2: every blocking select (no default clause) carries a case
//	    receiving from a ctx.Done() channel or from a deadline channel
//	    (a channel of time.Time: Clock.After, time.After, Timer.C).
//	R3: a standalone channel send or receive must be receiving from
//	    Done()/a deadline channel, or be dominated — zero-trip loop
//	    edges honored, so a deadline minted only inside a maybe-empty
//	    loop does not count — by a context.WithTimeout/WithDeadline
//	    call that bounds it.
//	R4: a loop whose body blocks (channel ops outside
//	    select-with-default, blocking selects, or calls that block:
//	    Scheduler.Execute, http.Client.Do, campaign.Run,
//	    WaitGroup.Wait, guard.Group.Wait, or a package-local callee
//	    whose summary blocks) must observe cancellation each
//	    iteration via ctx.Err(), ctx.Done(), or an R2-satisfying select.
//
// One rule applies to all non-test code in scope, request-scoped or
// not: R5 — net/http requests must be built with
// NewRequestWithContext, never NewRequest/Get/Post/Head/PostForm,
// so the transport can abandon the round-trip on cancellation.
//
// The blocking-call summaries reuse the SCC-condensed facts of
// analysis.Summarize; they deliberately overcount (a send inside a
// callee's select-with-default still marks the callee blocking) —
// the summaries are a sound over-approximation, and the escape hatch for
// a loop proven convergent by other means is //nolint:ctxcheck with a
// justification.
package ctxcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; it is also the driver help text.
const Doc = "prove request-scoped code honors cancellation: no context.Background on request paths, blocking selects carry a ctx.Done/deadline case, bare channel ops are deadline-dominated, blocking loops re-check cancellation per iteration, HTTP requests carry their context"

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:  "ctxcheck",
	Doc:   Doc,
	Scope: "internal/core, internal/server, internal/experiments, internal/reliability, cmd/abftd",
	AppliesTo: analysis.PathIn(
		"abftchol/internal/core",
		"abftchol/internal/server",
		"abftchol/internal/experiments",
		"abftchol/internal/reliability",
		"abftchol/cmd/abftd",
	),
	Run: run,
}

// factBlocking marks a function that can block on a channel or a
// curated blocking callable.
const factBlocking analysis.Facts = 1

func run(pass *analysis.Pass) error {
	cg := analysis.BuildCallGraph(pass)
	sums := cg.Summarize(blockingLocal(pass.TypesInfo))
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHTTPConstructors(pass, fd)
			if !requestScoped(pass.TypesInfo, fd) {
				continue
			}
			for _, body := range gatherUnits(pass.TypesInfo, fd.Body) {
				c := &checker{pass: pass, info: pass.TypesInfo, sums: sums, body: body}
				c.check()
			}
		}
	}
	return nil
}

// requestScoped reports whether the function's signature carries a
// context.Context or *http.Request parameter.
func requestScoped(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		switch tv.Type.String() {
		case "context.Context", "*net/http.Request":
			return true
		}
	}
	return false
}

// gatherUnits returns the function body plus every function literal
// body that runs on the same goroutine: literals launched with `go` or
// passed to (*guard.Group).Go (and everything inside them) are
// excluded — they are joined by a Wait, not bound to the request.
func gatherUnits(info *types.Info, body *ast.BlockStmt) []*ast.BlockStmt {
	units := []*ast.BlockStmt{body}
	spawned := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				spawned[lit] = true
			}
		case *ast.CallExpr:
			if callee := analysis.CalleeOf(info, n); callee != nil && callee.FullName() == "(*abftchol/internal/guard.Group).Go" {
				if lit, ok := n.Args[0].(*ast.FuncLit); ok {
					spawned[lit] = true
				}
			}
		case *ast.FuncLit:
			if !spawned[n] {
				units = append(units, gatherUnits(info, n.Body)...)
			}
			return false
		}
		return true
	})
	return units
}

// checker analyzes one same-goroutine unit of a request-scoped
// function.
type checker struct {
	pass *analysis.Pass
	info *types.Info
	sums map[*types.Func]analysis.Facts
	body *ast.BlockStmt

	g   *analysis.CFG
	dom []map[*analysis.Node]bool
}

// check walks the unit applying R1–R4. Nested function literals are
// skipped: they are their own units (or excluded go-spawns).
func (c *checker) check() {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isPkgCallIn(c.info, n, "context", "Background", "TODO") {
				c.pass.Reportf(n.Pos(), "context.%s() in request-scoped code detaches the work from its request; derive from the caller's ctx (or r.Context())", calleeName(n))
			}
		case *ast.SelectStmt:
			hasDefault, hasCancel := c.selectCancel(n)
			if !hasDefault && !hasCancel {
				c.pass.Reportf(n.Pos(), "blocking select on a request path has no ctx.Done() or deadline case; a disconnected client would park this goroutine forever")
			}
			// Comm clauses are the select's own non-standalone channel
			// ops; walk only the case bodies.
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.SendStmt:
			c.checkBareOp(n.Pos(), "send", nil)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.checkBareOp(n.Pos(), "receive", n.X)
			}
		case *ast.ForStmt:
			c.checkLoop(n.Pos(), n.Body)
		case *ast.RangeStmt:
			c.checkLoop(n.Pos(), n.Body)
		}
		return true
	}
	ast.Inspect(c.body, walk)
}

// checkBareOp is R3: a channel operation outside any select. Receives
// from Done()/deadline channels are cancellation primitives and pass;
// anything else must be dominated by a WithTimeout/WithDeadline call.
func (c *checker) checkBareOp(pos token.Pos, kind string, operand ast.Expr) {
	if operand != nil && (c.isDoneCall(operand) || c.isDeadlineChan(operand)) {
		return
	}
	if c.deadlineDominated(pos) {
		return
	}
	c.pass.Reportf(pos, "bare channel %s on a request path neither selects on ctx.Done() nor is dominated by a context.WithTimeout/WithDeadline call; it can block past the request's lifetime", kind)
}

// deadlineDominated reports whether the statement holding pos is
// dominated by a context.WithTimeout/WithDeadline call. Dominators
// honor zero-trip loop edges, so a deadline minted only inside a
// maybe-empty loop body does not protect code after the loop.
func (c *checker) deadlineDominated(pos token.Pos) bool {
	if c.g == nil {
		c.g = analysis.BuildCFG(c.body)
	}
	node := c.nodeAt(pos)
	if node == nil {
		return false
	}
	if c.dom == nil {
		c.dom = c.g.Dominators()
	}
	for d := range c.dom[node.Index] {
		if c.hasDeadlineCall(d) {
			return true
		}
	}
	return false
}

// nodeAt finds the smallest-span CFG node whose statement or
// condition contains pos.
func (c *checker) nodeAt(pos token.Pos) *analysis.Node {
	var best *analysis.Node
	var bestSpan token.Pos
	for _, n := range c.g.Nodes {
		var root ast.Node
		switch {
		case n.Kind == analysis.NodeStmt && n.Stmt != nil:
			root = n.Stmt
		case n.Kind == analysis.NodeCond && n.Cond != nil:
			root = n.Cond
		default:
			continue
		}
		if root.Pos() > pos || root.End() <= pos {
			continue
		}
		if span := root.End() - root.Pos(); best == nil || span < bestSpan {
			best, bestSpan = n, span
		}
	}
	return best
}

// hasDeadlineCall reports whether the node's statement or condition
// calls context.WithTimeout or context.WithDeadline.
func (c *checker) hasDeadlineCall(n *analysis.Node) bool {
	var root ast.Node
	switch {
	case n.Kind == analysis.NodeStmt && n.Stmt != nil:
		root = n.Stmt
	case n.Kind == analysis.NodeCond && n.Cond != nil:
		root = n.Cond
	default:
		return false
	}
	found := false
	ast.Inspect(root, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && isPkgCallIn(c.info, call, "context", "WithTimeout", "WithDeadline") {
			found = true
		}
		return !found
	})
	return found
}

// checkLoop is R4: a loop that can block each iteration must also
// observe cancellation each iteration.
func (c *checker) checkLoop(pos token.Pos, body *ast.BlockStmt) {
	blocking, cancel := c.loopProfile(body)
	if blocking && !cancel {
		c.pass.Reportf(pos, "loop with blocking operations does not observe cancellation per iteration; add a ctx.Err() check or a ctx.Done() select case so shutdown and client disconnects terminate it")
	}
}

// loopProfile scans a loop body (function literals excluded) for
// blocking operations and cancellation observations. Channel ops
// inside a select carrying a default clause are non-blocking probes
// and do not count.
func (c *checker) loopProfile(body *ast.BlockStmt) (blocking, cancel bool) {
	defaultComms := map[ast.Stmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			if hasDefault, _ := c.selectCancel(sel); hasDefault {
				for _, cl := range sel.Body.List {
					if comm := cl.(*ast.CommClause).Comm; comm != nil {
						defaultComms[comm] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if s, isStmt := n.(ast.Stmt); isStmt && defaultComms[s] {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				break
			}
			switch {
			case c.isDoneCall(n.X):
				cancel = true
			case c.isDeadlineChan(n.X):
				// a bounded wait, not an unbounded block
			default:
				blocking = true
			}
		case *ast.SelectStmt:
			hasDefault, hasCancel := c.selectCancel(n)
			if !hasDefault {
				blocking = true
				if hasCancel {
					cancel = true
				}
			}
		case *ast.CallExpr:
			if c.isCtxObserve(n) {
				cancel = true
			}
			if c.isBlockingCall(n) {
				blocking = true
			}
		}
		return true
	})
	return blocking, cancel
}

// selectCancel classifies a select: whether it has a default clause,
// and whether some case receives from a Done() or deadline channel.
func (c *checker) selectCancel(sel *ast.SelectStmt) (hasDefault, hasCancel bool) {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		var operand ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				operand = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					operand = u.X
				}
			}
		}
		if operand != nil && (c.isDoneCall(operand) || c.isDeadlineChan(operand)) {
			hasCancel = true
		}
	}
	return hasDefault, hasCancel
}

// isDoneCall matches `x.Done()` with x a context.Context.
func (c *checker) isDoneCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, has := c.info.Types[sel.X]
	return has && tv.Type != nil && tv.Type.String() == "context.Context"
}

// isDeadlineChan matches expressions of type chan time.Time: the
// injected Clock.After, time.After, and Timer.C all wait out a bound.
func (c *checker) isDeadlineChan(e ast.Expr) bool {
	tv, has := c.info.Types[e]
	if !has || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	return ok && ch.Elem().String() == "time.Time"
}

// isCtxObserve matches ctx.Err() and ctx.Done() calls — the
// per-iteration cancellation observations R4 accepts.
func (c *checker) isCtxObserve(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
		return false
	}
	tv, has := c.info.Types[sel.X]
	return has && tv.Type != nil && tv.Type.String() == "context.Context"
}

// isBlockingCall matches the curated blocking callables plus any
// package-local callee whose summary blocks.
func (c *checker) isBlockingCall(call *ast.CallExpr) bool {
	callee := analysis.CalleeOf(c.info, call)
	if callee == nil {
		return false
	}
	return blockingCallable(callee) || callee.Pkg() == c.pass.Pkg && c.sums[callee].Any(factBlocking)
}

// blockingCallable is the curated cross-package table of calls that
// block until external work completes.
func blockingCallable(callee *types.Func) bool {
	switch callee.FullName() {
	case "(*net/http.Client).Do",
		"(*sync.WaitGroup).Wait",
		"(*abftchol/internal/guard.Group).Wait",
		"(*abftchol/internal/experiments.Scheduler).Execute",
		"abftchol/internal/reliability/campaign.Run":
		return true
	}
	return false
}

// blockingLocal is the per-node classifier Summarize propagates:
// channel operations and curated blocking calls.
func blockingLocal(info *types.Info) func(ast.Node) analysis.Facts {
	return func(n ast.Node) analysis.Facts {
		switch n := n.(type) {
		case *ast.SendStmt:
			return factBlocking
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				return factBlocking
			}
		case *ast.CallExpr:
			if callee := analysis.CalleeOf(info, n); callee != nil && blockingCallable(callee) {
				return factBlocking
			}
		}
		return 0
	}
}

// checkHTTPConstructors is R5 and applies to every function in scope:
// requests must carry their context from construction.
func checkHTTPConstructors(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeOf(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "net/http" {
			return true
		}
		if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // a method (Header.Get, Client.Head, …), not a package function
		}
		switch callee.Name() {
		case "NewRequest":
			pass.Reportf(call.Pos(), "http.NewRequest builds a context-free request; use http.NewRequestWithContext so the round-trip dies with its caller")
		case "Get", "Post", "Head", "PostForm":
			pass.Reportf(call.Pos(), "http.%s carries no context; build the request with http.NewRequestWithContext and send it through a client", callee.Name())
		}
		return true
	})
}

// isPkgCallIn matches a call to one of pkg's named functions.
func isPkgCallIn(info *types.Info, call *ast.CallExpr, pkg string, names ...string) bool {
	callee := analysis.CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != pkg {
		return false
	}
	for _, n := range names {
		if callee.Name() == n {
			return true
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

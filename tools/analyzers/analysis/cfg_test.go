package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses a source file and returns the body of the named
// function.
func parseBody(t *testing.T, src, name string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// stmtNode returns the first node built for stmt, or nil.
func stmtNode(g *CFG, stmt ast.Stmt) *Node {
	for _, n := range g.Nodes {
		if n.Stmt == stmt {
			return n
		}
	}
	return nil
}

// reachesAvoiding reports whether to is reachable from entry without
// passing through avoid, with every loop body run at least once (zero-
// trip edges pruned). It is the negation of "avoid dominates to" under
// at-least-once loop semantics.
func reachesAvoiding(g *CFG, to, avoid *Node) bool {
	seen := map[*Node]bool{g.Entry: true}
	stack := []*Node{g.Entry}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, e := range n.Succs {
			if e.Kind == EdgeZeroTrip || e.To == avoid || seen[e.To] {
				continue
			}
			seen[e.To] = true
			stack = append(stack, e.To)
		}
	}
	return false
}

// reachable returns every node reachable from g's entry (the entry
// itself only through a cycle).
func reachable(g *CFG) map[*Node]bool {
	seen := map[*Node]bool{}
	stack := []*Node{g.Entry}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Succs {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// callNode finds the CFG node of the statement calling the named
// function.
func callNode(g *CFG, body *ast.BlockStmt, name string) *Node {
	var found *Node
	ast.Inspect(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = stmtNode(g, es)
				return false
			}
		}
		return true
	})
	return found
}

const cfgSrc = `package p

func f() bool { return true }
func a()      {}
func b()      {}
func c()      {}

func linear() { a(); b(); c() }

func branchy() {
	if f() {
		a()
	} else {
		b()
	}
	c()
}

func looped(n int) {
	for i := 0; i < n; i++ {
		a()
	}
	b()
}

func breaks(n int) {
	for i := 0; i < n; i++ {
		if f() {
			break
		}
		a()
	}
	b()
}

func labeled(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if f() {
				continue outer
			}
			a()
		}
		b()
	}
	c()
}

func switchy(x int) {
	switch x {
	case 0:
		a()
	default:
		b()
	}
	c()
}

func jumpy() {
	goto done
	a()
done:
	b()
}
`

func TestCFGLinearDominance(t *testing.T) {
	body := parseBody(t, cfgSrc, "linear")
	g := BuildCFG(body)
	dom := g.Dominators()
	na, nb, nc := callNode(g, body, "a"), callNode(g, body, "b"), callNode(g, body, "c")
	if na == nil || nb == nil || nc == nil {
		t.Fatal("missing call nodes")
	}
	if !dom[nc.Index][na] || !dom[nc.Index][nb] {
		t.Error("a and b should dominate c in straight-line code")
	}
	if dom[na.Index][nb] {
		t.Error("b must not dominate the earlier a")
	}
	if !dom[g.Exit.Index][nc] {
		t.Error("c should dominate exit")
	}
}

func TestCFGBranchDominance(t *testing.T) {
	body := parseBody(t, cfgSrc, "branchy")
	g := BuildCFG(body)
	na, nb, nc := callNode(g, body, "a"), callNode(g, body, "b"), callNode(g, body, "c")
	dom := g.Dominators()
	if dom[nc.Index][na] || dom[nc.Index][nb] {
		t.Error("neither arm of an if/else dominates the join")
	}
	if !reachesAvoiding(g, nc, na) || !reachesAvoiding(g, nc, nb) {
		t.Error("each arm of an if/else should have a path to the join around the other")
	}
}

func TestCFGLoopZeroTrip(t *testing.T) {
	body := parseBody(t, cfgSrc, "looped")
	g := BuildCFG(body)
	na, nb := callNode(g, body, "a"), callNode(g, body, "b")

	if dom := g.Dominators(); dom[nb.Index][na] {
		t.Error("loop body must not dominate the loop exit: the zero-trip edge bypasses it")
	}
	if reachesAvoiding(g, nb, na) {
		t.Error("with the zero-trip edge pruned, every path to the loop exit should cross the body")
	}
}

func TestCFGBreak(t *testing.T) {
	body := parseBody(t, cfgSrc, "breaks")
	g := BuildCFG(body)
	na, nb := callNode(g, body, "a"), callNode(g, body, "b")
	reach := reachable(g)
	if !reach[na] || !reach[nb] {
		t.Fatal("all statements should be reachable")
	}
	// Even with the zero-trip edge pruned, the break path bypasses a().
	if !reachesAvoiding(g, nb, na) {
		t.Error("break around a() must give the loop exit a path that skips it")
	}
}

func TestCFGLabeledContinue(t *testing.T) {
	body := parseBody(t, cfgSrc, "labeled")
	g := BuildCFG(body)
	na, nb, nc := callNode(g, body, "a"), callNode(g, body, "b"), callNode(g, body, "c")
	reach := reachable(g)
	for _, n := range []*Node{na, nb, nc} {
		if !reach[n] {
			t.Fatal("all statements should be reachable")
		}
	}
	// continue outer jumps past b(); with the inner loop forced to run,
	// c() must still be reachable around b().
	if !reachesAvoiding(g, nc, nb) {
		t.Error("labeled continue must provide a path around b()")
	}
}

func TestCFGSwitch(t *testing.T) {
	body := parseBody(t, cfgSrc, "switchy")
	g := BuildCFG(body)
	na, nb, nc := callNode(g, body, "a"), callNode(g, body, "b"), callNode(g, body, "c")
	dom := g.Dominators()
	if dom[nc.Index][na] || dom[nc.Index][nb] {
		t.Error("no single clause dominates the statement after a switch")
	}
	reach := reachable(g)
	if !reach[na] || !reach[nb] || !reach[nc] {
		t.Error("all clauses and the join should be reachable")
	}
}

func TestCFGGoto(t *testing.T) {
	body := parseBody(t, cfgSrc, "jumpy")
	g := BuildCFG(body)
	na, nb := callNode(g, body, "a"), callNode(g, body, "b")
	reach := reachable(g)
	if reach[na] {
		t.Error("statement jumped over by goto should be unreachable")
	}
	if !reach[nb] {
		t.Error("goto target should be reachable")
	}
}

func TestCFGNilBody(t *testing.T) {
	g := BuildCFG(nil)
	if g.Entry == nil || g.Exit == nil {
		t.Fatal("nil body still yields entry and exit")
	}
	if !reachable(g)[g.Exit] {
		t.Error("exit should be reachable from entry")
	}
}

package analysis

// This file grows the framework from per-file syntax checking into
// flow-aware analysis: a per-function control-flow graph at statement
// granularity and dominator sets over it. The shapes deliberately stay
// small — functions in this repository are a few hundred statements at
// most — so the dominator computation is the plain iterative data-flow
// algorithm over dense bool sets.
//
// Loop heads are duplicated for the flow-sensitive client (ctxcheck's
// deadline dominance): a zero-trip head and a back-edge head, and the
// zero-trip head's exit edge is EdgeZeroTrip, so a loop body that may
// run zero times does not dominate the code after the loop.

import (
	"go/ast"
	"go/token"
)

// NodeKind classifies CFG nodes.
type NodeKind int

const (
	// NodeEntry is the unique function entry point.
	NodeEntry NodeKind = iota
	// NodeExit is the unique function exit; every return and the final
	// fall-off edge lead here.
	NodeExit
	// NodeStmt is one non-branching statement.
	NodeStmt
	// NodeCond is a branch decision; Cond holds the controlling
	// expression (nil for an unconditional loop head or a range head,
	// where no boolean expression exists to resolve).
	NodeCond
)

// EdgeKind classifies CFG edges.
type EdgeKind int

const (
	// EdgeSeq is ordinary fallthrough control flow.
	EdgeSeq EdgeKind = iota
	// EdgeTrue leaves a NodeCond when its condition holds.
	EdgeTrue
	// EdgeFalse leaves a NodeCond when its condition fails.
	EdgeFalse
	// EdgeZeroTrip leaves a loop's entry head when the body runs zero
	// times; the loop's normal exit is also reachable through the
	// back-edge head.
	EdgeZeroTrip
)

// Edge is one directed CFG edge.
type Edge struct {
	To   *Node
	Kind EdgeKind
}

// Node is one CFG vertex.
type Node struct {
	Index int
	Kind  NodeKind
	// Stmt is the statement this node represents (NodeStmt), or the
	// enclosing loop/switch statement for heads and headers.
	Stmt ast.Stmt
	// Cond is the controlling expression of a NodeCond, nil when the
	// branch has no boolean condition (range loops, bare for).
	Cond  ast.Expr
	Succs []Edge
	// Preds lists incoming edges; Edge.To is the predecessor node and
	// Edge.Kind the kind of the edge leaving it.
	Preds []Edge
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *Node
	Exit  *Node
	Nodes []*Node
}

// dangling is an edge whose target is not yet known.
type dangling struct {
	from *Node
	kind EdgeKind
}

type loopFrame struct {
	label    string
	cont     *Node      // continue target (post statement or back-edge head)
	breaks   []dangling // collected break edges, joined to the loop exit
	isSwitch bool       // switch/select frame: break only, no continue
}

type gotoRef struct {
	node  *Node
	label string
}

type builder struct {
	g      *CFG
	frames []*loopFrame
	// label bookkeeping for goto: labelNodes maps a label to the first
	// node of its statement; gotos are patched after the build.
	labelNodes map[string]*Node
	gotos      []gotoRef
	// pendingLabel names the label wrapping the statement about to be
	// built, so its loop frame (and first node) can be tagged.
	pendingLabel string
}

// BuildCFG constructs the control-flow graph of body. A nil body (a
// declaration without implementation) yields a graph with only entry
// and exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	g.Entry = g.newNode(NodeEntry)
	g.Exit = g.newNode(NodeExit)
	b := &builder{g: g, labelNodes: map[string]*Node{}}
	out := []dangling{{g.Entry, EdgeSeq}}
	if body != nil {
		out = b.stmtList(body.List, out)
	}
	b.connect(out, g.Exit)
	for _, ref := range b.gotos {
		target := b.labelNodes[ref.label]
		if target == nil {
			target = g.Exit // label outside the built body; be conservative
		}
		b.link(ref.node, target, EdgeSeq)
	}
	for _, n := range g.Nodes {
		for _, e := range n.Succs {
			e.To.Preds = append(e.To.Preds, Edge{To: n, Kind: e.Kind})
		}
	}
	return g
}

func (g *CFG) newNode(kind NodeKind) *Node {
	n := &Node{Index: len(g.Nodes), Kind: kind}
	g.Nodes = append(g.Nodes, n)
	return n
}

func (b *builder) stmtNode(s ast.Stmt) *Node {
	n := b.g.newNode(NodeStmt)
	n.Stmt = s
	if b.pendingLabel != "" {
		b.labelNodes[b.pendingLabel] = n
		b.pendingLabel = ""
	}
	return n
}

func (b *builder) condNode(s ast.Stmt, cond ast.Expr) *Node {
	n := b.g.newNode(NodeCond)
	n.Stmt = s
	n.Cond = cond
	if b.pendingLabel != "" {
		b.labelNodes[b.pendingLabel] = n
		b.pendingLabel = ""
	}
	return n
}

func (b *builder) link(from, to *Node, kind EdgeKind) {
	from.Succs = append(from.Succs, Edge{To: to, Kind: kind})
}

func (b *builder) connect(in []dangling, to *Node) {
	for _, d := range in {
		b.link(d.from, to, d.kind)
	}
}

func (b *builder) stmtList(list []ast.Stmt, in []dangling) []dangling {
	for _, s := range list {
		in = b.stmt(s, in)
	}
	return in
}

// frameFor finds the innermost frame a break/continue targets.
func (b *builder) frameFor(label string, isContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isContinue && f.isSwitch {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt, in []dangling) []dangling {
	switch s := s.(type) {
	case nil:
		return in
	case *ast.BlockStmt:
		return b.stmtList(s.List, in)
	case *ast.EmptyStmt:
		return in
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, in)
		b.pendingLabel = ""
		return out
	case *ast.ReturnStmt:
		n := b.stmtNode(s)
		b.connect(in, n)
		b.link(n, b.g.Exit, EdgeSeq)
		return nil
	case *ast.BranchStmt:
		return b.branch(s, in)
	case *ast.IfStmt:
		if s.Init != nil {
			in = b.stmt(s.Init, in)
		}
		c := b.condNode(s, s.Cond)
		b.connect(in, c)
		out := b.stmtList(s.Body.List, []dangling{{c, EdgeTrue}})
		if s.Else != nil {
			out = append(out, b.stmt(s.Else, []dangling{{c, EdgeFalse}})...)
		} else {
			out = append(out, dangling{c, EdgeFalse})
		}
		return out
	case *ast.ForStmt:
		if s.Init != nil {
			// A label on the loop must not bind to the init node.
			lbl := b.pendingLabel
			b.pendingLabel = ""
			in = b.stmt(s.Init, in)
			b.pendingLabel = lbl
		}
		return b.loop(s, s.Cond, s.Post, s.Body, in)
	case *ast.RangeStmt:
		return b.loop(s, nil, nil, s.Body, in)
	case *ast.SwitchStmt:
		if s.Init != nil {
			in = b.stmt(s.Init, in)
		}
		return b.switchClauses(s, s.Body.List, s.Body.List != nil && hasDefault(s.Body.List), in)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			in = b.stmt(s.Init, in)
		}
		return b.switchClauses(s, s.Body.List, hasDefault(s.Body.List), in)
	case *ast.SelectStmt:
		// A select with no default blocks until one clause fires, so
		// control only continues out of a clause body.
		return b.switchClauses(s, s.Body.List, hasDefault(s.Body.List) || len(s.Body.List) == 0, in)
	default:
		// Assignments, expression/send/inc-dec statements, decls,
		// defer, go: one plain node each. Function literals inside them
		// are separate functions and deliberately not traversed.
		n := b.stmtNode(s)
		b.connect(in, n)
		return []dangling{{n, EdgeSeq}}
	}
}

func (b *builder) branch(s *ast.BranchStmt, in []dangling) []dangling {
	n := b.stmtNode(s)
	b.connect(in, n)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if f := b.frameFor(label, false); f != nil {
			f.breaks = append(f.breaks, dangling{n, EdgeSeq})
			return nil
		}
	case token.CONTINUE:
		if f := b.frameFor(label, true); f != nil {
			b.link(n, f.cont, EdgeSeq)
			return nil
		}
	case token.GOTO:
		b.gotos = append(b.gotos, gotoRef{n, label})
		return nil
	case token.FALLTHROUGH:
		// Handled by switchClauses, which feeds the dangling edge into
		// the next clause; reaching here means a stray fallthrough.
		return []dangling{{n, EdgeSeq}}
	}
	// Unresolvable target: be conservative and flow to exit.
	b.link(n, b.g.Exit, EdgeSeq)
	return nil
}

// loop builds a for/range loop with duplicated heads: head1 decides
// whether the body runs at all (its exit edge is EdgeZeroTrip), head2
// decides each repeat (its exit edge is EdgeFalse).
func (b *builder) loop(s ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, in []dangling) []dangling {
	head1 := b.condNode(s, cond)
	label := "" // the pendingLabel was consumed by head1's creation
	for l, n := range b.labelNodes {
		if n == head1 {
			label = l
		}
	}
	head2 := b.condNode(nil, cond)
	head2.Stmt = s
	b.connect(in, head1)

	var postNode *Node
	cont := head2
	if post != nil {
		postNode = b.stmtNode(post)
		b.link(postNode, head2, EdgeSeq)
		cont = postNode
	}

	frame := &loopFrame{label: label, cont: cont}
	b.frames = append(b.frames, frame)
	bodyOut := b.stmtList(body.List, []dangling{{head1, EdgeTrue}, {head2, EdgeTrue}})
	b.frames = b.frames[:len(b.frames)-1]
	b.connect(bodyOut, cont)

	out := frame.breaks
	if cond != nil || isRange(s) {
		out = append(out, dangling{head1, EdgeZeroTrip}, dangling{head2, EdgeFalse})
	}
	return out
}

func isRange(s ast.Stmt) bool {
	_, ok := s.(*ast.RangeStmt)
	return ok
}

func hasDefault(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				return true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				return true
			}
		}
	}
	return false
}

// switchClauses builds switch/type-switch/select dispatch: a header
// node fans out to every clause; clause bodies rejoin after the
// statement. Case conditions are not resolved — protocol code in this
// repository branches on schemes with if chains, so per-case
// specialization is not needed.
func (b *builder) switchClauses(s ast.Stmt, clauses []ast.Stmt, exhaustive bool, in []dangling) []dangling {
	header := b.condNode(s, nil)
	b.connect(in, header)
	frame := &loopFrame{isSwitch: true}
	b.frames = append(b.frames, frame)

	var out []dangling
	var fall []dangling // fallthrough edges into the next clause
	for _, cs := range clauses {
		var body []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			body = cs.Body
		case *ast.CommClause:
			body = cs.Body
		}
		clauseIn := append([]dangling{{header, EdgeSeq}}, fall...)
		fall = nil
		clauseOut := b.stmtList(body, clauseIn)
		// A trailing fallthrough statement's dangling edge feeds the
		// next clause instead of the join.
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = clauseOut
				continue
			}
		}
		out = append(out, clauseOut...)
	}
	out = append(out, fall...) // fallthrough in the last clause: join
	b.frames = b.frames[:len(b.frames)-1]
	out = append(out, frame.breaks...)
	if !exhaustive {
		out = append(out, dangling{header, EdgeSeq})
	}
	return out
}

// ---- queries -------------------------------------------------------

// Dominators computes, for every node, the set of nodes that lie on
// every path from entry to it (including itself), by the standard
// iterative data-flow algorithm. Nodes unreachable from entry dominate
// vacuously: their set contains every node.
func (g *CFG) Dominators() []map[*Node]bool {
	n := len(g.Nodes)
	full := func() map[*Node]bool {
		m := make(map[*Node]bool, n)
		for _, nd := range g.Nodes {
			m[nd] = true
		}
		return m
	}
	dom := make([]map[*Node]bool, n)
	for i := range dom {
		dom[i] = full()
	}
	dom[g.Entry.Index] = map[*Node]bool{g.Entry: true}

	changed := true
	for changed {
		changed = false
		for _, nd := range g.Nodes {
			if nd == g.Entry {
				continue
			}
			var meet map[*Node]bool
			for _, p := range nd.Preds {
				pd := dom[p.To.Index]
				if meet == nil {
					meet = make(map[*Node]bool, len(pd))
					for k := range pd {
						meet[k] = true
					}
				} else {
					for k := range meet {
						if !pd[k] {
							delete(meet, k)
						}
					}
				}
			}
			if meet == nil {
				continue // no predecessors; keep the full set
			}
			meet[nd] = true
			if len(meet) != len(dom[nd.Index]) {
				dom[nd.Index] = meet
				changed = true
				continue
			}
			for k := range meet {
				if !dom[nd.Index][k] {
					dom[nd.Index] = meet
					changed = true
					break
				}
			}
		}
	}
	return dom
}

package analysis

// Interprocedural function summaries over the package call graph: per
// function, which facts (analyzer-defined bits: a sentinel error use,
// a blocking operation) it can establish (May) and which it
// establishes on every execution (Must). The framework only knows how
// to propagate them bottom-up through strongly connected components
// of the call graph; errflow and ctxcheck are its clients.
//
// May facts union the function's own syntactic facts (closures
// included — kernel bodies are folded into their launcher, matching
// BuildCallGraph) with every package-local callee's May facts. Must
// facts are path-sensitive: a fact is established only when every
// entry-to-exit path of the function's CFG crosses a node carrying it,
// with zero-trip loop edges kept, so a fact established only inside a
// `for` body is May, never Must.

import (
	"go/ast"
	"go/types"
)

// Facts is a small analyzer-defined bit set. Clients allocate bits
// with iota (`fact0 Facts = 1 << iota`) and combine them with the
// usual bitwise operators.
type Facts uint64

// Any reports whether at least one bit of q is set in f.
func (f Facts) Any(q Facts) bool { return f&q != 0 }

// Summary is the interprocedural effect summary of one function.
type Summary struct {
	// May holds every fact some path through the function (or a
	// package-local callee, or a closure it builds) can establish.
	May Facts
	// Must holds the facts established on every entry-to-exit path of
	// the function itself, counting a direct callee's Must facts at the
	// call site. Zero-trip loop edges are honored: facts only
	// established inside a loop body are not Must.
	Must Facts
}

// Summarize computes May/Must summaries for every declared function.
// local classifies one AST node with the facts its own syntax
// establishes (a sentinel error, a channel send); it is invoked for every node of every declaration,
// closures included, and must not recurse itself. Summaries are
// propagated callee-to-caller in reverse topological order of the
// call graph's SCCs; mutually recursive functions share one May set
// and iterate their Must sets to a fixpoint from the sound
// under-approximation of zero.
func (cg *CallGraph) Summarize(info *types.Info, local func(ast.Node) Facts) map[*types.Func]*Summary {
	direct := make(map[*types.Func]Facts, len(cg.decls))
	for fn, fd := range cg.decls {
		var f Facts
		ast.Inspect(fd, func(n ast.Node) bool {
			f |= local(n)
			return true
		})
		direct[fn] = f
	}

	sums := make(map[*types.Func]*Summary, len(cg.decls))
	for _, scc := range cg.sccs() {
		var may Facts
		for _, fn := range scc {
			may |= direct[fn]
			for callee := range cg.callees[fn] {
				if s := sums[callee]; s != nil {
					may |= s.May
				}
			}
		}
		for _, fn := range scc {
			sums[fn] = &Summary{May: may}
		}
		// Within the SCC, Must starts at zero (recursion may establish
		// nothing) and grows monotonically to its fixpoint.
		for changed := true; changed; {
			changed = false
			for _, fn := range scc {
				if m := cg.mustFacts(fn, info, sums, local); m != sums[fn].Must {
					sums[fn].Must = m
					changed = true
				}
			}
		}
	}
	return sums
}

// mustFacts computes the Must set of one function against the current
// summaries: a fact bit is Must when the function exit is unreachable
// from entry once nodes carrying the bit are barriers.
func (cg *CallGraph) mustFacts(fn *types.Func, info *types.Info, sums map[*types.Func]*Summary, local func(ast.Node) Facts) Facts {
	fd := cg.decls[fn]
	if fd == nil || fd.Body == nil {
		return 0
	}
	g := BuildCFG(fd.Body)
	nf := nodeFacts(g, info, sums, local)
	var all Facts
	for _, f := range nf {
		all |= f
	}
	var must Facts
	for bit := Facts(1); bit != 0 && bit <= all; bit <<= 1 {
		if !all.Any(bit) {
			continue
		}
		reach := g.Reachable(g.Entry, func(n *Node) bool { return nf[n].Any(bit) })
		if !reach[g.Exit] {
			must |= bit
		}
	}
	return must
}

// nodeFacts annotates each CFG node with the facts its statement (or
// branch condition) establishes when executed: the node's own
// syntactic facts — function literals excluded, since a closure built
// here runs elsewhere — plus, for every direct package-local call, the
// callee's Must facts.
func nodeFacts(g *CFG, info *types.Info, sums map[*types.Func]*Summary, local func(ast.Node) Facts) map[*Node]Facts {
	nf := make(map[*Node]Facts, len(g.Nodes))
	for _, n := range g.Nodes {
		var root ast.Node
		switch {
		case n.Kind == NodeStmt && n.Stmt != nil:
			root = n.Stmt
		case n.Kind == NodeCond && n.Cond != nil:
			root = n.Cond
		default:
			continue
		}
		var f Facts
		ast.Inspect(root, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			f |= local(x)
			if call, ok := x.(*ast.CallExpr); ok {
				if callee := CalleeOf(info, call); callee != nil {
					if s := sums[callee]; s != nil {
						f |= s.Must
					}
				}
			}
			return true
		})
		if f != 0 {
			nf[n] = f
		}
	}
	return nf
}

// sccs returns the strongly connected components of the call graph in
// reverse topological order (callees before callers) — the order
// Tarjan's algorithm emits them.
func (cg *CallGraph) sccs() [][]*types.Func {
	// Deterministic iteration: sort roots by position so repeated runs
	// summarize in the same order (the results are order-independent,
	// but debugging is not).
	order := make([]*types.Func, 0, len(cg.decls))
	for fn := range cg.decls {
		order = append(order, fn)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].Pos() < order[j-1].Pos(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	var out [][]*types.Func
	next := 0

	var strong func(fn *types.Func)
	strong = func(fn *types.Func) {
		index[fn] = next
		low[fn] = next
		next++
		stack = append(stack, fn)
		onStack[fn] = true
		for callee := range cg.callees[fn] {
			if _, declared := cg.decls[callee]; !declared {
				continue
			}
			if _, seen := index[callee]; !seen {
				strong(callee)
				if low[callee] < low[fn] {
					low[fn] = low[callee]
				}
			} else if onStack[callee] && index[callee] < low[fn] {
				low[fn] = index[callee]
			}
		}
		if low[fn] == index[fn] {
			var scc []*types.Func
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == fn {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, fn := range order {
		if _, seen := index[fn]; !seen {
			strong(fn)
		}
	}
	return out
}

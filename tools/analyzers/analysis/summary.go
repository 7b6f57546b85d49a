package analysis

// Interprocedural function summaries over the package call graph: per
// function, the facts (analyzer-defined bits, e.g. a blocking
// operation) some path through it can establish. The framework only
// knows how to propagate them bottom-up through strongly connected
// components of the call graph; ctxcheck is its client.
//
// A function's summary unions its own syntactic facts (closures
// included — kernel bodies are folded into their launcher, matching
// BuildCallGraph) with every package-local callee's summary.

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

// Summarize computes the summary of every declared function. local
// classifies one AST node with the facts its own syntax establishes (a
// channel send, a blocking call); it is invoked for every node of
// every declaration, closures included, and must not recurse itself.
// Summaries are propagated callee-to-caller in reverse topological
// order of the call graph's SCCs; mutually recursive functions share
// one summary.
func (cg *CallGraph) Summarize(local func(ast.Node) Facts) map[*types.Func]Facts {
	sums := make(map[*types.Func]Facts, len(cg.decls))
	for _, scc := range cg.sccs() {
		var may Facts
		for _, fn := range scc {
			ast.Inspect(cg.decls[fn], func(n ast.Node) bool {
				may |= local(n)
				return true
			})
			for callee := range cg.callees[fn] {
				may |= sums[callee]
			}
		}
		for _, fn := range scc {
			sums[fn] = may
		}
	}
	return sums
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

package analysis

import (
	"go/ast"
	"testing"
)

const sumSrc = `package p

func mark() {}
func other() {}

// always establishes the fact unconditionally.
func always() { mark() }

// maybe establishes it only on one branch.
func maybe(b bool) {
	if b {
		mark()
	}
}

// looped establishes it only inside a loop body.
func looped(n int) {
	for i := 0; i < n; i++ {
		mark()
	}
}

// ranged is the range-loop variant of looped.
func ranged(xs []int) {
	for range xs {
		mark()
	}
}

// viaCallee inherits it from an unconditional callee.
func viaCallee() { always() }

// viaMaybe inherits it from a conditional callee.
func viaMaybe(b bool) { maybe(b) }

// inClosure builds a closure that marks; the closure is folded into
// the declaration.
func inClosure() {
	f := func() { mark() }
	_ = f
}

// earlyReturn marks after a possible bail-out.
func earlyReturn(b bool) {
	if b {
		return
	}
	mark()
}

// recurA/recurB are mutually recursive; both can reach mark.
func recurA(n int) {
	if n > 0 {
		recurB(n - 1)
	}
}
func recurB(n int) {
	mark()
	recurA(n)
}

func clean() { other() }
`

const factMark Facts = 1

func markClassifier(n ast.Node) Facts {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return 0
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
		return factMark
	}
	return 0
}

func summarizeSrc(t *testing.T) map[string]Facts {
	t.Helper()
	pass := typecheckPass(t, sumSrc)
	sums := BuildCallGraph(pass).Summarize(markClassifier)
	byName := map[string]Facts{}
	for fn, s := range sums {
		byName[fn.Name()] = s
	}
	return byName
}

func TestSummarizeMay(t *testing.T) {
	sums := summarizeSrc(t)
	for _, name := range []string{"always", "maybe", "looped", "ranged", "viaCallee", "viaMaybe", "inClosure", "earlyReturn", "recurA", "recurB"} {
		if !sums[name].Any(factMark) {
			t.Errorf("%s should May-establish the fact", name)
		}
	}
	for _, name := range []string{"clean", "other"} {
		if sums[name].Any(factMark) {
			t.Errorf("%s must not May-establish the fact", name)
		}
	}
}

func TestSCCsCalleesFirst(t *testing.T) {
	pass := typecheckPass(t, sumSrc)
	cg := BuildCallGraph(pass)
	pos := map[string]int{}
	var flat [][]string
	for i, scc := range cg.sccs() {
		var names []string
		for _, fn := range scc {
			pos[fn.Name()] = i
			names = append(names, fn.Name())
		}
		flat = append(flat, names)
	}
	if pos["mark"] > pos["always"] || pos["always"] > pos["viaCallee"] {
		t.Errorf("callees must be emitted before callers: %v", flat)
	}
	if pos["recurA"] != pos["recurB"] {
		t.Errorf("mutually recursive functions must share an SCC: %v", flat)
	}
}

// Package lockcheck enforces lock discipline in the parallel sweep
// engine's shared state (internal/obs, internal/experiments), the
// job daemon's (internal/server), and the reliability campaign
// engine's (internal/reliability). The
// engine promises byte-identical serial/parallel output, which holds
// only while every mutation of shared state happens under its mutex —
// the same "verify before you trust shared memory" discipline the
// paper's Enhanced Online-ABFT applies to device memory, applied here
// to host memory. `go test -race` finds a violation only when a
// schedule happens to exercise it; lockcheck finds it at lint time.
//
// The analyzer associates each sync.Mutex/RWMutex struct field with
// the sibling fields it guards — seeded by `// guards:` comments and
// inferred from existing locked accesses (analysis.CollectGuards) —
// then checks, on the per-function CFG with a must/may lock-state
// dataflow:
//
//   - every read of a guarded field happens while the mutex is
//     definitely held (read or write hold), and every write while it
//     is held exclusively;
//   - no mutex is re-acquired while already held (double lock
//     deadlocks a sync.Mutex);
//   - no Unlock runs where the mutex cannot be held (Unlock of an
//     unlocked mutex panics);
//   - every Lock is matched by an Unlock on every path to return —
//     deferred Unlocks count, and also cover panic exits;
//   - no mutex-bearing value is copied (value receivers, value
//     assignments, by-value call arguments): a copied mutex guards
//     nothing.
//
// Accesses through a struct the function itself creates are exempt —
// constructors initialize fields before any other goroutine can hold
// a reference. _test.go files are exempt: the test suites drive the
// engine through its public API, and their private pokes are serial.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; it is also the driver help text.
const Doc = "require guarded struct fields (seeded by // guards: comments, inferred from locked accesses) to be accessed under their mutex; flag double locks, stray Unlocks, unreleased Locks, and lock copies"

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:  "lockcheck",
	Doc:   Doc,
	Scope: "internal/obs, internal/experiments, internal/checksum, internal/blas, internal/server, internal/reliability",
	AppliesTo: analysis.PathIn(
		"abftchol/internal/obs",
		"abftchol/internal/experiments",
		"abftchol/internal/checksum",
		"abftchol/internal/blas",
		"abftchol/internal/server",
		"abftchol/internal/reliability",
	),
	Run: run,
}

func run(pass *analysis.Pass) error {
	guards := analysis.CollectGuards(pass)
	for _, bad := range guards.BadSeeds {
		pass.Reportf(bad.Pos, "guards: comment names %q, which is not a sibling field of this mutex", bad.Name)
	}
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCopiedReceiver(pass, fd)
			checkFunc(pass, guards, fd)
		}
		checkCopies(pass, f)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, guards *analysis.Guards, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	g := analysis.BuildCFG(fd.Body)
	ops := analysis.CollectLockOps(g, info)
	byNode := analysis.OpsByNode(ops)
	must := analysis.MustHeldIn(g, ops)
	may := analysis.MayHeldIn(g, ops)

	checkLockPairing(pass, g, ops, must, may, byNode)
	checkAccesses(pass, guards, fd, g, byNode, must)
}

// checkLockPairing flags double locks, stray unlocks, and locks not
// released on every path.
func checkLockPairing(pass *analysis.Pass, g *analysis.CFG, ops []analysis.LockOp, must, may []analysis.LockState, byNode map[*analysis.Node][]analysis.LockOp) {
	// deferredRelease: keys whose Unlock is scheduled for function
	// exit; those locks are released on every path including panics.
	deferredRelease := map[string]bool{}
	for _, op := range ops {
		if op.Deferred && op.Releases() {
			deferredRelease[op.Key] = true
		}
	}

	// releaseNodes per key, the reachability barriers for the
	// released-on-every-path check.
	releaseNodes := map[string]map[*analysis.Node]bool{}
	for _, op := range ops {
		if !op.Deferred && op.Releases() {
			if releaseNodes[op.Key] == nil {
				releaseNodes[op.Key] = map[*analysis.Node]bool{}
			}
			releaseNodes[op.Key][op.Node] = true
		}
	}

	for _, op := range ops {
		if op.Deferred {
			continue
		}
		mustAt := analysis.LockStateAt(must[op.Node.Index], byNode[op.Node], op.Call.Pos())
		mayAt := analysis.LockStateAt(may[op.Node.Index], byNode[op.Node], op.Call.Pos())
		if mustAt == nil {
			continue // unreachable code; nothing sound to say
		}
		kind, acquires := op.Acquires()
		switch {
		case acquires && kind == analysis.HeldExcl:
			if _, held := mustAt[op.Key]; held {
				pass.Reportf(op.Call.Pos(), "%s.Lock while %s is already held on every path here; the second Lock deadlocks", op.Key, op.Key)
				continue
			}
		case acquires && kind == analysis.HeldRead:
			if mustAt[op.Key] == analysis.HeldExcl {
				pass.Reportf(op.Call.Pos(), "%s.RLock while %s is already held exclusively; the RLock deadlocks", op.Key, op.Key)
				continue
			}
		case op.Releases():
			if _, held := mayAt[op.Key]; !held {
				pass.Reportf(op.Call.Pos(), "%s.%s releases a mutex no path has locked; Unlock of an unlocked mutex panics", op.Key, op.Method)
			}
			continue
		}
		if !acquires || deferredRelease[op.Key] {
			continue
		}
		// Released on every path: from the acquire, function exit must
		// not be reachable without passing a release of the same key.
		reach := g.Reachable(op.Node, analysis.PathOpts{
			Barrier: func(n *analysis.Node) bool { return releaseNodes[op.Key][n] },
		})
		if reach[g.Exit] {
			pass.Reportf(op.Call.Pos(), "%s.%s is not matched by an unlock on every path to return; defer the unlock or release on each branch", op.Key, op.Method)
		}
	}
}

// checkAccesses flags guarded-field reads and writes performed without
// the guarding mutex.
func checkAccesses(pass *analysis.Pass, guards *analysis.Guards, fd *ast.FuncDecl, g *analysis.CFG, byNode map[*analysis.Node][]analysis.LockOp, must []analysis.LockState) {
	if len(guards.GuardOf) == 0 {
		return
	}
	info := pass.TypesInfo
	du := analysis.CollectDefUse(fd, info)
	writes := writeTargets(fd.Body)

	for _, node := range g.Nodes {
		state := must[node.Index]
		if state == nil {
			continue
		}
		var root ast.Node
		switch {
		case node.Kind == analysis.NodeStmt:
			root = node.Stmt
		case node.Kind == analysis.NodeCond && node.Cond != nil:
			root = node.Cond
		default:
			continue
		}
		ast.Inspect(root, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fieldObj, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			mus := guards.GuardOf[fieldObj]
			if len(mus) == 0 {
				return true
			}
			if locallyCreated(du, info, sel.X) {
				return true
			}
			at := analysis.LockStateAt(state, byNode[node], sel.Pos())
			base := types.ExprString(sel.X)
			isWrite := writes[sel]
			for _, mu := range mus {
				kind, held := at[base+"."+mu.Name()]
				if held && (!isWrite || kind == analysis.HeldExcl) {
					return true
				}
				if held && isWrite {
					pass.Reportf(sel.Pos(), "write to %s.%s (guarded by %s.%s) under a read lock; writes need %s.%s.Lock", base, fieldObj.Name(), base, mu.Name(), base, mu.Name())
					return true
				}
			}
			verb := "read of"
			if isWrite {
				verb = "write to"
			}
			pass.Reportf(sel.Pos(), "%s %s.%s without holding %s.%s, which guards it (seeded or inferred from locked accesses elsewhere)", verb, base, fieldObj.Name(), base, guardNames(base, mus))
			return true
		})
	}
}

// guardNames renders the mutex alternatives for a diagnostic; nearly
// always a single field.
func guardNames(base string, mus []*types.Var) string {
	names := make([]string, len(mus))
	for i, mu := range mus {
		names[i] = mu.Name()
	}
	return strings.Join(names, " or "+base+".")
}

// writeTargets marks every SelectorExpr that is mutated: the core of
// an assignment target or inc/dec operand, possibly through index or
// dereference (s.m[k] = v mutates through s.m).
func writeTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				out[x] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		}
		return true
	})
	return out
}

// locallyCreated reports whether the access base is a variable this
// function built itself (a composite literal, possibly through &):
// constructor initialization before the value escapes needs no lock.
func locallyCreated(du *analysis.DefUse, info *types.Info, base ast.Expr) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	defs, known := du.Defs[obj]
	if !known || du.Params[obj] {
		return false
	}
	for _, def := range defs {
		e := ast.Unparen(def)
		if u, isAddr := e.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		if _, isLit := e.(*ast.CompositeLit); isLit {
			return true
		}
	}
	return false
}

// ---- lock copying --------------------------------------------------

// containsMutex reports whether t (not through pointers) embeds a
// sync.Mutex, sync.RWMutex, or sync.WaitGroup anywhere.
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup":
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutex(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(u.Elem(), seen)
	}
	return false
}

// checkCopiedReceiver flags methods whose value receiver copies a
// mutex on every call.
func checkCopiedReceiver(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return
	}
	if containsMutex(tv.Type, map[types.Type]bool{}) {
		pass.Reportf(fd.Recv.Pos(), "method %s copies its mutex-bearing receiver on every call; use a pointer receiver", fd.Name.Name)
	}
}

// copiesLockValue reports whether evaluating e yields a by-value copy
// of an existing mutex-bearing value: reading a variable, field,
// element, or dereference of such a type. Fresh composite literals and
// address-taking are fine.
func copiesLockValue(info *types.Info, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return false
	}
	return containsMutex(tv.Type, map[types.Type]bool{})
}

// checkCopies flags by-value assignments and call arguments of
// mutex-bearing values.
func checkCopies(pass *analysis.Pass, f *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if copiesLockValue(info, rhs) {
					pass.Reportf(rhs.Pos(), "assignment copies a mutex-bearing value; a copied mutex guards nothing — keep a pointer instead")
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if copiesLockValue(info, v) {
					pass.Reportf(v.Pos(), "declaration copies a mutex-bearing value; a copied mutex guards nothing — keep a pointer instead")
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if copiesLockValue(info, arg) {
					pass.Reportf(arg.Pos(), "call passes a mutex-bearing value by value; the callee's copy shares no lock state — pass a pointer")
				}
			}
		}
		return true
	})
}

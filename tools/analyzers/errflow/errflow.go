// Package errflow proves the error-taxonomy discipline the
// reliability plane depends on. The campaign classifier
// (internal/reliability) files every trial into the paper's outcome
// taxonomy purely through core's typed predicates —
// Rejected/Uncorrectable/FailStop walk wrapped sentinel chains with
// errors.Is/errors.As — so a single fmt.Errorf without %w anywhere
// between internal/core and the classifier silently misfiles a trial
// and corrupts BENCH_reliability.json. The compiler cannot see that;
// this analyzer can.
//
// errflow computes per-function error-provenance summaries over the
// package call graph (the SCC-condensed May summaries of
// analysis.Summarize): which sentinel chains — core.ErrResultRejected,
// core's errUncorrectable and errFailStop, context.Canceled /
// DeadlineExceeded, blas.PivotError — can flow into each expression.
// Provenance is May-style and flow-insensitive within a function:
// sentinel uses, calls to package-local functions whose summary
// carries a sentinel, a short curated table of cross-package
// classified sources (core.Run, campaign.Run, ctx.Err,
// experiments.PointResult.Err), and local variables assigned from any
// of these (iterated to a fixpoint).
//
// Four rules, checked in non-test files only (tests build severed and
// malformed chains deliberately — the core partition property test is
// the runtime countersignature of this analyzer):
//
//	(a) fmt.Errorf severing a classified chain: an error-typed
//	    argument with classified provenance reaches a format string
//	    with no %w verb. errors.Is/errors.As stop at the text.
//	(b) error-text matching: comparing a .Error() result with == / !=,
//	    switching on it, or passing it to strings.Contains/HasPrefix/
//	    HasSuffix/Index/EqualFold/Count. Message text is not an API;
//	    the typed predicates are.
//	(b') .Error() called on a value with classified provenance
//	    anywhere: flattening the chain to text discards the class
//	    (this is how the daemon's job store lost the canceled/
//	    uncorrectable distinction). Store or wrap the error value.
//	(c) unclassifiable escapes from internal/core's exported API: an
//	    exported function whose summary can carry a classified
//	    sentinel must not return a fresh errors.New leaf — downstream
//	    classifiers would receive an error no typed predicate
//	    matches.
//	(d) errors.Is against a non-sentinel: the target must be a
//	    package-level error variable. Locals, call results, and
//	    composite literals compare by identity and match nothing.
//
// The escape hatch is the usual //nolint:errflow with a justification;
// core.ErrorFromCode carries the one sanctioned example (its fallback
// branch deliberately reconstructs an unclassifiable error).
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; it is also the driver help text.
const Doc = "prove classified error chains (ErrResultRejected, errUncorrectable, errFailStop, context.Canceled, PivotError) survive to the outcome classifiers: no severed %w wraps, no error-text matching, no unclassifiable escapes from core's exported API, no errors.Is against non-sentinels"

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:  "errflow",
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

// The provenance fact bits: one per sentinel chain the classifiers
// distinguish, plus one for curated cross-package classified sources
// whose concrete class is unknown statically.
const (
	factRejected analysis.Facts = 1 << iota
	factUncorrectable
	factFailStop
	factCtx
	factPivot
	factExternal
)

// classified is the "any sentinel chain may be inside" mask.
const classified = factRejected | factUncorrectable | factFailStop | factCtx | factPivot | factExternal

// factNames renders a fact set for diagnostics.
func factNames(f analysis.Facts) string {
	var names []string
	for _, e := range []struct {
		bit  analysis.Facts
		name string
	}{
		{factRejected, "core.ErrResultRejected"},
		{factUncorrectable, "core's errUncorrectable"},
		{factFailStop, "core's errFailStop"},
		{factCtx, "context.Canceled/DeadlineExceeded"},
		{factPivot, "blas.PivotError"},
		{factExternal, "a classified run error"},
	} {
		if f.Any(e.bit) {
			names = append(names, e.name)
		}
	}
	return strings.Join(names, ", ")
}

// sentinelBits maps an object to the sentinel chain it roots. The
// table is keyed by import path and name, so it matches the real
// packages, the lintmodule fixture, and analysistest fixtures loaded
// under the same paths alike.
func sentinelBits(obj types.Object) analysis.Facts {
	if obj == nil || obj.Pkg() == nil {
		return 0
	}
	switch obj.Pkg().Path() {
	case "abftchol/internal/core":
		switch obj.Name() {
		case "ErrResultRejected":
			return factRejected
		case "errUncorrectable":
			return factUncorrectable
		case "errFailStop":
			return factFailStop
		}
	case "context":
		switch obj.Name() {
		case "Canceled", "DeadlineExceeded":
			return factCtx
		}
	case "abftchol/internal/blas":
		switch obj.Name() {
		case "PivotError", "ErrNotPositiveDefinite":
			return factPivot
		}
	}
	return 0
}

// curatedCallBits reports classified provenance for calls whose
// results carry core's typed chains across package boundaries, where
// package-local summaries cannot see: the factorization driver, the
// campaign engine, and context's own Err accessor.
func curatedCallBits(info *types.Info, call *ast.CallExpr) analysis.Facts {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" && len(call.Args) == 0 {
		if tv, has := info.Types[sel.X]; has && isContextType(tv.Type) {
			return factCtx
		}
	}
	callee := analysis.CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return 0
	}
	switch callee.Pkg().Path() {
	case "abftchol/internal/core":
		if callee.Name() == "Run" {
			return factExternal
		}
	case "abftchol/internal/reliability/campaign":
		if callee.Name() == "Run" {
			return factExternal
		}
	}
	return 0
}

// curatedSelBits marks reads of experiments.PointResult.Err — the
// scheduler hands every run error to its consumers through that field.
func curatedSelBits(info *types.Info, sel *ast.SelectorExpr) analysis.Facts {
	if sel.Sel.Name != "Err" {
		return 0
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return 0
	}
	t := s.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return 0
	}
	if named.Obj().Pkg().Path() == "abftchol/internal/experiments" && named.Obj().Name() == "PointResult" {
		return factExternal
	}
	return 0
}

func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// localFacts is the per-node classifier Summarize propagates through
// the call graph: sentinel uses plus curated cross-package sources.
func localFacts(info *types.Info) func(ast.Node) analysis.Facts {
	return func(n ast.Node) analysis.Facts {
		switch n := n.(type) {
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				obj = info.Defs[n]
			}
			return sentinelBits(obj)
		case *ast.CallExpr:
			return curatedCallBits(info, n)
		case *ast.SelectorExpr:
			return curatedSelBits(info, n)
		}
		return 0
	}
}

func run(pass *analysis.Pass) error {
	cg := analysis.BuildCallGraph(pass)
	sums := cg.Summarize(pass.TypesInfo, localFacts(pass.TypesInfo))
	// Tests build severed and malformed chains deliberately (the
	// partition property test in internal/core is one), so every rule
	// skips them.
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			u := &unit{pass: pass, info: pass.TypesInfo, sums: sums}
			u.collect(fd.Body)
			u.checkBody(fd)
			if pass.ImportPath == "abftchol/internal/core" {
				u.checkCoreEscape(fd)
			}
		}
	}
	return nil
}

// unit is the per-function provenance state.
type unit struct {
	pass     *analysis.Pass
	info     *types.Info
	sums     map[*types.Func]*analysis.Summary
	varFacts map[*types.Var]analysis.Facts
}

// collect iterates the function's assignments (closures included) to a
// fixpoint, so provenance flows through local error variables:
// err := core.Run(...); e2 := err; wrap(e2).
func (u *unit) collect(body ast.Node) {
	u.varFacts = map[*types.Var]analysis.Facts{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				u.record(n.Lhs, n.Rhs, &changed)
			case *ast.ValueSpec:
				if len(n.Values) == 0 {
					return true
				}
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				u.record(lhs, n.Values, &changed)
			}
			return true
		})
	}
}

// record merges RHS provenance into LHS variables. A tuple assignment
// (x, err := f()) attributes the call's facts to every LHS.
func (u *unit) record(lhs, rhs []ast.Expr, changed *bool) {
	for i, l := range lhs {
		id, isID := ast.Unparen(l).(*ast.Ident)
		if !isID || id.Name == "_" {
			continue
		}
		obj := u.info.Defs[id]
		if obj == nil {
			obj = u.info.Uses[id]
		}
		v, isVar := obj.(*types.Var)
		if !isVar {
			continue
		}
		var src ast.Expr
		if len(lhs) == len(rhs) {
			src = rhs[i]
		} else {
			src = rhs[0]
		}
		f := u.exprFacts(src) & classified
		if f != 0 && u.varFacts[v]&f != f {
			u.varFacts[v] |= f
			*changed = true
		}
	}
}

// exprFacts is the May provenance of one expression: sentinel uses,
// curated sources, package-local callee summaries, and classified
// locals anywhere in its subtree.
func (u *unit) exprFacts(e ast.Expr) analysis.Facts {
	var f analysis.Facts
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := u.info.Uses[n]
			if obj == nil {
				obj = u.info.Defs[n]
			}
			f |= sentinelBits(obj)
			if v, isVar := obj.(*types.Var); isVar {
				f |= u.varFacts[v]
			}
		case *ast.CallExpr:
			f |= curatedCallBits(u.info, n)
			if callee := analysis.CalleeOf(u.info, n); callee != nil {
				if s := u.sums[callee]; s != nil {
					f |= s.May & classified
				}
			}
		case *ast.SelectorExpr:
			f |= curatedSelBits(u.info, n)
		}
		return true
	})
	return f
}

// checkBody walks one declaration applying rules (a), (b), (b'), (d).
func (u *unit) checkBody(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			u.checkErrorf(n)
			u.checkErrorsIs(n)
			u.checkStringsMatch(n)
			u.checkFlatten(n)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if u.isErrorTextCall(n.X) || u.isErrorTextCall(n.Y) {
					u.pass.Reportf(n.Pos(), "comparing error text with %s; message strings are not an API — match the chain with errors.Is or a typed predicate (core.Rejected/Uncorrectable/FailStop)", n.Op)
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && u.isErrorTextCall(n.Tag) {
				u.pass.Reportf(n.Tag.Pos(), "switching on error text; message strings are not an API — match the chain with errors.Is or a typed predicate")
			}
		}
		return true
	})
}

// checkErrorf is rule (a): fmt.Errorf whose format has no %w yet
// receives an error-typed argument with classified provenance.
func (u *unit) checkErrorf(call *ast.CallExpr) {
	if !isPkgCall(u.info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		tv, has := u.info.Types[arg]
		if !has || !isErrorType(tv.Type) {
			continue
		}
		if f := u.exprFacts(arg) & classified; f != 0 {
			u.pass.Reportf(call.Pos(), "fmt.Errorf without %%w severs a classified error chain (%s); wrap with %%w so errors.Is and core's typed predicates still reach the sentinel", factNames(f))
			return
		}
	}
}

// checkErrorsIs is rule (d): the second argument of errors.Is must be
// a package-level error variable — anything else compares by identity
// and matches nothing the constructors produce.
func (u *unit) checkErrorsIs(call *ast.CallExpr) {
	if !isPkgCall(u.info, call, "errors", "Is") || len(call.Args) != 2 {
		return
	}
	var obj types.Object
	switch t := ast.Unparen(call.Args[1]).(type) {
	case *ast.Ident:
		obj = u.info.Uses[t]
	case *ast.SelectorExpr:
		obj = u.info.Uses[t.Sel]
	}
	if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return
	}
	u.pass.Reportf(call.Args[1].Pos(), "errors.Is against a non-sentinel value; Is compares by identity, so the target must be a package-level error variable (use errors.As for typed matches)")
}

// checkStringsMatch is rule (b): error text fed to the strings
// package's matchers.
func (u *unit) checkStringsMatch(call *ast.CallExpr) {
	if !isPkgCallIn(u.info, call, "strings",
		"Contains", "ContainsAny", "HasPrefix", "HasSuffix", "Index", "EqualFold", "Count") {
		return
	}
	for _, arg := range call.Args {
		if u.isErrorTextCall(arg) {
			u.pass.Reportf(call.Pos(), "matching on error text with strings.%s; message strings are not an API — match the chain with errors.Is or a typed predicate", calleeName(call))
			return
		}
	}
}

// checkFlatten is rule (b'): .Error() on a value with classified
// provenance flattens the chain to text, losing the class — the
// defect that made the job daemon's store unable to tell canceled
// from uncorrectable.
func (u *unit) checkFlatten(call *ast.CallExpr) {
	sel, recv, ok := u.errorTextCall(call)
	if !ok {
		return
	}
	if f := u.exprFacts(recv) & classified; f != 0 {
		u.pass.Reportf(sel.Sel.Pos(), ".Error() flattens a classified error chain (%s) to text; store or wrap the error value so the typed class survives to the outcome classifiers", factNames(f))
	}
}

// errorTextCall matches `x.Error()` where x is an error.
func (u *unit) errorTextCall(call *ast.CallExpr) (*ast.SelectorExpr, ast.Expr, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return nil, nil, false
	}
	tv, has := u.info.Types[sel.X]
	if !has || !isErrorType(tv.Type) {
		return nil, nil, false
	}
	return sel, sel.X, true
}

func (u *unit) isErrorTextCall(e ast.Expr) bool {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false
	}
	_, _, ok := u.errorTextCall(call)
	return ok
}

// checkCoreEscape is rule (c): inside internal/core, an exported
// function that can carry a classified sentinel (May summary) must not
// return a fresh errors.New leaf — the classifier downstream would
// receive an error no typed predicate matches, and the trial would be
// misfiled rather than rejected.
func (u *unit) checkCoreEscape(fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	fn, isFn := u.info.Defs[fd.Name].(*types.Func)
	if !isFn {
		return
	}
	s := u.sums[fn]
	if s == nil || s.May&classified == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		for _, res := range ret.Results {
			call, isCall := ast.Unparen(res).(*ast.CallExpr)
			if isCall && isPkgCall(u.info, call, "errors", "New") {
				u.pass.Reportf(res.Pos(), "%s can carry a classified sentinel yet returns a fresh errors.New leaf here; no typed predicate (Rejected/Uncorrectable/FailStop) can match it, so downstream classifiers would misfile the outcome", fd.Name.Name)
			}
		}
		return true
	})
}

// isPkgCall matches a call to pkg.name by the callee's package path.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	callee := analysis.CalleeOf(info, call)
	return callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == pkg && callee.Name() == name
}

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
	return "?"
}

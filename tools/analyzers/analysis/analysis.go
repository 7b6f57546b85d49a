// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis driver surface that the abftlint
// suite needs. The build environment for this repository vendors no
// third-party modules, so the suite carries its own framework; the
// Analyzer/Pass/Diagnostic shapes deliberately mirror x/tools so that
// each analyzer's Run function can be moved onto the real framework by
// changing only its import path.
//
// The framework adds one repository-specific extension: an Analyzer
// may carry an AppliesTo predicate restricting it to the packages
// where its invariant is load-bearing (e.g. determinism only matters
// in the numeric core and the packages that emit its output). Run —
// not the analyzer body — consults the predicate, so the analyzers
// themselves stay policy-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:<name> suppression comments.
	Name string
	// Doc is the one-line description docs/LINTING.md's table shows.
	Doc string
	// Scope names, for humans, where the analyzer runs — the prose
	// rendering of AppliesTo ("internal/hetsim, internal/core", or
	// "all packages"). The docs/LINTING.md analyzer table is generated
	// from it.
	Scope string
	// AppliesTo, when non-nil, restricts the analyzer to packages
	// whose directory import path satisfies the predicate. A nil
	// predicate means the analyzer runs everywhere.
	AppliesTo func(importPath string) bool
	// Run inspects one package and reports findings via the Pass.
	Run func(*Pass) error
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// ImportPath is the directory-based import path of the package;
	// an external test package (package foo_test) shares the import
	// path of the directory it lives in.
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info

	diagnostics []Diagnostic
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NonTestFiles returns the package's files without its _test.go files:
// the program as it ships, for rules that tests break on purpose.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// PathIn returns a predicate satisfied by the listed import paths and
// any package below them.
func PathIn(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, want := range paths {
			if p == want || strings.HasPrefix(p, want+"/") {
				return true
			}
		}
		return false
	}
}

// PathNotIn returns a predicate satisfied everywhere except the listed
// import paths and packages below them.
func PathNotIn(paths ...string) func(string) bool {
	in := PathIn(paths...)
	return func(p string) bool { return !in(p) }
}

// CalleeOf resolves the static callee of a call, or nil when the call
// is through a function value, a conversion, or a builtin.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

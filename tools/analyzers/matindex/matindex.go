// Package matindex keeps the column-major storage layout a
// single-package concern. Every element of a mat.Matrix lives at
// Data[i+j*Stride]; that arithmetic is encapsulated by At/Set/Add/
// Col/View/Off inside internal/mat. Any other package indexing or
// slicing the raw Data field re-derives the layout by hand, which is
// exactly how a row-major/column-major mixup slips in — and a
// transposed access pattern produces wrong checksums that look like
// injected faults. Passing the whole Data slice (plus Stride) to a
// BLAS kernel is fine; computing offsets into it outside internal/mat
// is not.
package matindex

import (
	"go/ast"
	"go/types"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; docs/LINTING.md's table shows it.
const Doc = "forbid manual mat.Matrix.Data index arithmetic outside internal/mat"

// matrixPkg is the only package allowed to do layout arithmetic.
const matrixPkg = "abftchol/internal/mat"

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:      "matindex",
	Doc:       Doc,
	Scope:     "everywhere except internal/mat",
	AppliesTo: analysis.PathNotIn(matrixPkg),
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var x ast.Expr
			switch e := n.(type) {
			case *ast.IndexExpr:
				x = e.X
			case *ast.SliceExpr:
				x = e.X
			default:
				return true
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Data" {
				return true
			}
			if !isMatMatrix(pass.TypesInfo.Types[sel.X].Type) {
				return true
			}
			pass.Reportf(n.Pos(), "manual Data index arithmetic re-derives the column-major layout; use At/Set/Col/View/Off so the layout stays inside internal/mat")
			return true
		})
	}
	return nil
}

// isMatMatrix reports whether t is mat.Matrix or *mat.Matrix.
func isMatMatrix(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Matrix" && obj.Pkg() != nil && obj.Pkg().Path() == matrixPkg
}

// Package floateq flags == and != between floating-point operands —
// the exact bug class that silently breaks checksum verification. The
// Enhanced Online-ABFT scheme decides "error present?" by comparing a
// recalculated checksum against a maintained one; after a real kernel
// both differ by rounding noise, so the comparison must use a
// tolerance (see internal/mat's Equal/MaxAbsDiff and the roundoff
// thresholds in internal/checksum). A raw equality either misses every
// real fault (checksums never match bit-for-bit) or reports phantom
// ones.
//
// The flagged class is computed-vs-computed equality. Three deliberate
// idioms stay legal:
//
//   - comparison against a compile-time constant (alpha == 0,
//     beta != 1): the BLAS scaling contract and the injector's "no
//     delta recorded" checks test a sentinel the caller passed
//     verbatim, which is exact by construction;
//   - self-comparison (x != x), the portable NaN probe;
//   - _test.go files: the test suite asserts the repository's
//     bit-reproducibility contract (kernel-vs-oracle and
//     replay-vs-replay equality) on purpose.
//
// The internal/mat package is exempt wholesale: its norm helpers are
// where the sanctioned tolerance comparisons live.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; docs/LINTING.md's table shows it.
const Doc = "forbid raw float equality outside internal/mat; checksum comparisons need tolerances"

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:      "floateq",
	Doc:       Doc,
	Scope:     "everywhere except internal/mat",
	AppliesTo: analysis.PathNotIn("abftchol/internal/mat"),
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			x := pass.TypesInfo.Types[bin.X]
			y := pass.TypesInfo.Types[bin.Y]
			if !isFloat(x.Type) && !isFloat(y.Type) {
				return true
			}
			if x.Value != nil || y.Value != nil {
				return true // sentinel test against a constant
			}
			if types.ExprString(bin.X) == types.ExprString(bin.Y) {
				return true // x != x: the NaN probe
			}
			pass.Reportf(bin.OpPos, "raw float %s breaks checksum verification under roundoff; compare with a tolerance (math.Abs(a-b) <= tol or mat.Equal)", bin.Op)
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

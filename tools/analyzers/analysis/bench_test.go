package analysis_test

import (
	"go/ast"
	"testing"

	"abftchol/tools/analyzers"
	"abftchol/tools/analyzers/analysis"
)

// summarySink keeps the summary maps alive across iterations so the
// compiler cannot elide the benchmarked work.
var summarySink int

// loadRepo loads and type-checks the whole module, the same workload
// cmd/abftlint performs before any analyzer runs.
func loadRepo(b *testing.B) []*analysis.Package {
	b.Helper()
	l, err := analysis.NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.Load("../../../...")
	if err != nil {
		b.Fatal(err)
	}
	return pkgs
}

// BenchmarkLoadRepo measures the front half of an abftlint run:
// parsing and type-checking every package in the module.
func BenchmarkLoadRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loadRepo(b)
	}
}

// BenchmarkSuite measures the analysis half in isolation: the full
// registered suite (CFGs, dominators, call graphs, guarded-by
// inference, lock-state dataflow and all) over pre-loaded packages.
// The number recorded in docs/LINTING.md comes from this benchmark,
// via `make lint-bench`.
func BenchmarkSuite(b *testing.B) {
	pkgs := loadRepo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RunAll(pkgs, analyzers.Suite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaries isolates the summary-construction phase the
// interprocedural analyzer (ctxcheck) pays on top of the per-function
// passes: building every package's call graph, condensing its SCCs,
// and propagating facts bottom-up with a representative classifier. Reported separately in docs/LINTING.md so a regression
// here is not smeared across the whole-suite number.
func BenchmarkSummaries(b *testing.B) {
	pkgs := loadRepo(b)
	classify := func(n ast.Node) analysis.Facts {
		if _, ok := n.(*ast.CallExpr); ok {
			return 1
		}
		return 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			pass := &analysis.Pass{
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				ImportPath: pkg.ImportPath,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
			}
			cg := analysis.BuildCallGraph(pass)
			summarySink += len(cg.Summarize(classify))
		}
	}
}

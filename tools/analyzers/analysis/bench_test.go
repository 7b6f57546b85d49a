package analysis_test

import (
	"testing"

	"abftchol/tools/analyzers"
	"abftchol/tools/analyzers/analysis"
)

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
// registered suite over pre-loaded packages. `make lint-bench` runs
// it; the committed per-analyzer figures are BENCH_lint.json's.
func BenchmarkSuite(b *testing.B) {
	pkgs := loadRepo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RunAll(pkgs, analyzers.Suite); err != nil {
			b.Fatal(err)
		}
	}
}

package determinism_test

import (
	"testing"

	"abftchol/tools/analyzers/analysistest"
	"abftchol/tools/analyzers/determinism"
)

// TestDeterminismCore runs the input rules over a numeric-core
// package, whose test files are checked too.
func TestDeterminismCore(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/src/coretest",
		analysistest.ImportAs("abftchol/internal/core"))
}

// TestDeterminismOutput runs the input and output rules over an
// output package, whose test files are exempt.
func TestDeterminismOutput(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/src/outputtest",
		analysistest.ImportAs("abftchol/internal/obs"))
}

// TestDeterminismCoreScope loads wall-clock code under an import path
// outside both rule sets; no diagnostics may fire.
func TestDeterminismCoreScope(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/src/coreunscoped")
}

// TestDeterminismOutputScope loads map-order emission under an import
// path outside both rule sets; no diagnostics may fire.
func TestDeterminismOutputScope(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/src/outputunscoped")
}

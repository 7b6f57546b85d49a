package goleak_test

import (
	"testing"

	"abftchol/tools/analyzers/analysistest"
	"abftchol/tools/analyzers/goleak"
)

func TestGoleak(t *testing.T) {
	analysistest.Run(t, goleak.Analyzer, "testdata/src/goleaktest",
		analysistest.ImportAs("abftchol/internal/experiments"))
}

// TestGoleakKernelSpawns covers the spawn shapes of the
// kernel-executing packages, including channels that escape by return
// and channels bound to the literal's parameters.
func TestGoleakKernelSpawns(t *testing.T) {
	analysistest.Run(t, goleak.Analyzer, "testdata/src/kerneltest",
		analysistest.ImportAs("abftchol/internal/blas"))
}

// TestGoleakScope loads a leaked goroutine under an import path
// outside the concurrent packages; no diagnostics may fire.
func TestGoleakScope(t *testing.T) {
	analysistest.Run(t, goleak.Analyzer, "testdata/src/unscoped")
}

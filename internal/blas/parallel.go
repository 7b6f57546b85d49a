package blas

import (
	"runtime"
	"sync"
)

// Workers is the goroutine fan-out used by the parallel Level-3 front
// ends. It defaults to the machine's core count and may be lowered in
// tests for determinism of scheduling (results are identical either
// way; only wall time changes).
var Workers = runtime.NumCPU()

// parallelColumns splits the n columns of an output into contiguous
// chunks and runs fn(j0, j1) for each chunk on its own goroutine.
// Chunks never overlap, so no synchronization beyond the WaitGroup is
// needed as long as fn only writes columns [j0, j1).
func parallelColumns(n int, minChunk int, fn func(j0, j1 int)) {
	workers := Workers
	if workers < 1 {
		workers = 1
	}
	if n < minChunk*2 || workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < minChunk {
		chunk = minChunk
	}
	var wg sync.WaitGroup
	for j0 := 0; j0 < n; j0 += chunk {
		j1 := j0 + chunk
		if j1 > n {
			j1 = n
		}
		wg.Add(1)
		go func(j0, j1 int) {
			defer wg.Done()
			fn(j0, j1)
		}(j0, j1)
	}
	wg.Wait()
}

// DgemmParallel is Dgemm with the output columns fanned out over
// goroutines. Each worker owns a disjoint column range of C, so the
// decomposition is race-free by construction.
func DgemmParallel(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	parallelColumns(n, 8, func(j0, j1 int) {

		var bs []float64
		switch transB {
		case NoTrans:
			bs = b[j0*ldb:]
		case Trans:
			bs = b[j0:]
		}
		Dgemm(transA, transB, m, j1-j0, k, alpha, a, lda, bs, ldb, beta, c[j0*ldc:], ldc)
	})
}

// DsyrkParallel is Dsyrk with output columns fanned out over
// goroutines. Column ranges of the lower triangle are disjoint, so the
// split is race-free; the later (right-hand) chunks have shorter
// columns, which parallelColumns tolerates because work imbalance only
// affects speed.
func DsyrkParallel(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	parallelColumns(n, 8, func(j0, j1 int) {

		// The sub-problem over columns [j0, j1) of the lower triangle:
		// rows j0..n. That is a (n-j0) x (j1-j0) block whose top
		// (j1-j0) x (j1-j0) part is itself a lower-triangular SYRK and
		// whose remainder is a GEMM.
		w := j1 - j0
		Dsyrk(w, k, alpha, a[j0:], lda, beta, c[j0+j0*ldc:], ldc)
		if j1 < n {
			Dgemm(NoTrans, Trans, n-j1, w, k, alpha, a[j1:], lda, a[j0:], lda, beta, c[j1+j0*ldc:], ldc)
		}
	})
}

// DtrsmParallel parallelizes the two cases used by the Cholesky panel
// solves. For Left solves the columns of B are independent; for Right
// solves the rows of B are independent, so we split rows.
func DtrsmParallel(side Side, transL Transpose, m, n int, alpha float64, l []float64, ldl int, b []float64, ldb int) {
	if side == Left {
		parallelColumns(n, 4, func(j0, j1 int) {
			Dtrsm(Left, transL, m, j1-j0, alpha, l, ldl, b[j0*ldb:], ldb)
		})
		return
	}
	// Right side: split the m rows of B.
	parallelColumns(m, 32, func(i0, i1 int) {

		Dtrsm(Right, transL, i1-i0, n, alpha, l, ldl, b[i0:], ldb)
	})
}

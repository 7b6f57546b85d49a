package blas

import (
	"runtime"

	"abftchol/internal/guard"
)

// Workers is the goroutine fan-out used by the parallel Level-3 front
// ends. It defaults to the machine's core count and may be lowered in
// tests for determinism of scheduling (results are identical either
// way; only wall time changes). Each call caps it at GOMAXPROCS: a
// goroutine past the number of Ps only runs after another one, and
// re-reads the operand the others read.
var Workers = runtime.NumCPU()

// parallelColumns splits the n columns of an output into contiguous
// chunks and runs fn(j0, j1) for each chunk on its own goroutine.
// Chunks never overlap, so no synchronization beyond the join is
// needed as long as fn only writes columns [j0, j1). Every chunk
// boundary is a multiple of align, so only the last chunk can end in a
// ragged micro tile. It runs at most min(Workers, GOMAXPROCS) chunks.
func parallelColumns(n, minChunk, align int, fn func(j0, j1 int)) {
	workers := min(Workers, runtime.GOMAXPROCS(0))
	if n < minChunk*2 || workers <= 1 {
		fn(0, n)
		return
	}
	chunk := max(minChunk, (n+workers-1)/workers)
	chunk = (chunk + align - 1) / align * align
	var g guard.Group
	for j0 := 0; j0 < n; j0 += chunk {
		j1 := j0 + chunk
		if j1 > n {
			j1 = n
		}
		g.Go(func() { fn(j0, j1) })
	}
	g.Wait()
}

// DgemmParallel is Dgemm with the output columns fanned out over
// goroutines. Each worker owns a disjoint column range of C, so the
// decomposition is race-free by construction.
func DgemmParallel(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	parallelColumns(n, 8, kernNR, func(j0, j1 int) {
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
	parallelColumns(n, 8, kernNR, func(j0, j1 int) {
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

// DsyrkBlocksParallel is C += alpha·A·Aᵀ over the lower block
// triangle of the n×n C in bs-wide block columns: block column c0
// gets rows c0..n, so each diagonal block is updated whole and nothing
// above the diagonal blocks is written. A is n×k, untransposed. It runs
// one Dgemm per block column, with whole block columns fanned out over
// goroutines in one split, so an element gets Dgemm's bits for every
// Workers.
func DsyrkBlocksParallel(n, k, bs int, alpha float64, a []float64, lda int, c []float64, ldc int) {
	parallelColumns(n, bs, bs, func(j0, j1 int) {
		for c0 := j0; c0 < j1; c0 += bs {
			Dgemm(NoTrans, Trans, n-c0, min(bs, j1-c0), k, alpha, a[c0:], lda, a[c0:], lda, 1, c[c0+c0*ldc:], ldc)
		}
	})
}

// DtrsmParallel parallelizes the two cases used by the Cholesky panel
// solves. For Left solves the columns of B are independent; for Right
// solves the rows of B are independent, so we split rows.
func DtrsmParallel(side Side, transL Transpose, m, n int, alpha float64, l []float64, ldl int, b []float64, ldb int) {
	if side == Left {
		parallelColumns(n, 4, 1, func(j0, j1 int) {
			Dtrsm(Left, transL, m, j1-j0, alpha, l, ldl, b[j0*ldb:], ldb)
		})
		return
	}
	// Right side: split the m rows of B, at multiples of the tile's
	// rows for the updates on gemmPacked.
	parallelColumns(m, 32, kernMR, func(i0, i1 int) {
		Dtrsm(Right, transL, i1-i0, n, alpha, l, ldl, b[i0:], ldb)
	})
}

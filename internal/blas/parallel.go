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
// decomposition is race-free by construction. Like Dgemm it computes
// only DgemmParallel(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1,
// c, ldc) and panics on any other transpose, alpha or beta.
func DgemmParallel(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if transA != NoTrans || transB != Trans || alpha != -1 || beta != 1 {
		panic("blas: DgemmParallel computes only C −= A·Bᵀ: DgemmParallel(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, c, ldc)")
	}
	parallelColumns(n, 8, kernNR, func(j0, j1 int) {
		Dgemm(NoTrans, Trans, m, j1-j0, k, -1, a, lda, b[j0:], ldb, 1, c[j0*ldc:], ldc)
	})
}

// DsyrkBlocksParallel is C −= A·Aᵀ over the lower block triangle of
// the n×n C in bs-wide block columns: block column c0 gets rows c0..n,
// so each diagonal block is updated whole and nothing above the
// diagonal blocks is written. A is n×k. It runs one Dgemm per block
// column, with whole block columns fanned out over goroutines in one
// split, so an element gets Dgemm's bits for every Workers.
func DsyrkBlocksParallel(n, k, bs int, a []float64, lda int, c []float64, ldc int) {
	parallelColumns(n, bs, bs, func(j0, j1 int) {
		for c0 := j0; c0 < j1; c0 += bs {
			Dgemm(NoTrans, Trans, n-c0, min(bs, j1-c0), k, -1, a[c0:], lda, a[c0:], lda, 1, c[c0+c0*ldc:], ldc)
		}
	})
}

// DtrsmParallel is Dtrsm(Right, Trans), the Cholesky panel solve, with
// the rows of B fanned out over goroutines: they are independent, and
// the split falls at multiples of the tile's rows for the updates on
// gemmPacked. It computes only DtrsmParallel(Right, Trans, m, n, 1, l,
// ldl, b, ldb) and panics on any other side, transpose or alpha.
func DtrsmParallel(side Side, transL Transpose, m, n int, alpha float64, l []float64, ldl int, b []float64, ldb int) {
	if side != Right || transL != Trans || alpha != 1 {
		panic("blas: DtrsmParallel solves only X·Lᵀ = B: DtrsmParallel(Right, Trans, m, n, 1, l, ldl, b, ldb)")
	}
	parallelColumns(m, 32, kernMR, func(i0, i1 int) {
		Dtrsm(Right, Trans, i1-i0, n, 1, l, ldl, b[i0:], ldb)
	})
}

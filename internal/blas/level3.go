package blas

// Side selects which side a triangular operand multiplies from.
type Side int

const (
	Left Side = iota
	Right
)

// trsmNB is the column block of Dtrsm(Right, Trans): the columns
// solved one by one between two packed updates. It decides which terms
// of a solution the micro-kernel sums (fused) and which the in-block
// loop does (unfused), so it is part of the factor's bits.
const trsmNB = 8

// Dgemm computes C ← C − A·Bᵀ, the one Level-3 product the
// factorization issues, where A is m x k, B is n x k and C is m x n,
// all column-major. It runs on gemmPacked (gemm.go). The parameter
// list is CBLAS's, but only Dgemm(NoTrans, Trans, m, n, k, -1, a, lda,
// b, ldb, 1, c, ldc) is computed; any other transpose, alpha or beta
// panics.
//
// abft:hotpath
// abft:bce checks=0
func Dgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if transA != NoTrans || transB != Trans || alpha != -1 || beta != 1 {
		panic("blas: Dgemm computes only C −= A·Bᵀ: Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, c, ldc)")
	}
	if k == 0 || m == 0 || n == 0 {
		return
	}
	gemmPacked(m, n, k, a, lda, b, ldb, c, ldc)
}

// Dtrsm solves one of the triangular systems
//
//	Left, NoTrans:  L * X = B   (X overwrites B, B is m x n)
//	Left, Trans:    Lᵀ * X = B
//	Right, Trans:   X * Lᵀ = B
//
// where L is lower triangular with non-unit diagonal. Only the lower
// storage of L is referenced. Right/Trans, the Cholesky panel solve,
// is blocked: its off-diagonal updates run on gemmPacked. The
// parameter list is CBLAS's, but only these three cases with alpha 1
// are computed; any other side, transpose or alpha panics.
//
// abft:hotpath
// abft:bce checks=9
func Dtrsm(side Side, transL Transpose, m, n int, alpha float64, l []float64, ldl int, b []float64, ldb int) {
	if alpha != 1 || transL != NoTrans && transL != Trans || side != Left && (side != Right || transL != Trans) {
		panic("blas: Dtrsm solves only L·X = B, Lᵀ·X = B and X·Lᵀ = B: Dtrsm(Left, NoTrans|Trans, ...) or Dtrsm(Right, Trans, ...), alpha 1")
	}
	if side == Left {
		// Forward (NoTrans) or back (Trans) substitution per column of B.
		for j := 0; j < n; j++ {
			Dtrsv(transL, m, l, ldl, b[j*ldb:][:m])
		}
		return
	}
	// X*Lᵀ = B in trsmNB-column blocks: subtract the solved columns'
	// contribution to a block with one GEMM, then solve the block
	// column by column, x_k = (b_k - sum_{k0<=j<k} x_j*L[k,j]) / L[k,k].
	if m == 0 {
		return
	}
	for k0 := 0; k0 < n; k0 += trsmNB {
		kb := min(trsmNB, n-k0)
		if k0 > 0 {
			gemmPacked(m, kb, k0, b, ldb, l[k0:], ldl, b[k0*ldb:], ldb)
		}
		for k := k0; k < k0+kb; k++ {
			SubScaled(k-k0, l[k+k0*ldl:], ldl, b[k0*ldb:], ldb, b[k*ldb:][:m], 1/l[k+k*ldl])
		}
	}
}

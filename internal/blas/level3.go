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

// Dgemm computes C ← alpha*op(A)*op(B) + beta*C where op(A) is
// m x k, op(B) is k x n, and C is m x n, all column-major. The
// product runs on gemmPacked (gemm.go) in every transpose case.
//
// The column slices use the two-step base[off:][:n] form throughout:
// the compiler proves len from the second slice directly, where the
// single-step base[off : off+n] leaves an unsimplified (off+n)-off it
// cannot bound loops with (verified against -d=ssa/check_bce).
//
// abft:hotpath
// abft:bce checks=2
func Dgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if beta != 1 {
		for j := 0; j < n; j++ {
			col := c[j*ldc:][:m]
			if beta == 0 {
				for i := range col {
					col[i] = 0
				}
			} else {
				for i := range col {
					col[i] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 || m == 0 || n == 0 {
		return
	}
	gemmPacked(false, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// Dsyrk computes C ← alpha*A*Aᵀ + beta*C updating only the lower
// triangle, where A is n x k and C is n x n. The product runs on the
// packed GEMM over the lower tile triangle, so each element gets the
// bits Dgemm(NoTrans, Trans) would give it.
//
// abft:hotpath
// abft:bce checks=2
func Dsyrk(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		col := c[j*ldc:][:n]
		if beta == 0 {
			for i := j; i < n; i++ {
				col[i] = 0
			}
		} else if beta != 1 {
			for i := j; i < n; i++ {
				col[i] *= beta
			}
		}
	}
	if alpha == 0 || k == 0 || n == 0 {
		return
	}
	gemmPacked(true, NoTrans, Trans, n, n, k, alpha, a, lda, a, lda, c, ldc)
}

// Dtrsm solves one of the triangular systems
//
//	Left:  op(L) * X = alpha*B   (X overwrites B, B is m x n)
//	Right: X * op(L) = alpha*B
//
// where L is lower triangular with non-unit diagonal. Only the lower
// storage of L is referenced. Right/Trans, the Cholesky panel solve,
// is blocked: its off-diagonal updates run on gemmPacked.
//
// abft:hotpath
// abft:bce checks=19
func Dtrsm(side Side, transL Transpose, m, n int, alpha float64, l []float64, ldl int, b []float64, ldb int) {
	if alpha != 1 {
		for j := 0; j < n; j++ {
			col := b[j*ldb:][:m]
			for i := range col {
				col[i] *= alpha
			}
		}
	}
	switch {
	case side == Left && transL == NoTrans:
		// Solve L*X = B: forward substitution per column of B.
		for j := 0; j < n; j++ {
			Dtrsv(NoTrans, m, l, ldl, b[j*ldb:][:m])
		}
	case side == Left && transL == Trans:
		for j := 0; j < n; j++ {
			Dtrsv(Trans, m, l, ldl, b[j*ldb:][:m])
		}
	case side == Right && transL == NoTrans:
		// X*L = B  =>  column k of X: x_k = (b_k - sum_{j>k} x_j*L[j,k]) / L[k,k]
		for k := n - 1; k >= 0; k-- {
			bk := b[k*ldb:][:m]
			for j := k + 1; j < n; j++ {
				ljk := l[j+k*ldl]
				if ljk == 0 {
					continue
				}
				bj := b[j*ldb:][:len(bk)]
				for i := range bk {
					bk[i] -= ljk * bj[i]
				}
			}
			d := 1 / l[k+k*ldl]
			for i := range bk {
				bk[i] *= d
			}
		}
	default: // Right, Trans
		// X*Lᵀ = B in trsmNB-column blocks: subtract the solved columns'
		// contribution to a block with one GEMM, then solve the block
		// column by column, x_k = (b_k - sum_{k0<=j<k} x_j*L[k,j]) / L[k,k].
		if m == 0 {
			return
		}
		for k0 := 0; k0 < n; k0 += trsmNB {
			kb := min(trsmNB, n-k0)
			if k0 > 0 {
				gemmPacked(false, NoTrans, Trans, m, kb, k0, -1, b, ldb, l[k0:], ldl, b[k0*ldb:], ldb)
			}
			for k := k0; k < k0+kb; k++ {
				SubScaled(k-k0, l[k+k0*ldl:], ldl, b[k0*ldb:], ldb, b[k*ldb:][:m], 1/l[k+k*ldl])
			}
		}
	}
}

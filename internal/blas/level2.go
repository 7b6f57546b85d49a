package blas

// Transpose selectors, mirroring the CBLAS enum.
type Transpose int

const (
	NoTrans Transpose = iota
	Trans
)

// Dgemv computes y ← alpha*A*x + beta*y where A is m x n with leading
// dimension lda, and x and y use unit stride. The parameter list is
// CBLAS's, but trans must be NoTrans; Trans panics.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	if trans != NoTrans {
		panic("blas: Dgemv computes only y ← alpha·A·x + beta·y: Dgemv(NoTrans, ...)")
	}
	if beta != 1 {
		for i := 0; i < m; i++ {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	// Column-major: accumulate column by column.
	for j := 0; j < n; j++ {
		ax := alpha * x[j]
		if ax == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i, v := range col {
			y[i] += ax * v
		}
	}
}

// Dtrsv solves L*x = b or Lᵀ*x = b in place for a lower-triangular,
// non-unit-diagonal n x n matrix L with leading dimension lda.
//
// abft:hotpath
// abft:bce checks=7
func Dtrsv(trans Transpose, n int, l []float64, lda int, x []float64) {
	x = x[:n]
	if trans == NoTrans {
		for j := 0; j < n; j++ {
			x[j] /= l[j+j*lda]
			xj := x[j]
			col := l[j*lda:][:n]
			for i := j + 1; i < n; i++ {
				x[i] -= xj * col[i]
			}
		}
		return
	}
	for j := n - 1; j >= 0; j-- {
		s := x[j]
		col := l[j*lda:][:n]
		for i := j + 1; i < n; i++ {
			s -= col[i] * x[i]
		}
		x[j] = s / l[j+j*lda]
	}
}

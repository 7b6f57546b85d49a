package blas

// Transpose selectors, mirroring the CBLAS enum.
type Transpose int

const (
	NoTrans Transpose = iota
	Trans
)

// Dgemv computes y ← alpha*op(A)*x + beta*y where A is m x n with
// leading dimension lda and op is selected by trans. x and y use unit
// stride.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	ylen := m
	if trans == Trans {
		ylen = n
	}
	if beta != 1 {
		for i := 0; i < ylen; i++ {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if trans == NoTrans {
		// y += alpha * A * x, column-major: accumulate column by column.
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
		return
	}
	// y += alpha * Aᵀ * x: each output element is a column dot product.
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		s := 0.0
		for i, v := range col {
			s += v * x[i]
		}
		y[j] += alpha * s
	}
}

// Dger computes A ← A + alpha*x*yᵀ where A is m x n with leading
// dimension lda.
func Dger(m, n int, alpha float64, x, y, a []float64, lda int) {
	if alpha == 0 {
		return
	}
	for j := 0; j < n; j++ {
		ay := alpha * y[j]
		if ay == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i := range col {
			col[i] += ay * x[i]
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

// Dsyr computes A ← A + alpha*x*xᵀ updating only the lower triangle of
// the n x n matrix A.
func Dsyr(n int, alpha float64, x, a []float64, lda int) {
	if alpha == 0 {
		return
	}
	for j := 0; j < n; j++ {
		ax := alpha * x[j]
		if ax == 0 {
			continue
		}
		col := a[j*lda:]
		for i := j; i < n; i++ {
			col[i] += ax * x[i]
		}
	}
}

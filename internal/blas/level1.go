// Package blas implements the dense double-precision BLAS subset the
// ABFT Cholesky stack needs, in pure Go. All routines use the LAPACK
// column-major convention: element (i, j) of a matrix with leading
// dimension ld is a[i+j*ld].
//
// Level-3 routines have both serial kernels and parallel front ends
// (see parallel.go); the parallel versions block the iteration space
// and fan it out over goroutines, standing in for the multicore host
// and the simulated GPU's arithmetic.
package blas

import "math"

// Daxpy computes y ← alpha*x + y over n elements with unit stride.
//
// abft:hotpath
// abft:bce checks=2
func Daxpy(n int, alpha float64, x, y []float64) {
	if alpha == 0 || n == 0 {
		return
	}
	x = x[:n]
	y = y[:n]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Ddot returns xᵀy over n elements with unit stride.
//
// abft:hotpath
// abft:bce checks=2
func Ddot(n int, x, y []float64) float64 {
	s := 0.0
	x = x[:n]
	y = y[:n]
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Dscal computes x ← alpha*x over n elements with unit stride.
//
// abft:hotpath
// abft:bce checks=1
func Dscal(n int, alpha float64, x []float64) {
	x = x[:n]
	for i := range x {
		x[i] *= alpha
	}
}

// Dnrm2 returns the Euclidean norm of x over n elements, guarding
// against overflow the way the reference BLAS does.
func Dnrm2(n int, x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x[:n] {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Idamax returns the index of the element with the largest absolute
// value, or -1 when n == 0.
func Idamax(n int, x []float64) int {
	if n == 0 {
		return -1
	}
	best, bi := math.Abs(x[0]), 0
	for i := 1; i < n; i++ {
		if av := math.Abs(x[i]); av > best {
			best, bi = av, i
		}
	}
	return bi
}

// Dcopy copies n elements of x into y.
//
// abft:hotpath
// abft:bce checks=2
func Dcopy(n int, x, y []float64) {
	copy(y[:n], x[:n])
}

// Dasum returns the sum of absolute values of x over n elements.
func Dasum(n int, x []float64) float64 {
	s := 0.0
	for _, v := range x[:n] {
		s += math.Abs(v)
	}
	return s
}

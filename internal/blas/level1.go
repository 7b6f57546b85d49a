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

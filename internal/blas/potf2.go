package blas

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot. In the fault-tolerance experiments
// this is the "fail-stop" outcome the paper describes: a storage error
// that breaks positive definiteness kills the unblocked factorization.
var ErrNotPositiveDefinite = errors.New("blas: matrix is not positive definite")

// PivotError carries the index of the failing pivot so callers (and
// tests) can tell which column broke.
type PivotError struct {
	Index int
	Value float64
}

func (e *PivotError) Error() string {
	return fmt.Sprintf("blas: non-positive pivot %g at column %d", e.Value, e.Index)
}

func (e *PivotError) Unwrap() error { return ErrNotPositiveDefinite }

// Dpotf2 computes the unblocked Cholesky factorization A = L*Lᵀ of the
// lower triangle of the n x n matrix a (leading dimension lda),
// overwriting the lower triangle with L. The strict upper triangle is
// not referenced. This is the POTF2 kernel that MAGMA runs on the CPU.
//
// abft:hotpath
// abft:bce checks=5
func Dpotf2(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		col := a[j*lda:][:n]
		// a[j,j] -= dot(a[j, 0:j], a[j, 0:j])
		d := col[j]
		for k := 0; k < j; k++ {
			v := a[j+k*lda]
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return &PivotError{Index: j, Value: d}
		}
		d = math.Sqrt(d)
		col[j] = d
		// a[j+1:, j] = (a[j+1:, j] - A[j+1:, 0:j]*a[j, 0:j]ᵀ) / d
		SubScaled(j, a[j:], lda, a[j+1:], lda, col[j+1:], 1/d)
	}
	return nil
}

// Dpotrf computes a blocked right-looking Cholesky factorization of
// the lower triangle of a, with block size nb. It is the serial
// reference the hybrid and ABFT variants are validated against.
//
// abft:hotpath
// abft:bce checks=4
func Dpotrf(n, nb int, a []float64, lda int) error {
	if nb <= 0 || nb >= n {
		return Dpotf2(n, a, lda)
	}
	for j := 0; j < n; j += nb {
		jb := nb
		if j+jb > n {
			jb = n - j
		}
		// Diagonal block update: A[j:j+jb, j:j+jb] -= A[j:j+jb, 0:j]*A[j:j+jb, 0:j]ᵀ
		Dsyrk(jb, j, -1, a[j:], lda, 1, a[j+j*lda:], lda)
		if err := Dpotf2(jb, a[j+j*lda:], lda); err != nil {
			if pe, ok := err.(*PivotError); ok {
				pe.Index += j
			}
			return err
		}
		if j+jb < n {
			rows := n - j - jb
			// Panel update: A[j+jb:, j:j+jb] -= A[j+jb:, 0:j]*A[j:j+jb, 0:j]ᵀ
			Dgemm(NoTrans, Trans, rows, jb, j, -1, a[j+jb:], lda, a[j:], lda, 1, a[j+jb+j*lda:], lda)
			// Triangular solve: A[j+jb:, j:j+jb] = A[j+jb:, j:j+jb] * L[j,j]⁻ᵀ
			Dtrsm(Right, Trans, rows, jb, 1, a[j+j*lda:], lda, a[j+jb+j*lda:], lda)
		}
	}
	return nil
}

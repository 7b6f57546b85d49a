// Package blas is a miniature of the real kernel surface — shape-only
// stubs so the seeded-bug module type-checks without numeric code.
package blas

// Transpose mirrors the real API's enum.
type Transpose int

// Transpose values.
const (
	NoTrans Transpose = iota
	Trans
)

// Side mirrors the real API's enum.
type Side int

// Side values.
const (
	Left Side = iota
	Right
)

// Dpotf2 stands in for the unblocked Cholesky kernel.
func Dpotf2(n int, a []float64, lda int) error { return nil }

// DtrsmParallel stands in for the parallel triangular solve.
func DtrsmParallel(side Side, transL Transpose, m, n int, alpha float64, l []float64, ldl int, b []float64, ldb int) {
}

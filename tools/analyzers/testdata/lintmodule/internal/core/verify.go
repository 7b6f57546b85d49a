package core

import "abftchol/internal/mat"

// colSum recomputes column j's checksum with the layout spelled out by
// hand: the seeded matindex bug.
func colSum(a *mat.Matrix, j int) float64 {
	s := 0.0
	for i := 0; i < a.Rows; i++ {
		s += a.Data[i+j*a.Stride]
	}
	return s
}

// verified compares a recomputed checksum with the stored one exactly:
// the seeded floateq bug, which round-off turns into phantom faults.
func verified(a *mat.Matrix, j int, stored float64) bool {
	return colSum(a, j) == stored
}

var _ = verified

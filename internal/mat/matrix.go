// Package mat provides column-major dense matrices and the helpers the
// ABFT Cholesky implementation needs: block views, symmetric
// positive-definite generators, norms, and residual checks.
//
// Storage follows the LAPACK convention: element (i, j) of a matrix
// with leading dimension ld lives at Data[i+j*ld]. All matrices in this
// repository are double precision.
package mat

import (
	"errors"
	"fmt"
)

// Matrix is a column-major view over a float64 buffer. A Matrix may be
// a sub-view of a larger allocation; Stride is the leading dimension of
// the underlying allocation, so Stride >= Rows for a valid matrix.
type Matrix struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// ErrShape reports a dimension mismatch between operands.
var ErrShape = errors.New("mat: dimension mismatch")

// New allocates a zeroed Rows x Cols matrix with a tight stride.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{
		Rows:   rows,
		Cols:   cols,
		Stride: rows,
		Data:   make([]float64, rows*cols),
	}
}

// FromSlice wraps data (column-major, tight stride) as a rows x cols
// matrix. The matrix aliases data; it does not copy.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) < rows*cols {
		panic(fmt.Sprintf("mat: slice of length %d cannot hold %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: rows, Data: data}
}

// At returns element (i, j).
//
// abft:hotpath
// abft:bce checks=1
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i+j*m.Stride]
}

// Set assigns element (i, j).
//
// abft:hotpath
// abft:bce checks=1
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i+j*m.Stride] = v
}

// Add increments element (i, j) by v.
//
// abft:hotpath
// abft:bce checks=1
func (m *Matrix) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i+j*m.Stride] += v
}

// boundsCheck panics unless (i, j) lies inside m. It is too large to
// inline, so the accessors make a real call to it.
//
// abft:hotpath
func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Col returns the j-th column as a slice aliasing the matrix storage.
//
// abft:hotpath
// abft:bce checks=2
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: column %d out of range %d", j, m.Cols))
	}
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// Off returns the raw storage suffix beginning at element (i, j): the
// (slice, stride) pair that BLAS-style kernels consume. It exists so
// callers never spell out Data[i+j*Stride] themselves — the
// column-major layout stays a single-package concern (enforced by the
// matindex analyzer).
//
// abft:hotpath
// abft:bce checks=1
func (m *Matrix) Off(i, j int) []float64 {
	m.boundsCheck(i, j)
	return m.Data[i+j*m.Stride:]
}

// View returns the sub-matrix of size r x c whose top-left corner is
// (i, j). The view aliases the receiver's storage.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("mat: view (%d,%d)+%dx%d out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{
		Rows:   r,
		Cols:   c,
		Stride: m.Stride,
		Data:   m.Data[i+j*m.Stride:],
	}
}

// Clone returns a deep copy with a tight stride. A tight-stride
// receiver is copied in one append, which skips New's zeroing pass.
func (m *Matrix) Clone() *Matrix {
	if m.Stride == m.Rows && m.Rows*m.Cols > 0 {
		return &Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.Rows, Data: append([]float64(nil), m.Data[:m.Rows*m.Cols]...)}
	}
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into the receiver; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero clears every element of the receiver (respecting views).
func (m *Matrix) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element of the receiver to v.
func (m *Matrix) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = v
		}
	}
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			out.Set(j, i, v)
		}
	}
	return out
}

// LowerFromFull zeroes the strict upper triangle in place, keeping the
// lower triangle and diagonal. It is used to extract the Cholesky
// factor from a buffer whose upper triangle holds stale data.
func (m *Matrix) LowerFromFull() {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for j := 1; j < m.Cols; j++ {
		col := m.Col(j)
		for i := 0; i < j && i < m.Rows; i++ {
			col[i] = 0
		}
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Matrix{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// Equal reports whether two matrices have the same shape and all
// elements within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			d := ca[i] - cb[i]
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference
// between two same-shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	maxd := 0.0
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			d := ca[i] - cb[i]
			if d < 0 {
				d = -d
			}
			if d > maxd {
				maxd = d
			}
		}
	}
	return maxd
}

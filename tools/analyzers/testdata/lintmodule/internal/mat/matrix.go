// Package mat is a miniature of the real column-major matrix type: the
// one package allowed to compute Data offsets.
package mat

// Matrix stores element (i, j) at Data[i+j*Stride].
type Matrix struct {
	Rows, Cols, Stride int
	Data               []float64
}

// At is the sanctioned element read.
func (m *Matrix) At(i, j int) float64 {
	return m.Data[i+j*m.Stride]
}

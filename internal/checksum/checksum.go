// Package checksum implements the two-vector column-checksum code the
// paper builds its ABFT schemes on (§IV).
//
// Every B x B block A of the input matrix is encoded with two column
// checksums computed from the weight vectors v1 = (1, 1, ..., 1) and
// v2 = (1, 2, ..., B):
//
//	chk1 = v1ᵀ A   (1 x B)
//	chk2 = v2ᵀ A   (1 x B)
//
// The pair detects and corrects one wrong element per block column:
// a mismatch δ1 in column c gives the error magnitude, and the ratio
// δ2/δ1 gives its (1-based) row. All checksums of a matrix live in a
// single 2N x n checksum matrix (N = n/B block rows) so they can be
// updated with one BLAS call per factorization step.
package checksum

import (
	"fmt"
	"math"

	"abftchol/internal/blas"
	"abftchol/internal/mat"
)

// Vectors returns the two weight vectors for block size b:
// v1 = (1, ..., 1) and v2 = (1, 2, ..., b).
func Vectors(b int) (v1, v2 []float64) {
	v1 = make([]float64, b)
	v2 = make([]float64, b)
	for i := 0; i < b; i++ {
		v1[i] = 1
		v2[i] = float64(i + 1)
	}
	return v1, v2
}

// EncodeBlockInto writes the 2 x C checksum of block (R x C) into chk.
// Row 0 of chk is the plain column sum, row 1 the weighted sum. It
// returns block.NormMax(), taken in the same pass, so verification
// reads each block once. The sums run on blas.ColChecksums.
//
// abft:hotpath
// abft:noescape
// abft:bce checks=0
func EncodeBlockInto(block, chk *mat.Matrix) float64 {
	if chk.Rows != 2 || chk.Cols != block.Cols {
		panic(fmt.Sprintf("checksum: chk %dx%d for block %dx%d", chk.Rows, chk.Cols, block.Rows, block.Cols))
	}
	return blas.ColChecksums(block.Rows, block.Cols, block.Data, block.Stride, chk.Data, chk.Stride)
}

// EncodeMatrix builds the full 2N x n checksum matrix for the lower
// block triangle of the n x n matrix a with block size b. Block (i, j)
// with i >= j gets its checksums at rows {2i, 2i+1}, columns
// jB..(j+1)B. Upper blocks are never read by the factorization and
// stay zero.
func EncodeMatrix(a *mat.Matrix, b int) *mat.Matrix {
	n := a.Rows
	if a.Cols != n || n%b != 0 {
		panic(fmt.Sprintf("checksum: matrix %dx%d not divisible into %d-blocks", a.Rows, a.Cols, b))
	}
	nb := n / b
	chk := mat.New(2*nb, n)
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			EncodeBlockInto(a.View(i*b, j*b, b, b), chk.View(2*i, j*b, 2, b))
		}
	}
	return chk
}

// EncodeMatrixMulti is EncodeMatrix for an m-vector code: the checksum
// matrix is m·N x n and block (i, j)'s checksums occupy rows
// m·i .. m·i+m-1.
func EncodeMatrixMulti(a *mat.Matrix, b, m int) *mat.Matrix {
	n := a.Rows
	if a.Cols != n || n%b != 0 {
		panic(fmt.Sprintf("checksum: matrix %dx%d not divisible into %d-blocks", a.Rows, a.Cols, b))
	}
	// For m = 2, MultiCode.EncodeInto gives EncodeBlockInto's bits,
	// several times slower.
	encode := EncodeBlockInto
	if m != 2 {
		encode = NewMultiCode(m, b).EncodeInto
	}
	nb := n / b
	chk := mat.New(m*nb, n)
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			encode(a.View(i*b, j*b, b, b), chk.View(m*i, j*b, m, b))
		}
	}
	return chk
}

// Tolerance returns the rounding-error threshold for comparing stored
// and recalculated checksums of a block: well above the accumulation
// noise of O(n) updates, well below any bit flip that matters.
func Tolerance(block *mat.Matrix) float64 {
	return toleranceFor(block.Rows, block.NormMax())
}

// toleranceFor is Tolerance for a block of rows rows whose largest
// absolute element is normMax.
func toleranceFor(rows int, normMax float64) float64 {
	scale := normMax
	if scale < 1 {
		scale = 1
	}
	return 1e-9 * float64(rows) * scale
}

// Mismatch is a flagged block column: the recalculated checksums
// disagree with the stored ones by (D1, D2).
type Mismatch struct {
	Col    int
	D1, D2 float64
}

// Compare recomputes nothing: it diffs the stored and recalculated
// 2 x C checksum panels and returns the columns whose plain checksum
// deviates by more than tol.
func Compare(stored, recalced *mat.Matrix, tol float64) []Mismatch {
	if stored.Rows != 2 || recalced.Rows != 2 || stored.Cols != recalced.Cols {
		panic("checksum: compare shape mismatch")
	}
	var out []Mismatch
	tol2 := tol * weightScale(stored.Cols)
	for c := 0; c < stored.Cols; c++ {
		s := stored.Col(c)
		r := recalced.Col(c)[:len(s)]
		d1 := r[0] - s[0]
		d2 := r[1] - s[1]
		if math.Abs(d1) > tol || math.Abs(d2) > tol2 {
			out = append(out, Mismatch{Col: c, D1: d1, D2: d2})
		}
	}
	return out
}

// weightScale loosens the weighted-checksum threshold: v2 entries are
// up to B, so its rounding noise is up to B times larger.
func weightScale(b int) float64 { return float64(b) }

// Correction is a located error: subtract Delta from element
// (Row, Col) of the block. OK is false when the mismatch cannot be
// explained by a single wrong element in that column (the ratio test
// fails), i.e. the corruption has propagated beyond the code's reach.
type Correction struct {
	Row, Col int
	Delta    float64
	OK       bool
}

// Locate converts mismatches into corrections for a block with rows
// rows. A mismatch locates as row = δ2/δ1 (1-based); the ratio must be
// within locTol of an integer in [1, rows] to be trusted.
func Locate(ms []Mismatch, rows int) []Correction {
	out := make([]Correction, 0, len(ms))
	for _, m := range ms {
		c := Correction{Col: m.Col, Delta: m.D1}
		if m.D1 != 0 {
			ratio := m.D2 / m.D1
			r := math.Round(ratio)
			// The ratio tolerance scales with the row index: both
			// deltas carry rounding noise of similar absolute size,
			// so the quotient is noisier for larger ratios.
			if math.Abs(ratio-r) < 0.01 && r >= 1 && r <= float64(rows) {
				c.Row = int(r) - 1
				c.OK = true
			}
		}
		out = append(out, c)
	}
	return out
}

// Apply subtracts each OK correction from the block. It returns an
// error (and applies nothing further) at the first non-correctable
// entry.
func Apply(block *mat.Matrix, corrs []Correction) error {
	for _, c := range corrs {
		if !c.OK {
			return fmt.Errorf("checksum: column %d corruption is not single-element correctable", c.Col)
		}
		block.Add(c.Row, c.Col, -c.Delta)
	}
	return nil
}

// VerifyAndCorrect is the full pre-read verification of one block:
// recalculate, compare against the stored checksums, locate, and
// repair in place. It returns the corrections applied. A non-nil error
// means the block is corrupted beyond repair (caller must trigger the
// scheme's recovery path). scratch must be a 2 x block.Cols matrix; it
// is overwritten.
func VerifyAndCorrect(block, stored, scratch *mat.Matrix) ([]Correction, error) {
	normMax := EncodeBlockInto(block, scratch)
	ms := Compare(stored, scratch, toleranceFor(block.Rows, normMax))
	if len(ms) == 0 {
		return nil, nil
	}
	corrs := Locate(ms, block.Rows)
	if err := Apply(block, corrs); err != nil {
		return corrs, err
	}
	return corrs, nil
}

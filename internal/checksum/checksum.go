// Package checksum implements the column-checksum code the paper
// builds its ABFT schemes on (§IV), for any number m >= 2 of weight
// vectors.
//
// Every B x B block A of the input matrix is encoded with m column
// checksums, one per weight vector
//
//	w_s = (1^s, 2^s, ..., B^s),   chk_s = w_sᵀ A   (1 x B),   s = 0 .. m-1.
//
// m = 2 is the code of the paper's implementation: v1 = (1, 1, ..., 1)
// and v2 = (1, 2, ..., B). A column corrupted by errors e_j in rows r_j
// (1-based) leaves the syndromes δ_s = Σ_j e_j·r_j^s. One error is
// located in closed form: δ_0 is its magnitude and δ_1/δ_0 its row.
// t errors need 2t syndromes and are located by Prony's method, so m
// vectors correct ⌊m/2⌋ errors per column (§IV's "m+1 checksums
// correct m" counts only locating errors of known magnitude). All
// checksums of a matrix live in a single m·N x n checksum matrix
// (N = n/B block rows) so they can be updated with one BLAS call per
// factorization step.
//
// The code uses column, not row, checksums, as the paper does after
// FT-ScaLAPACK: every Cholesky update multiplies blocks from the right
// (C ← C − A·Bᵀ, X ← X·L⁻ᵀ), so a column checksum vᵀC updates to
// vᵀC − (vᵀA)·Bᵀ from stored checksums alone. A row checksum C·w would
// update to C·w − A·(Bᵀ·w), and Bᵀ·w is no stored checksum, so keeping
// it would cost a fresh pass over B at every update.
package checksum

import (
	"fmt"
	"math"

	"abftchol/internal/blas"
	"abftchol/internal/mat"
)

// EncodeBlockInto writes the m x C checksum of block (R x C) into chk,
// m = chk.Rows >= 2: row s of chk is w_sᵀ·block. It returns
// block.NormMax(), taken in the same pass, so verification reads each
// block once. m = 2 runs on blas.ColChecksums.
//
// abft:hotpath
// abft:bce checks=0
func EncodeBlockInto(block, chk *mat.Matrix) float64 {
	if chk.Rows < 2 || chk.Cols != block.Cols {
		panic(fmt.Sprintf("checksum: chk %dx%d for block %dx%d", chk.Rows, chk.Cols, block.Rows, block.Cols))
	}
	if chk.Rows > 2 {
		return encodeWeighted(block, chk)
	}
	return blas.ColChecksums(block.Rows, block.Cols, block.Data, block.Stride, chk.Data, chk.Stride)
}

// encodeRows is how many rows' weights encodeWeighted holds at once.
const encodeRows = 256

// encodeWeighted is EncodeBlockInto's loop for any m. Each pass takes
// four checksums s0..s0+3 and up to encodeRows rows: it builds every
// row's four weights once, w_s = x^s by the chain 1·x·x···x, then sums
// each column's four checksums in four chains in increasing row order,
// a later row chunk continuing from the sums stored in chk. Each
// product is rounded before its add, as in blas.ColChecksums, so no
// compiler fuses the two; for m = 2 the two give the same bits.
//
// abft:hotpath
// abft:bce checks=4
func encodeWeighted(block, chk *mat.Matrix) float64 {
	var w [encodeRows * 4]float64
	m := chk.Rows
	maxv := 0.0
	for s0 := 0; s0 < m; s0 += 4 {
		ns := min(4, m-s0)
		for r0 := 0; r0 < block.Rows; r0 += encodeRows {
			rows := min(encodeRows, block.Rows-r0)
			for i := range rows {
				x := float64(r0 + i + 1)
				p := 1.0
				for range s0 {
					p *= x
				}
				ws := (*[4]float64)(w[i*4:])
				for s := range ws {
					ws[s] = p
					p *= x
				}
			}
			for col := 0; col < block.Cols; col++ {
				data := block.Col(col)[r0:][:rows]
				out := chk.Col(col)[s0:][:ns]
				var acc [4]float64
				if r0 > 0 {
					copy(acc[:], out)
				}
				a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
				for i, v := range data {
					if av := math.Abs(v); av > maxv {
						maxv = av
					}
					ws := (*[4]float64)(w[i*4:])
					a0 += float64(ws[0] * v)
					a1 += float64(ws[1] * v)
					a2 += float64(ws[2] * v)
					a3 += float64(ws[3] * v)
				}
				acc = [4]float64{a0, a1, a2, a3}
				copy(out, acc[:])
			}
		}
	}
	return maxv
}

// EncodeMatrixMulti builds the full m·N x n checksum matrix for the
// lower block triangle of the n x n matrix a with block size b. Block
// (i, j) with i >= j gets its checksums at rows m·i .. m·i+m-1,
// columns jB..(j+1)B. Upper blocks are never read by the factorization
// and stay zero.
func EncodeMatrixMulti(a *mat.Matrix, b, m int) *mat.Matrix {
	n := a.Rows
	if a.Cols != n || n%b != 0 {
		panic(fmt.Sprintf("checksum: matrix %dx%d not divisible into %d-blocks", a.Rows, a.Cols, b))
	}
	nb := n / b
	chk := mat.New(m*nb, n)
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			EncodeBlockInto(a.View(i*b, j*b, b, b), chk.View(m*i, j*b, m, b))
		}
	}
	return chk
}

// toleranceFor returns the rounding-error threshold for comparing
// stored and recalculated plain checksums of a block of rows rows
// whose largest absolute element is normMax: well above the
// accumulation noise of O(n) updates, well below any bit flip that
// matters. Checksum s compares against toleranceFor·B^s, since w_s's
// entries, and its rounding noise, reach B^s.
func toleranceFor(rows int, normMax float64) float64 {
	scale := normMax
	if scale < 1 {
		scale = 1
	}
	return 1e-9 * float64(rows) * scale
}

// Correction is an applied repair: Delta was subtracted from element
// (Row, Col) of the block. An element rebuilt from a non-finite value
// has Delta = old − new, itself non-finite.
type Correction struct {
	Row, Col int
	Delta    float64
}

// VerifyAndCorrect is the full pre-read verification of one block:
// recalculate its m = stored.Rows checksums into scratch (m x
// block.Cols, overwritten), compare them with stored, and repair up to
// ⌊m/2⌋ wrong elements per column in place. It returns the corrections
// applied. A non-nil error means some column's corruption is beyond
// the code and the caller must trigger the scheme's recovery path; the
// corrections returned with it are those applied so far.
//
// Every repair must verify. The thresholds that flag a column come
// from the corrupted block's max|v|, and a huge finite error makes them
// huge: its subtraction can absorb every other element of its column
// and "repair" it to about 0. So once the columns are repaired, the
// block is encoded again, and each repaired column must then pass the
// repaired block's own thresholds or the block fails.
func VerifyAndCorrect(block, stored, scratch *mat.Matrix) ([]Correction, error) {
	m := stored.Rows
	if scratch.Rows != m || stored.Cols != block.Cols || scratch.Cols != block.Cols {
		panic(fmt.Sprintf("checksum: verify shapes block %dx%d stored %dx%d scratch %dx%d",
			block.Rows, block.Cols, stored.Rows, stored.Cols, scratch.Rows, scratch.Cols))
	}
	var thrbuf [8]float64
	thr := thresholds(thrbuf[:0], block, scratch)
	var out []Correction
	for col := 0; col < block.Cols; col++ {
		if !flagged(stored.Col(col), scratch.Col(col), thr) {
			continue
		}
		var ok bool
		if out, ok = correctColumn(block, stored, scratch, col, thr, out); !ok {
			return out, uncorrectable(col, m)
		}
	}
	if len(out) == 0 {
		return out, nil
	}
	thr = thresholds(thr[:0], block, scratch)
	for i, c := range out {
		if (i == 0 || out[i-1].Col != c.Col) && flagged(stored.Col(c.Col), scratch.Col(c.Col), thr) {
			return out, uncorrectable(c.Col, m)
		}
	}
	return out, nil
}

// thresholds encodes block into scratch and appends the m = scratch.Rows
// syndrome thresholds toleranceFor·B^s, s < m, of the block's largest
// finite |element|.
func thresholds(dst []float64, block, scratch *mat.Matrix) []float64 {
	normMax := EncodeBlockInto(block, scratch)
	if math.IsInf(normMax, 1) {
		normMax = finiteMax(block) // an Inf element must not blind the threshold
	}
	b := block.Rows
	tol := toleranceFor(b, normMax)
	for s := 0; s < scratch.Rows; s++ {
		dst = append(dst, tol*math.Pow(float64(b), float64(s)))
	}
	return dst
}

// uncorrectable is the error for a column beyond the m-vector code.
func uncorrectable(col, m int) error {
	if m < 4 {
		return fmt.Errorf("checksum: column %d corruption is not single-element correctable", col)
	}
	return fmt.Errorf("checksum: column %d corruption is not %d-element correctable", col, m/2)
}

// flagged reports whether any syndrome recalced[s] − stored[s] is not
// within thr[s]. It is written so that a NaN syndrome is flagged.
func flagged(stored, recalced, thr []float64) bool {
	recalced = recalced[:len(stored)]
	thr = thr[:len(stored)]
	for s, st := range stored {
		if !(math.Abs(recalced[s]-st) <= thr[s]) {
			return true
		}
	}
	return false
}

// correctColumn is the locator: it repairs flagged column col of block
// and appends the repairs to out, or reports false when it cannot
// explain the column's corruption. A finite plain syndrome goes to
// locate. A non-finite one comes from a NaN or ±Inf element, which no
// syndrome arithmetic can place; when it is the column's only
// non-finite element it is rebuilt from the plain checksum. Either way
// VerifyAndCorrect then re-checks the repaired column.
func correctColumn(block, stored, scratch *mat.Matrix, col int, thr []float64, out []Correction) ([]Correction, bool) {
	st, re := stored.Col(col), scratch.Col(col)
	data := block.Col(col)
	syn := make([]float64, len(st))
	for s := range syn {
		syn[s] = re[s] - st[s]
	}
	if finite(syn[0]) {
		rows, mags, ok := locate(syn, len(data), thr[0])
		if !ok {
			return out, false
		}
		for j, r := range rows {
			data[r] -= mags[j]
			out = append(out, Correction{Row: r, Col: col, Delta: mags[j]})
		}
		return out, true
	}
	row, others := -1, 0.0
	for i, v := range data {
		switch {
		case finite(v):
			others += v
		case row >= 0:
			return out, false
		default:
			row = i
		}
	}
	if row < 0 {
		return out, false
	}
	rebuilt := st[0] - others
	old := data[row]
	data[row] = rebuilt
	return append(out, Correction{Row: row, Col: col, Delta: old - rebuilt}), true
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// finiteMax is max|v| over block's finite elements.
func finiteMax(block *mat.Matrix) float64 {
	maxv := 0.0
	for j := 0; j < block.Cols; j++ {
		for _, v := range block.Col(j) {
			if av := math.Abs(v); av > maxv && finite(v) {
				maxv = av
			}
		}
	}
	return maxv
}

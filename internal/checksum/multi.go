package checksum

import (
	"fmt"
	"math"

	"abftchol/internal/mat"
)

// Multi-vector checksum codes — the generalization §IV of the paper
// sketches ("generally, m+1 column/row checksums could locate and
// correct up to m errors per column/row"). The construction here is
// the standard Reed-Solomon-style one over the reals: m weight vectors
//
//	w_s[i] = (i+1)^s,  s = 0 .. m-1
//
// (s=0 is the all-ones vector and s=1 the 1..B ramp, so m=2 is exactly
// the code the paper's implementation uses). A column corrupted in t
// unknown rows yields syndromes
//
//	δ_s = Σ_j e_j · r_j^s
//
// and t errors are locatable and correctable from 2t syndromes via the
// error-locator polynomial (Prony's method): m vectors correct up to
// ⌊m/2⌋ errors per column. (The paper's "m+1 correct m" counts only
// location of known-magnitude errors; recovering t magnitudes *and* t
// positions needs 2t equations, which the tests here demonstrate.)
type MultiCode struct {
	m int
	b int
}

// NewMultiCode builds an m-vector code for blocks with b rows.
// m must be at least 2.
func NewMultiCode(m, b int) *MultiCode {
	if m < 2 {
		panic("checksum: multi code needs at least 2 vectors")
	}
	if b < 1 {
		panic("checksum: block rows must be positive")
	}
	return &MultiCode{m: m, b: b}
}

// Vectors returns the number of weight vectors m.
func (c *MultiCode) Vectors() int { return c.m }

// MaxErrors returns the per-column correction capability ⌊m/2⌋.
func (c *MultiCode) MaxErrors() int { return c.m / 2 }

// EncodeInto writes the m x C checksum of block into chk. It returns
// block.NormMax(), taken in the same pass, so verification reads each
// block once.
//
// The accumulator lives in a fixed stack array for the code sizes the
// factorization actually uses (m ≤ 8); encoding is allocation-free per
// call, where it previously allocated one m-slice per column.
//
// abft:hotpath
// abft:bce checks=2
func (c *MultiCode) EncodeInto(block, chk *mat.Matrix) float64 {
	if block.Rows != c.b {
		panic(fmt.Sprintf("checksum: block has %d rows, code built for %d", block.Rows, c.b))
	}
	if chk.Rows != c.m || chk.Cols != block.Cols {
		panic(fmt.Sprintf("checksum: chk %dx%d for m=%d block %dx%d", chk.Rows, chk.Cols, c.m, block.Rows, block.Cols))
	}
	var sumbuf [8]float64
	sums := sumbuf[:]
	if c.m > len(sumbuf) {
		sums = make([]float64, c.m) //nolint:hotpath — cold: codes larger than 8 vectors pay one allocation per encode, never per column
	}
	sums = sums[:c.m]
	maxv := 0.0
	for col := 0; col < block.Cols; col++ {
		data := block.Col(col)
		for s := range sums {
			sums[s] = 0
		}
		// Accumulate all m weighted sums in one pass: w_s[i] = (i+1)^s.
		// The conversion rounds each product before its add, as
		// EncodeBlockInto does, so no compiler fuses the two.
		for i, v := range data {
			if av := math.Abs(v); av > maxv {
				maxv = av
			}
			w := 1.0
			x := float64(i + 1)
			for s := range sums {
				sums[s] += float64(w * v)
				w *= x
			}
		}
		for s, sv := range sums {
			chk.Set(s, col, sv)
		}
	}
	return maxv
}

// VerifyAndCorrect recalculates the block's m checksums, compares them
// with stored, and repairs up to MaxErrors wrong elements per column in
// place. scratch must be m x block.Cols. It returns the corrections
// applied, or an error when some column's corruption exceeds the
// code's capability.
func (c *MultiCode) VerifyAndCorrect(block, stored, scratch *mat.Matrix) ([]Correction, error) {
	tol := toleranceFor(block.Rows, c.EncodeInto(block, scratch))
	var out []Correction
	var synbuf [8]float64
	syn := synbuf[:]
	if c.m > len(synbuf) {
		syn = make([]float64, c.m)
	}
	syn = syn[:c.m]
	for col := 0; col < block.Cols; col++ {
		dirty := false
		for s := 0; s < c.m; s++ {
			syn[s] = scratch.At(s, col) - stored.At(s, col)
			// Higher syndromes carry weights up to B^s; scale the
			// threshold accordingly.
			if math.Abs(syn[s]) > tol*math.Pow(float64(c.b), float64(s)) {
				dirty = true
			}
		}
		if !dirty {
			continue
		}
		rows, mags, ok := c.solveColumn(syn, tol)
		if !ok {
			return out, fmt.Errorf("checksum: column %d corruption exceeds %d-error capability", col, c.MaxErrors())
		}
		for j, r := range rows {
			block.Add(r, col, -mags[j])
			out = append(out, Correction{Row: r, Col: col, Delta: mags[j], OK: true})
		}
	}
	return out, nil
}

// solveColumn recovers error rows and magnitudes from the syndromes,
// trying t = 1, 2, ..., ⌊m/2⌋ and accepting the first t whose solution
// reproduces every syndrome.
func (c *MultiCode) solveColumn(syn []float64, tol float64) (rows []int, mags []float64, ok bool) {
	for t := 1; t <= c.m/2; t++ {
		rows, mags, ok = c.tryT(syn, t, tol)
		if ok {
			return rows, mags, true
		}
	}
	return nil, nil, false
}

// tryT attempts an exactly-t-error explanation.
func (c *MultiCode) tryT(syn []float64, t int, tol float64) ([]int, []float64, bool) {
	// Error locator via the syndrome recurrence (Prony): find
	// coefficients a[0..t-1] with
	//   δ_{s+t} = Σ_i a_i · δ_{s+i}   for s = 0 .. t-1,
	// so Λ(x) = x^t − Σ a_i x^i has the error rows (1-based) as roots.
	A := make([][]float64, t)
	rhs := make([]float64, t)
	for s := 0; s < t; s++ {
		A[s] = make([]float64, t)
		for i := 0; i < t; i++ {
			A[s][i] = syn[s+i]
		}
		rhs[s] = syn[s+t]
	}
	a, solved := solveDense(A, rhs)
	if !solved {
		return nil, nil, false
	}
	// The roots must be integers in [1, b]: scan.
	lambda := func(x float64) float64 {
		v := math.Pow(x, float64(t))
		for i := 0; i < t; i++ {
			v -= a[i] * math.Pow(x, float64(i))
		}
		return v
	}
	// A root's numerical residual scales with the polynomial's term
	// magnitudes (the Hankel solve above can lose several digits for
	// t >= 3), so the acceptance threshold is relative to them.
	termScale := func(x float64) float64 {
		s := math.Pow(x, float64(t))
		for i := 0; i < t; i++ {
			s += math.Abs(a[i]) * math.Pow(x, float64(i))
		}
		if s < 1 {
			s = 1
		}
		return s
	}
	var rows []int
	for r := 1; r <= c.b && len(rows) < t; r++ {
		x := float64(r)
		if math.Abs(lambda(x)) < 1e-5*termScale(x) {
			rows = append(rows, r)
		}
	}
	if len(rows) != t {
		return nil, nil, false
	}
	// Magnitudes from the Vandermonde system δ_s = Σ e_j r_j^s,
	// s = 0..t-1.
	V := make([][]float64, t)
	for s := 0; s < t; s++ {
		V[s] = make([]float64, t)
		for j, r := range rows {
			V[s][j] = math.Pow(float64(r), float64(s))
		}
	}
	mags, solved := solveDense(V, syn[:t])
	if !solved {
		return nil, nil, false
	}
	// Validate against every remaining syndrome, with a threshold that
	// is both absolute (rounding noise scaled by the weight range) and
	// relative (conditioning of the recovery at higher powers).
	for s := 0; s < c.m; s++ {
		pred := 0.0
		magSum := 0.0
		for j, r := range rows {
			term := mags[j] * math.Pow(float64(r), float64(s))
			pred += term
			magSum += math.Abs(term)
		}
		thr := tol*math.Pow(float64(c.b), float64(s))*10 + 1e-6*(magSum+math.Abs(syn[s])) + 1e-9
		if math.Abs(pred-syn[s]) > thr {
			return nil, nil, false
		}
	}
	outRows := make([]int, t)
	for j, r := range rows {
		outRows[j] = r - 1 // back to 0-based
	}
	return outRows, mags, true
}

// solveDense solves the small t x t system A x = b by Gaussian
// elimination with partial pivoting; ok=false on (near) singularity.
func solveDense(A [][]float64, b []float64) ([]float64, bool) {
	t := len(A)
	// Work on copies.
	m := make([][]float64, t)
	for i := range A {
		m[i] = append([]float64(nil), A[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < t; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < t; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < t; r++ {
			f := m[r][col] / m[col][col]
			for k := col; k <= t; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, t)
	for r := t - 1; r >= 0; r-- {
		s := m[r][t]
		for k := r + 1; k < t; k++ {
			s -= m[r][k] * x[k]
		}
		x[r] = s / m[r][r]
	}
	return x, true
}

package checksum

import "math"

// locate recovers the rows (0-based) and magnitudes of the errors in a
// column of b rows from its m = len(syn) finite syndromes
// δ_s = Σ_j e_j·r_j^s, trying t = 1, 2, ..., ⌊m/2⌋ errors and
// accepting the first t that explains every syndrome. tol is the
// plain checksum's threshold.
func locate(syn []float64, b int, tol float64) (rows []int, mags []float64, ok bool) {
	if r, ok := rowOfOne(syn, b); ok && consistent(syn, 2, []int{r}, syn[:1], b, tol) {
		return []int{r - 1}, syn[:1], true
	}
	for t := 2; t <= len(syn)/2; t++ {
		if rows, mags, ok = tryT(syn, b, t, tol); ok {
			return rows, mags, true
		}
	}
	return nil, nil, false
}

// rowOfOne is the closed form for one error of magnitude δ_0: its
// (1-based) row is δ_1/δ_0, trusted within a fixed 0.01 of an integer
// in [1, b]. Both syndromes carry rounding noise of similar absolute
// size, so the quotient is noisier for larger ratios, and this bound
// does not grow with the row index. δ_0 and δ_1 fix e and r, so only
// syndromes s >= 2, where m has them, can refute the explanation.
func rowOfOne(syn []float64, b int) (int, bool) {
	if syn[0] == 0 {
		return 0, false
	}
	ratio := syn[1] / syn[0]
	r := math.Round(ratio)
	if !(math.Abs(ratio-r) < 0.01 && r >= 1 && r <= float64(b)) {
		return 0, false
	}
	return int(r), true
}

// consistent reports whether errors mags at rows (1-based) reproduce
// the syndromes syn[from:], within a threshold that is both absolute
// (rounding noise scaled by the weight range) and relative
// (conditioning of the recovery at higher powers).
func consistent(syn []float64, from int, rows []int, mags []float64, b int, tol float64) bool {
	for s := from; s < len(syn); s++ {
		pred := 0.0
		magSum := 0.0
		for j, r := range rows {
			term := mags[j] * math.Pow(float64(r), float64(s))
			pred += term
			magSum += math.Abs(term)
		}
		thr := tol*math.Pow(float64(b), float64(s))*10 + 1e-6*(magSum+math.Abs(syn[s])) + 1e-9
		if !(math.Abs(pred-syn[s]) <= thr) {
			return false
		}
	}
	return true
}

// tryT attempts an exactly-t-error explanation.
func tryT(syn []float64, b, t int, tol float64) ([]int, []float64, bool) {
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
	for r := 1; r <= b && len(rows) < t; r++ {
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
	if !solved || !consistent(syn, 0, rows, mags, b, tol) {
		return nil, nil, false
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

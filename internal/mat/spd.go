package mat

import "math/rand"

// RandSPD returns a random symmetric positive-definite n x n matrix
// built as M = G*Gᵀ + n*I from a seeded generator, so every call with
// the same seed produces the same matrix. The n*I shift keeps the
// condition number moderate, which keeps Cholesky numerically tame and
// makes checksum thresholds easy to reason about.
func RandSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, n)
	for j := 0; j < n; j++ {
		col := g.Col(j)
		for i := range col {
			col[i] = rng.Float64()*2 - 1
		}
	}
	m := New(n, n)
	// m = g * gᵀ, lower triangle computed then mirrored. Each m[i,j]
	// sums g[i,k]*g[j,k] in increasing k, as a dot product would, but
	// the sums advance down contiguous columns of g and m.
	for j := 0; j < n; j++ {
		col := m.Col(j)[j:]
		for k := 0; k < n; k++ {
			gk := g.Col(k)[j:]
			gjk := gk[0]
			col := col[:len(gk)]
			for i, v := range gk {
				col[i] += v * gjk
			}
		}
		for i, v := range col[1:] {
			m.Set(j, j+1+i, v)
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

// DiagDominantSPD returns a cheap O(n²) SPD matrix: random symmetric
// entries in [-1, 1] with the diagonal shifted to 2n. Useful when test
// setup cost matters more than spectrum realism (RandSPD is O(n³)).
func DiagDominantSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 2*float64(n))
	}
	return m
}

// RandGeneral returns a random n x m matrix with entries in [-1, 1].
func RandGeneral(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = rng.Float64()*2 - 1
		}
	}
	return m
}

// RandVector returns a random length-n vector with entries in [-1, 1].
func RandVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

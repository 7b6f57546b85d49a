package blas

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPackedGemmMatchesNaive(t *testing.T) {
	// Exercise sizes straddling the tile boundaries (kernMR, kernNR,
	// packKC, packMC, packNC), including ragged remainders.
	cases := []struct{ m, n, k int }{
		{64, 64, 64},   // whole micro tiles
		{65, 63, 130},  // ragged k tile
		{100, 64, 128}, // exact tiles
		{37, 129, 257}, // ragged everything
		{256, 70, 5},   // skinny k below an unroll quad
		{8, 200, 1000}, // tall k
	}
	for _, cs := range cases {
		a := randSlice(cs.m*cs.k, 100)
		b := randSlice(cs.n*cs.k, 101)
		c1 := randSlice(cs.m*cs.n, 102)
		c2 := append([]float64(nil), c1...)
		// Through the public entry.
		Dgemm(NoTrans, Trans, cs.m, cs.n, cs.k, -1, a, cs.m, b, cs.n, 1, c1, cs.m)
		naiveGemm(NoTrans, Trans, cs.m, cs.n, cs.k, -1, a, cs.m, b, cs.n, 1, c2, cs.m)
		for i := range c1 {
			if math.Abs(c1[i]-c2[i]) > 1e-11 {
				t.Fatalf("%dx%dx%d: element %d differs: %g vs %g", cs.m, cs.n, cs.k, i, c1[i], c2[i])
			}
		}
	}
}

func TestPackedGemmDirectCall(t *testing.T) {
	// Call gemmPacked directly on a small ragged problem.
	m, n, k := 10, 9, 11
	a := randSlice(m*k, 110)
	b := randSlice(n*k, 111)
	c1 := randSlice(m*n, 112)
	c2 := append([]float64(nil), c1...)
	gemmPacked(m, n, k, a, m, b, n, c1, m)
	naiveGemm(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c2, m)
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-12 {
			t.Fatal("direct packed call differs from naive")
		}
	}
}

func TestPackedGemmStrided(t *testing.T) {
	// Sub-matrix views: leading dimensions larger than the row counts.
	m, n, k, lda, ldb, ldc := 70, 66, 140, 80, 75, 90
	a := randSlice(lda*k, 120)
	b := randSlice(ldb*k, 121)
	c1 := randSlice(ldc*n, 122)
	c2 := append([]float64(nil), c1...)
	Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, c1, ldc)
	naiveGemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, c2, ldc)
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-11 {
			t.Fatal("strided packed gemm mismatch")
		}
	}
}

func TestPackedGemmProperty(t *testing.T) {
	f := func(seed int64) bool {
		m, n, k := 70, 68, 129 // ragged tiles
		a := randSlice(m*k, seed)
		b := randSlice(n*k, seed+1)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		Dgemm(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c1, m)
		naiveGemm(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c2, m)
		for i := range c1 {
			if math.Abs(c1[i]-c2[i]) > 1e-11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGemmNTNaive192(b *testing.B) {
	n := 192
	x := randSlice(n*n, 1)
	y := randSlice(n*n, 2)
	c := make([]float64, n*n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveGemm(NoTrans, Trans, n, n, n, -1, x, n, y, n, 1, c, n)
	}
}

func BenchmarkGemmNTPacked192(b *testing.B) {
	n := 192
	x := randSlice(n*n, 1)
	y := randSlice(n*n, 2)
	c := make([]float64, n*n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmPacked(n, n, n, x, n, y, n, c, n)
	}
}

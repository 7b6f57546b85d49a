package blas

import (
	"math"
	"testing"
)

// Degenerate-dimension behaviour: BLAS routines must treat zero and
// one-sized problems as harmless no-ops or scalars, because the
// blocked drivers hit these shapes at the matrix edges.

func TestGemmZeroDims(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	// k == 0: C is left as it is.
	Dgemm(NoTrans, Trans, 2, 2, 0, -1, nil, 1, nil, 1, 1, c, 2)
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("k=0: %v", c)
	}
	// m == 0 and n == 0: nothing happens, no panic.
	Dgemm(NoTrans, Trans, 0, 2, 3, -1, nil, 1, make([]float64, 6), 2, 1, nil, 1)
	Dgemm(NoTrans, Trans, 2, 0, 3, -1, make([]float64, 6), 2, nil, 1, 1, nil, 1)
}

func TestGemmOneByOne(t *testing.T) {
	c := []float64{10}
	Dgemm(NoTrans, Trans, 1, 1, 1, -1, []float64{3}, 1, []float64{4}, 1, 1, c, 1)
	if c[0] != -2 {
		t.Fatalf("1x1 gemm = %g", c[0])
	}
}

func TestSyrkZeroAndOne(t *testing.T) {
	c := []float64{7}
	DsyrkBlocksParallel(1, 0, 1, nil, 1, c, 1)
	if c[0] != 7 {
		t.Fatal("k=0 syrk changed C")
	}
	DsyrkBlocksParallel(1, 1, 1, []float64{3}, 1, c, 1)
	if c[0] != -2 {
		t.Fatalf("1x1 syrk = %g", c[0])
	}
	DsyrkBlocksParallel(0, 5, 4, nil, 1, nil, 1) // no panic
}

func TestTrsmOneByOne(t *testing.T) {
	b := []float64{12}
	Dtrsm(Right, Trans, 1, 1, 1, []float64{4}, 1, b, 1)
	if b[0] != 3 {
		t.Fatalf("1x1 trsm = %g", b[0])
	}
	b[0] = 12
	Dtrsm(Left, NoTrans, 1, 1, 1, []float64{4}, 1, b, 1)
	if b[0] != 3 {
		t.Fatalf("1x1 left trsm = %g", b[0])
	}
}

func TestTrsmZeroRHS(t *testing.T) {
	l := []float64{2}
	Dtrsm(Left, NoTrans, 1, 0, 1, l, 1, nil, 1)
	Dtrsm(Right, Trans, 0, 1, 1, l, 1, nil, 1)
}

func TestPotf2OneByOne(t *testing.T) {
	a := []float64{9}
	if err := Dpotf2(1, a, 1); err != nil {
		t.Fatal(err)
	}
	if a[0] != 3 {
		t.Fatalf("sqrt(9) = %g", a[0])
	}
	a[0] = -1
	if err := Dpotf2(1, a, 1); err == nil {
		t.Fatal("negative scalar accepted")
	}
	if err := Dpotf2(0, nil, 1); err != nil {
		t.Fatal("empty factorization must succeed")
	}
}

func TestPotrfDegenerateBlockSizes(t *testing.T) {
	n := 12
	for _, nb := range []int{0, -1, 1, n, n + 5} {
		a := spdSlice(n, 200)
		ref := spdSlice(n, 200)
		if err := Dpotrf(n, nb, a, n); err != nil {
			t.Fatalf("nb=%d: %v", nb, err)
		}
		if err := Dpotf2(n, ref, n); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(a[i+j*n]-ref[i+j*n]) > 1e-10 {
					t.Fatalf("nb=%d mismatch", nb)
				}
			}
		}
	}
}

func TestGemvZeroDims(t *testing.T) {
	y := []float64{5}
	Dgemv(NoTrans, 1, 0, 1, nil, 1, nil, 2, y)
	if y[0] != 10 {
		t.Fatalf("n=0 gemv: beta not applied: %v", y)
	}
	Dgemv(NoTrans, 0, 1, 1, nil, 1, []float64{3}, 0, nil) // m=0: no panic
}

func TestLevel1ZeroLength(t *testing.T) {
	Dscal(0, 2, nil)
	if Dnrm2(0, nil) != 0 {
		t.Fatal("empty nrm2")
	}
}

func TestParallelWithOneWorker(t *testing.T) {
	// Force the serial fallback path inside the parallel front ends.
	saved := Workers
	Workers = 1
	defer func() { Workers = saved }()
	m, n, k := 16, 16, 8
	a := randSlice(m*k, 300)
	b := randSlice(n*k, 301)
	c1 := randSlice(m*n, 302)
	c2 := append([]float64(nil), c1...)
	Dgemm(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c1, m)
	DgemmParallel(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c2, m)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("one-worker parallel differs")
		}
	}
}

func TestDtrsvSingularDiagonalInfs(t *testing.T) {
	// A zero pivot produces Inf/NaN rather than a crash; the callers
	// (POTF2 guards) never let this happen, but the kernel must not
	// panic.
	l := []float64{0, 1, 0, 1}
	x := []float64{1, 1}
	Dtrsv(NoTrans, 2, l, 2, x)
	if !math.IsInf(x[0], 0) && !math.IsNaN(x[0]) {
		t.Fatalf("zero pivot produced %v", x)
	}
}

package cholesky

import (
	"math"
	"testing"
	"testing/quick"

	"abftchol/internal/blas"
	"abftchol/internal/mat"
)

func TestFactorResidual(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33, 64, 100} {
		a := mat.RandSPD(n, int64(n))
		l := a.Clone()
		if err := Factor(l, 8); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := mat.CholeskyResidual(a, l); r > 1e-12 {
			t.Fatalf("n=%d residual %g", n, r)
		}
		// Strict upper triangle must be zeroed.
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if l.At(i, j) != 0 {
					t.Fatal("upper triangle not cleared")
				}
			}
		}
	}
}

func TestFactorNonSPD(t *testing.T) {
	a := mat.Eye(4)
	a.Set(2, 2, -1)
	if err := Factor(a, 2); err == nil {
		t.Fatal("negative diagonal accepted")
	}
}

func TestFactorNonSquare(t *testing.T) {
	if err := Factor(mat.New(3, 4), 2); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestSolveRecoversKnownSolution(t *testing.T) {
	n := 24
	a := mat.RandSPD(n, 5)
	x := mat.RandVector(n, 6)
	b := make([]float64, n)
	// b = A*x
	blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, x, 0, b)
	l := a.Clone()
	if err := Factor(l, 8); err != nil {
		t.Fatal(err)
	}
	if err := Solve(l, b); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, b[i], x[i])
		}
	}
}

func TestSolveManyMatchesSingle(t *testing.T) {
	n, nrhs := 16, 3
	a := mat.RandSPD(n, 7)
	l := a.Clone()
	if err := Factor(l, 4); err != nil {
		t.Fatal(err)
	}
	b := mat.RandGeneral(n, nrhs, 8)
	want := b.Clone()
	for j := 0; j < nrhs; j++ {
		if err := Solve(l, want.Col(j)); err != nil {
			t.Fatal(err)
		}
	}
	if err := SolveMany(l, b); err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(b, want) > 1e-12 {
		t.Fatal("SolveMany disagrees with repeated Solve")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if err := Solve(mat.New(3, 4), make([]float64, 3)); err == nil {
		t.Fatal("bad factor shape accepted")
	}
	if err := Solve(mat.Eye(3), make([]float64, 2)); err == nil {
		t.Fatal("short rhs accepted")
	}
	if err := SolveMany(mat.Eye(3), mat.New(2, 2)); err == nil {
		t.Fatal("rhs row mismatch accepted")
	}
}

func TestInverse(t *testing.T) {
	n := 20
	a := mat.RandSPD(n, 9)
	l := a.Clone()
	if err := Factor(l, 4); err != nil {
		t.Fatal(err)
	}
	inv, err := Inverse(l)
	if err != nil {
		t.Fatal(err)
	}
	// I − A·(A⁻¹)ᵀ must vanish: (A·(A⁻¹)ᵀ)ᵀ = A⁻¹·A.
	res := mat.Eye(n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, -1, a.Data, a.Stride, inv.Data, inv.Stride, 1, res.Data, res.Stride)
	if d := mat.MaxAbsDiff(res, mat.New(n, n)); d > 1e-9 {
		t.Fatalf("inv(A)*A deviates from I by %g", d)
	}
	// Symmetry within rounding.
	if d := mat.MaxAbsDiff(inv, inv.Transpose()); d > 1e-11 {
		t.Fatalf("inverse asymmetric by %g", d)
	}
	if _, err := Inverse(mat.New(3, 4)); err == nil {
		t.Fatal("non-square factor accepted")
	}
}

func TestLogDetIdentity(t *testing.T) {
	if d := LogDet(mat.Eye(5)); math.Abs(d) > 1e-15 {
		t.Fatalf("logdet(I) = %g", d)
	}
	// diag(e) scaled: L = sqrt(e)·I, det = e^5, logdet = 5.
	l := mat.Eye(5)
	for i := 0; i < 5; i++ {
		l.Set(i, i, math.Sqrt(math.E))
	}
	if d := LogDet(l); math.Abs(d-5) > 1e-12 {
		t.Fatalf("logdet = %g, want 5", d)
	}
}

func TestSolvePropertyResidual(t *testing.T) {
	// Property: for random SPD systems, ‖A·x − b‖ stays at rounding level.
	f := func(seed int64) bool {
		n := 12
		a := mat.RandSPD(n, seed)
		b := mat.RandVector(n, seed+1)
		rhs := append([]float64(nil), b...)
		l := a.Clone()
		if err := Factor(l, 4); err != nil {
			return false
		}
		if err := Solve(l, rhs); err != nil {
			return false
		}
		// r = A·x − b
		r := append([]float64(nil), b...)
		blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, rhs, -1, r)
		for _, v := range r {
			if math.Abs(v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

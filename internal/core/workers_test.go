package core

import (
	"math"
	"runtime"
	"testing"

	"abftchol/internal/blas"
	"abftchol/internal/cholesky"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// TestFactorBitIdenticalAcrossWorkers pins the blas package's promise
// that the parallel front ends change only wall time: the factor of a
// real-plane run has the same bits for every blas.Workers. The worker
// counts split a 64-wide block into whole, ragged (3) and narrow (8)
// column chunks; GOMAXPROCS is raised to the largest, which the split
// is capped at; the right-looking variant splits its trailing update
// by block columns. The factor carries the working copy's padded
// stride, and the residual and a solve read it through that stride.
func TestFactorBitIdenticalAcrossWorkers(t *testing.T) {
	const n, b = 512, 64
	a := mat.RandSPD(n, 7)
	saved := blas.Workers
	defer func() { blas.Workers = saved }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, sv := range []struct {
		scheme  Scheme
		variant Variant
	}{{SchemeNone, LeftLooking}, {SchemeEnhanced, LeftLooking}, {SchemeNone, RightLooking}} {
		scheme := sv.scheme.String() + " " + sv.variant.String()
		o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Scheme: sv.scheme, Variant: sv.variant, ConcurrentRecalc: true, Data: a}
		var want *mat.Matrix
		for _, w := range []int{1, 2, 3, 8} {
			blas.Workers = w
			res := mustRun(t, o)
			if want == nil {
				want = res.L
				continue
			}
			for j := 0; j < n; j++ {
				got, ref := res.L.Col(j), want.Col(j)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s, Workers=%d: L[%d,%d] = %v, Workers=1 gave %v", scheme, w, i, j, got[i], ref[i])
					}
				}
			}
		}
		if want.Stride != workingStride(n) || want.Stride <= n {
			t.Fatalf("%s: Result.L.Stride = %d, want the padded %d", scheme, want.Stride, workingStride(n))
		}
		if r := mat.CholeskyResidual(a, want); r > 1e-15 {
			t.Fatalf("%s: scaled residual %.3g of the strided factor", scheme, r)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		rhs := make([]float64, n)
		blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, x, 0, rhs)
		if err := cholesky.Solve(want, rhs); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(rhs[i]-x[i]) > 1e-10 {
				t.Fatalf("%s: solve through the strided factor gave x[%d] = %v, want %v", scheme, i, rhs[i], x[i])
			}
		}
	}
}

// TestWorkingStride pins the working copy's leading dimension: the
// least odd multiple of 8 that is at least n.
func TestWorkingStride(t *testing.T) {
	for _, c := range [][2]int{{1, 8}, {8, 8}, {9, 24}, {64, 72}, {100, 104}, {120, 120}, {512, 520}, {1984, 1992}, {2048, 2056}, {2112, 2120}} {
		if got := workingStride(c[0]); got != c[1] {
			t.Errorf("workingStride(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestResultDoesNotAliasInput checks that Result.L is the run's own
// matrix: writing it leaves Options.Data, and a second run from it,
// untouched.
func TestResultDoesNotAliasInput(t *testing.T) {
	const n, b = 128, 32
	a := mat.RandSPD(n, 9)
	orig := a.Clone()
	o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Scheme: SchemeEnhanced, ConcurrentRecalc: true, Data: a}
	first := mustRun(t, o)
	if &first.L.Col(0)[0] == &a.Col(0)[0] {
		t.Fatal("Result.L shares its storage with Options.Data")
	}
	if mat.MaxAbsDiff(a, orig) != 0 {
		t.Fatal("Run changed Options.Data")
	}
	first.L.Set(n-1, 0, first.L.At(n-1, 0)+1)
	second := mustRun(t, o)
	if &second.L.Col(0)[0] == &first.L.Col(0)[0] {
		t.Fatal("two runs returned one Result.L")
	}
	if mat.MaxAbsDiff(a, orig) != 0 || mat.MaxAbsDiff(second.L, first.L) == 0 {
		t.Fatal("writing one run's factor reached the input or the next run's factor")
	}
}

// TestFactorUpperTriangleZero pins that Result.L is lower triangular:
// every element above the diagonal is exactly zero for both variants,
// after a clean run, after a restart (Online meets a storage error
// that has propagated) and after a fault that struck above the
// diagonal inside a diagonal block once POTF2 had cleared it (MAGMA
// never checks it). The working copy only ever holds the lower block
// triangle; the last case is what the final clear of the diagonal
// blocks is for.
func TestFactorUpperTriangleZero(t *testing.T) {
	const n, b = 256, 64
	a := mat.RandSPD(n, 5)
	potf2Upper := fault.Scenario{Kind: fault.Computation, Iter: 1, Op: fault.OpPOTF2, BI: 1, BJ: 1, Row: 2, Col: 5, Delta: 1e3}
	for _, v := range []Variant{LeftLooking, RightLooking} {
		for _, tc := range []struct {
			name     string
			scheme   Scheme
			sc       []fault.Scenario
			attempts int
		}{
			{"clean", SchemeEnhanced, nil, 1},
			{"restart", SchemeOnline, []fault.Scenario{fault.DefaultStorage(1)}, 2},
			{"fault above the diagonal", SchemeNone, []fault.Scenario{potf2Upper}, 1},
		} {
			o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Variant: v, Scheme: tc.scheme, Data: a, Scenarios: tc.sc}
			res := mustRun(t, o)
			if res.Attempts != tc.attempts || len(res.Injections) != len(tc.sc) {
				t.Fatalf("%s, %s: %d attempts and %d injections, want %d and %d", v, tc.name, res.Attempts, len(res.Injections), tc.attempts, len(tc.sc))
			}
			for j := 1; j < n; j++ {
				for i, x := range res.L.Col(j)[:j] {
					if math.Float64bits(x) != 0 {
						t.Fatalf("%s, %s: L[%d,%d] = %v above the diagonal", v, tc.name, i, j, x)
					}
				}
			}
		}
	}
}

package core

import (
	"math"
	"testing"

	"abftchol/internal/blas"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// TestFactorBitIdenticalAcrossWorkers pins the blas package's promise
// that the parallel front ends change only wall time: the factor of a
// real-plane run has the same bits for every blas.Workers. The worker
// counts split a 64-wide block into whole, ragged (3) and narrow (8)
// column chunks.
func TestFactorBitIdenticalAcrossWorkers(t *testing.T) {
	const n, b = 512, 64
	a := mat.RandSPD(n, 7)
	saved := blas.Workers
	defer func() { blas.Workers = saved }()
	for _, scheme := range []Scheme{SchemeNone, SchemeEnhanced} {
		o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Scheme: scheme, ConcurrentRecalc: true, Data: a}
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

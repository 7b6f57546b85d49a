//go:build !race

package blas

import (
	"testing"
)

// The hot-path contract (// abft:hotpath, proved against the compiler's
// escape analysis by tools/escapecheck) says the annotated kernels
// never allocate per call. These tests pin that at runtime with
// AllocsPerRun, which also sees allocations no escape diagnostic names
// (append growing a slice) and which the race detector's
// instrumentation would distort — hence the !race build tag.
//
// The packed GEMM (gemmPacked) takes its fixed-size packing buffers from
// panelPool and keeps edge tiles in a stack array. It is
// allocation-free in steady state, which is why each kernel runs once
// before it is measured.

func TestKernelsDoNotAllocate(t *testing.T) {
	const n, k = 96, 64
	a := make([]float64, n*k)
	b := make([]float64, n*k)
	c := make([]float64, n*n)
	x := make([]float64, n)
	for i := range a {
		a[i] = float64(i%7) - 3
	}
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	for i := range x {
		x[i] = 1 + float64(i%3)
	}

	kernels := []struct {
		name string
		fn   func()
	}{
		{"Dgemm_NT", func() { Dgemm(NoTrans, Trans, n, n, k, -1, a, n, b, n, 1, c, n) }},
		{"Dtrsm_RightTrans", func() {
			for i := 0; i < n; i++ {
				c[i+i*n] += float64(n) // keep the triangle well-conditioned
			}
			Dtrsm(Right, Trans, n, k, 1, c, n, b, n)
		}},
		{"Dtrsv", func() { Dtrsv(NoTrans, k, c, n, x) }},
		{"Dpotf2", func() {
			for j := 0; j < k; j++ {
				for i := j; i < k; i++ {
					c[i+j*n] = 1 / (1 + float64(i-j))
				}
				c[j+j*n] += float64(k)
			}
			if err := Dpotf2(k, c, n); err != nil {
				t.Fatal(err)
			}
		}},
		{"SubScaled", func() { SubScaled(k, a, n, b, n, x, 1) }},
		{"ColChecksums", func() { ColChecksums(n, k, a, n, c, 2) }},
		{"Dscal", func() { Dscal(n, 1.0001, c[:n]) }},
	}
	for _, kn := range kernels {
		kn.fn() // warm the pool outside the measured runs
		if avg := testing.AllocsPerRun(10, kn.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", kn.name, avg)
		}
	}
}

// TestDpotrfDoesNotAllocate covers the full blocked factorization:
// every kernel it dispatches to is on the annotated hot path, so a
// factorization on the happy path performs zero allocations.
func TestDpotrfDoesNotAllocate(t *testing.T) {
	const n, nb = 64, 16
	base := make([]float64, n*n)
	work := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			base[i+j*n] = 1 / (1 + float64(i-j))
		}
		base[j+j*n] += float64(n)
	}
	run := func() {
		copy(work, base)
		if err := Dpotrf(n, nb, work, n); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Errorf("Dpotrf: %.1f allocs per call, want 0", avg)
	}
}

func BenchmarkDgemmNTAllocs(b *testing.B) {
	const n, k = 128, 64
	a := make([]float64, n*k)
	bm := make([]float64, n*k)
	c := make([]float64, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(NoTrans, Trans, n, n, k, -1, a, n, bm, n, 1, c, n)
	}
}

func BenchmarkDpotrfAllocs(b *testing.B) {
	const n, nb = 64, 16
	base := make([]float64, n*n)
	work := make([]float64, n*n)
	for j := 0; j < n; j++ {
		base[j+j*n] = float64(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		if err := Dpotrf(n, nb, work, n); err != nil {
			b.Fatal(err)
		}
	}
}

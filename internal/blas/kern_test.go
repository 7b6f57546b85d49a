package blas

import (
	"fmt"
	"math"
	"testing"
)

// withGoKernel runs fn with the portable micro-kernel forced on.
func withGoKernel(fn func()) {
	saved := useAsm
	useAsm = false
	defer func() { useAsm = saved }()
	fn()
}

// firstDiff returns the first index where x and y differ in bits, or -1.
func firstDiff(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

func requireAsm(t *testing.T) {
	t.Helper()
	if !useAsm {
		t.Skip("no AVX2/FMA micro-kernel on this CPU; only the Go kernel runs")
	}
}

func TestMicroKernelsBitIdentical(t *testing.T) {
	requireAsm(t)
	for _, k := range []int{1, 3, 4, 5, 255, 256, 257} {
		a := randSlice(k*kernMR, int64(k))
		b := randSlice(k*kernNR, int64(k)+1)
		for _, ldc := range []int{kernMR, 11} {
			c0 := randSlice(3*ldc+kernMR, 7)
			asm := append([]float64(nil), c0...)
			ref := append([]float64(nil), c0...)
			kern8x4AVX2(k, &a[0], &b[0], &asm[0], ldc)
			kern8x4Go(k, a, b, ref, ldc)
			if i := firstDiff(asm, ref); i >= 0 {
				t.Fatalf("k=%d ldc=%d: element %d asm %v, Go %v", k, ldc, i, asm[i], ref[i])
			}
			for j := 0; j < kernNR-1; j++ {
				for i := kernMR; i < ldc; i++ {
					if asm[i+j*ldc] != c0[i+j*ldc] {
						t.Fatalf("k=%d ldc=%d: wrote the gap row %d of column %d", k, ldc, i, j)
					}
				}
			}
		}
	}
}

// TestPackedGemmKernelsBitIdentical runs every transpose case of
// Dgemm over ragged shapes and strided operands on both micro-kernels.
func TestPackedGemmKernelsBitIdentical(t *testing.T) {
	requireAsm(t)
	const pad = 3 // leading dimensions exceed the row counts
	for _, m := range []int{1, 2, 7, 14, 384} {
		for _, n := range []int{1, 5, 64} {
			for _, k := range []int{1, 37, 300} {
				for _, tr := range [][2]Transpose{{NoTrans, NoTrans}, {NoTrans, Trans}, {Trans, NoTrans}, {Trans, Trans}} {
					ar, ac := m, k
					if tr[0] == Trans {
						ar, ac = k, m
					}
					br, bc := k, n
					if tr[1] == Trans {
						br, bc = n, k
					}
					lda, ldb, ldc := ar+pad, br+pad, m+pad
					a := randSlice(lda*ac, int64(m*n+k))
					b := randSlice(ldb*bc, int64(m+n*k))
					asm := randSlice(ldc*n, int64(m+n+k))
					ref := append([]float64(nil), asm...)
					Dgemm(tr[0], tr[1], m, n, k, -1.25, a, lda, b, ldb, 0.5, asm, ldc)
					withGoKernel(func() { Dgemm(tr[0], tr[1], m, n, k, -1.25, a, lda, b, ldb, 0.5, ref, ldc) })
					if i := firstDiff(asm, ref); i >= 0 {
						t.Fatalf("%v m=%d n=%d k=%d: element %d asm %v, Go %v", tr, m, n, k, i, asm[i], ref[i])
					}
				}
			}
		}
	}
}

func TestPackedSyrkTrsmKernelsBitIdentical(t *testing.T) {
	requireAsm(t)
	for _, n := range []int{1, 7, 14, 45, 130} {
		for _, k := range []int{1, 37, 300} {
			ld := n + 2
			a := randSlice(ld*k, int64(n+k))
			asm := randSlice(ld*n, int64(n*k))
			ref := append([]float64(nil), asm...)
			Dsyrk(n, k, -1, a, ld, 1, asm, ld)
			withGoKernel(func() { Dsyrk(n, k, -1, a, ld, 1, ref, ld) })
			if i := firstDiff(asm, ref); i >= 0 {
				t.Fatalf("syrk n=%d k=%d: element %d asm %v, Go %v", n, k, i, asm[i], ref[i])
			}
		}
		for _, m := range []int{1, 14, 384} {
			l := lowerWithGoodDiag(n, int64(n))
			asm := randSlice((m+1)*n, int64(m*n))
			ref := append([]float64(nil), asm...)
			Dtrsm(Right, Trans, m, n, 1, l, n, asm, m+1)
			withGoKernel(func() { Dtrsm(Right, Trans, m, n, 1, l, n, ref, m+1) })
			if i := firstDiff(asm, ref); i >= 0 {
				t.Fatalf("trsm m=%d n=%d: element %d asm %v, Go %v", m, n, i, asm[i], ref[i])
			}
		}
	}
}

// TestSyrkMatchesGemmBits pins the contract DsyrkParallel's split rests
// on: Dsyrk gives each lower element Dgemm(NoTrans, Trans)'s bits and
// never writes the strict upper triangle.
func TestSyrkMatchesGemmBits(t *testing.T) {
	for _, n := range []int{3, 9, 14, 45, 133, 300} {
		for _, k := range []int{2, 64, 257} {
			a := randSlice(n*k, int64(n+k))
			syrk := randSlice(n*n, int64(n*k))
			gemm := append([]float64(nil), syrk...)
			orig := append([]float64(nil), syrk...)
			Dsyrk(n, k, -1, a, n, 1, syrk, n)
			Dgemm(NoTrans, Trans, n, n, k, -1, a, n, a, n, 1, gemm, n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					want := gemm[i+j*n]
					if i < j {
						want = orig[i+j*n]
					}
					if math.Float64bits(syrk[i+j*n]) != math.Float64bits(want) {
						t.Fatalf("n=%d k=%d: (%d,%d) = %v, want %v", n, k, i, j, syrk[i+j*n], want)
					}
				}
			}
		}
	}
}

// TestBlockedFactorBitIdentical factors one matrix with every worker
// count and both micro-kernels: the parallel front ends split columns
// or rows, never the depth, so the factor keeps its bits.
func TestBlockedFactorBitIdentical(t *testing.T) {
	const n, nb = 192, 48
	spd := spdSlice(n, 5)
	factor := func() []float64 {
		w := append([]float64(nil), spd...)
		for j := 0; j < n; j += nb {
			if j > 0 {
				DgemmParallel(NoTrans, Trans, n-j, nb, j, -1, w[j:], n, w[j:], n, 1, w[j+j*n:], n)
			}
			if err := Dpotf2(nb, w[j+j*n:], n); err != nil {
				t.Fatal(err)
			}
			if j+nb < n {
				DtrsmParallel(Right, Trans, n-j-nb, nb, 1, w[j+j*n:], n, w[j+nb+j*n:], n)
			}
		}
		return w
	}
	saved := Workers
	defer func() { Workers = saved }()
	Workers = 1
	want := factor()
	for _, w := range []int{2, 3, 8} {
		Workers = w
		if i := firstDiff(factor(), want); i >= 0 {
			t.Fatalf("Workers=%d: element %d differs from Workers=1", w, i)
		}
	}
	if useAsm {
		var got []float64
		withGoKernel(func() { got = factor() })
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("Go micro-kernel: element %d differs from the assembly one", i)
		}
	}
}

func BenchmarkPackedKernels(b *testing.B) {
	for _, sz := range [][3]int{{448, 64, 448}, {64, 64, 448}, {14, 64, 448}} {
		m, n, k := sz[0], sz[1], sz[2]
		x := randSlice(m*k, 1)
		y := randSlice(n*k, 2)
		c := make([]float64, m*n)
		b.Run(fmt.Sprintf("gemm_%dx%dx%d", m, n, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dgemm(NoTrans, Trans, m, n, k, -1, x, m, y, n, 1, c, m)
			}
			b.ReportMetric(2*float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	const m, n = 448, 64
	l := lowerWithGoodDiag(n, 3)
	rhs := randSlice(m*n, 4)
	x := make([]float64, m*n)
	b.Run(fmt.Sprintf("trsm_%dx%d", m, n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, rhs) // repeated solves would shrink x into subnormals
			Dtrsm(Right, Trans, m, n, 1, l, n, x, m)
		}
		b.ReportMetric(float64(m*n*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

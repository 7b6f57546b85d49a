package blas

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// The micro-kernels this host can run, as chosen at init.
var hostAVX2, hostAVX512 = useAsm, useAVX512

// hostKernels names every micro-kernel this host can run, widest
// first: "avx512", "avx2" (the 16x8 tile as four AVX2 quarters), "go".
func hostKernels() []string {
	var ks []string
	if hostAVX512 {
		ks = append(ks, "avx512")
	}
	if hostAVX2 {
		ks = append(ks, "avx2")
	}
	return append(ks, "go")
}

// withKernel runs fn with the named micro-kernel forced on.
func withKernel(name string, fn func()) {
	savedAsm, saved512 := useAsm, useAVX512
	defer func() { useAsm, useAVX512 = savedAsm, saved512 }()
	useAsm, useAVX512 = name != "go", name == "avx512"
	fn()
}

// withGoKernel runs fn with the portable micro-kernel forced on.
func withGoKernel(fn func()) { withKernel("go", fn) }

// eachAsmKernel runs fn as a subtest under each assembly micro-kernel
// the host has, and skips when it has none.
func eachAsmKernel(t *testing.T, fn func(t *testing.T)) {
	requireAsm(t)
	for _, name := range hostKernels() {
		if name != "go" {
			t.Run(name, func(t *testing.T) { withKernel(name, func() { fn(t) }) })
		}
	}
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

// TestKernelChoice pins the feature check against CPUID and XGETBV
// words, so a host without AVX-512 covers the AVX-512 rule too.
func TestKernelChoice(t *testing.T) {
	const (
		leaf1   = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
		avx2    = 1 << 5
		avx512f = 1 << 16
		ymm     = 0x06 // XCR0: SSE, AVX
		zmm     = 0xe6 // XCR0: also opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, tc := range []struct {
		name         string
		w            cpuWords
		want2, want5 bool
	}{
		{"avx512", cpuWords{13, leaf1, avx2 | avx512f, zmm}, true, true},
		{"avx2 only", cpuWords{13, leaf1, avx2, zmm}, true, false},
		{"OS saves no ZMM state", cpuWords{13, leaf1, avx2 | avx512f, ymm}, true, false},
		{"OS saves no Hi16_ZMM", cpuWords{13, leaf1, avx2 | avx512f, zmm &^ (1 << 7)}, true, false},
		{"OS saves no opmask", cpuWords{13, leaf1, avx2 | avx512f, zmm &^ (1 << 5)}, true, false},
		{"no FMA", cpuWords{13, leaf1 &^ (1 << 12), avx2 | avx512f, zmm}, false, false},
		{"no OSXSAVE", cpuWords{13, leaf1 &^ (1 << 27), avx2 | avx512f, zmm}, false, false},
		{"OS saves no YMM state", cpuWords{13, leaf1, avx2 | avx512f, 0x02}, false, false},
		{"no AVX2", cpuWords{13, leaf1, avx512f, zmm}, false, false},
		{"no leaf 7", cpuWords{6, leaf1, avx2 | avx512f, zmm}, false, false},
		{"nothing", cpuWords{}, false, false},
	} {
		if got2, got5 := tc.w.kernels(); got2 != tc.want2 || got5 != tc.want5 {
			t.Errorf("%s: kernels() = %v, %v, want %v, %v", tc.name, got2, got5, tc.want2, tc.want5)
		}
	}
	for _, name := range hostKernels() {
		withKernel(name, func() {
			if got := Kernel(); got != name {
				t.Errorf("Kernel() = %q under the %s kernel", got, name)
			}
		})
	}
}

// TestMicroKernelsBitIdentical runs every micro-kernel the host has
// ("avx512", "avx2" as four quarters, "go") through kern16x8 on packed
// panels (sa = 16, sb = 8) and on operands read in place (sa = lda,
// sb = ldb), checks each against kern16x8Go, and checks that none
// writes outside the 16x8 tile: not the gap rows of a column when
// ldc > 16, nor past the tile's last element. A ragged mrr x nrr tile
// (through edgeTile, which runs the full tile on a copy) must get the
// full tile's bits in its corner and leave everything else of C alone.
func TestMicroKernelsBitIdentical(t *testing.T) {
	const guard = 5 // elements past the tile's last one
	for _, name := range hostKernels() {
		for _, k := range []int{1, 3, 4, 5, 255, 256, 257} {
			for _, sa := range []int{kernMR, 19} {
				for _, sb := range []int{kernNR, 13} {
					a := randSlice((k-1)*sa+kernMR, int64(k))
					b := randSlice((k-1)*sb+kernNR, int64(k)+1)
					for _, ldc := range []int{kernMR, 21} {
						c0 := randSlice((kernNR-1)*ldc+kernMR+guard, 7)
						got := append([]float64(nil), c0...)
						ref := append([]float64(nil), c0...)
						withKernel(name, func() { kern16x8(k, a, sa, b, sb, got, ldc) })
						kern16x8Go(k, a, sa, b, sb, ref, ldc)
						if i := firstDiff(got, ref); i >= 0 {
							t.Fatalf("%s k=%d sa=%d sb=%d ldc=%d: element %d is %v, Go %v", name, k, sa, sb, ldc, i, got[i], ref[i])
						}
						for i := range got {
							if r, j := i%ldc, i/ldc; (r >= kernMR || j >= kernNR) && got[i] != c0[i] {
								t.Fatalf("%s k=%d ldc=%d: wrote element %d, outside the tile", name, k, ldc, i)
							}
						}
						for _, mn := range [][2]int{{1, 1}, {7, 8}, {8, 3}, {9, 7}, {15, 8}, {16, 5}} {
							mrr, nrr := mn[0], mn[1]
							got := append([]float64(nil), c0...)
							withKernel(name, func() { edgeTile(mrr, nrr, k, a, sa, b, sb, got, ldc) })
							for i := range got {
								r, j := i%ldc, i/ldc
								want := c0[i]
								if r < mrr && j < nrr {
									want = ref[i]
								}
								if math.Float64bits(got[i]) != math.Float64bits(want) {
									t.Fatalf("%s k=%d ldc=%d %dx%d tile: element %d is %v, want %v", name, k, ldc, mrr, nrr, i, got[i], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPackedGemmKernelsBitIdentical runs Dgemm over ragged shapes and
// strided operands on each assembly micro-kernel and on the Go one.
func TestPackedGemmKernelsBitIdentical(t *testing.T) {
	eachAsmKernel(t, func(t *testing.T) {
		const pad = 3 // leading dimensions exceed the row counts
		for _, m := range []int{1, 2, 7, 14, 384} {
			for _, n := range []int{1, 5, 12, 64} {
				for _, k := range []int{1, 37, 300} {
					lda, ldb, ldc := m+pad, n+pad, m+pad
					a := randSlice(lda*k, int64(m*n+k))
					b := randSlice(ldb*k, int64(m+n*k))
					asm := randSlice(ldc*n, int64(m+n+k))
					ref := append([]float64(nil), asm...)
					Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, asm, ldc)
					withGoKernel(func() { Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, ref, ldc) })
					if i := firstDiff(asm, ref); i >= 0 {
						t.Fatalf("m=%d n=%d k=%d: element %d asm %v, Go %v", m, n, k, i, asm[i], ref[i])
					}
				}
			}
		}
	})
}

func TestPackedSyrkTrsmKernelsBitIdentical(t *testing.T) {
	eachAsmKernel(t, func(t *testing.T) {
		for _, n := range []int{1, 7, 14, 45, 130} {
			for _, k := range []int{1, 37, 300} {
				ld := n + 2
				a := randSlice(ld*k, int64(n+k))
				asm := randSlice(ld*n, int64(n*k))
				ref := append([]float64(nil), asm...)
				DsyrkBlocksParallel(n, k, 8, a, ld, asm, ld)
				withGoKernel(func() { DsyrkBlocksParallel(n, k, 8, a, ld, ref, ld) })
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
	})
}

// TestBlockedFactorBitIdentical factors one matrix with every worker
// count and every micro-kernel the host has: the parallel front ends split columns
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	Workers = 1
	want := factor()
	for _, w := range []int{2, 3, 8} {
		Workers = w
		if i := firstDiff(factor(), want); i >= 0 {
			t.Fatalf("Workers=%d: element %d differs from Workers=1", w, i)
		}
	}
	for _, name := range hostKernels() {
		var got []float64
		withKernel(name, func() { got = factor() })
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%s micro-kernel: element %d differs from the default one", name, i)
		}
	}
}

// transposed returns the cols x rows transpose of the rows x cols
// column-major matrix x (leading dimension ld), with leading
// dimension cols+pad.
func transposed(x []float64, rows, cols, ld, pad int) ([]float64, int) {
	ldt := cols + pad
	t := randSlice(ldt*rows, 99) // padding holds junk the driver must not read
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			t[j+i*ldt] = x[i+j*ld]
		}
	}
	return t, ldt
}

// TestGemmLayoutInvariant pins the in-place reads against packing:
// C −= A·Bᵀ and its transpose Cᵀ −= B·Aᵀ read the same operand (the
// one with more rows) in place, but once as A, in kernMR-row panels,
// and once as B, in kernNR-row panels, each time packing the other in
// the other role. The two must give the same bits, for m < n and
// m > n, and on ragged shapes, on every micro-kernel the host has.
func TestGemmLayoutInvariant(t *testing.T) {
	t.Run("default", testGemmLayoutInvariant)
	for _, name := range hostKernels() {
		t.Run(name, func(t *testing.T) { withKernel(name, func() { testGemmLayoutInvariant(t) }) })
	}
}

func testGemmLayoutInvariant(t *testing.T) {
	const pad = 3
	for _, sz := range [][3]int{{14, 64, 300}, {64, 14, 300}, {7, 5, 37}, {130, 61, 9}, {3, 131, 520}, {261, 4, 64}} {
		m, n, k := sz[0], sz[1], sz[2]
		lda, ldb, ldc := m+pad, n+pad, m+1
		a := randSlice(lda*k, int64(m+k))
		b := randSlice(ldb*k, int64(n+k))
		got := randSlice(ldc*n, int64(m*n))
		ct, ldct := transposed(got, m, n, ldc, pad)
		Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, got, ldc)
		Dgemm(NoTrans, Trans, n, m, k, -1, b, ldb, a, lda, 1, ct, ldct)
		want, _ := transposed(ct, n, m, ldct, ldc-m)
		for j := 0; j < n; j++ {
			if i := firstDiff(got[j*ldc:][:m], want[j*ldc:][:m]); i >= 0 {
				t.Fatalf("m=%d n=%d k=%d: element (%d, %d) is %v, transposed %v", m, n, k, i, j, got[i+j*ldc], want[i+j*ldc])
			}
		}
	}
}

// TestSubScaledKernelsBitIdentical checks the multi-term update, on
// the assembly and the Go path, against subScaledGo applied one term at
// a time and then the scaling: 0–9 terms, alphas that are ±0
// (skipped), ±Inf, NaN or subnormal, special x and y values, lengths
// 0–35 at offsets 0–3, scale 1 or not. It also checks that nothing
// outside y is written.
func TestSubScaledKernelsBitIdentical(t *testing.T) {
	const lda, ldx = 3, 41
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.2e-308}
	x := specialValues(9*ldx+4, 1)
	y0 := specialValues(40, 2)
	check := func(t *testing.T) {
		for nt := 0; nt <= 9; nt++ {
			alpha := randSlice(nt*lda+1, int64(nt))
			for k := 1; k < nt; k += 2 {
				alpha[k*lda] = specials[(nt+k)%len(specials)]
			}
			for n := 0; n <= 35; n++ {
				for off := 0; off < 4; off++ { // unaligned starts
					got := append([]float64(nil), y0...)
					want := append([]float64(nil), y0...)
					scale := []float64{1, -0.375, 1 / 3.0}[(n+off)%3]
					SubScaled(nt, alpha, lda, x[off:], ldx, got[off:][:n], scale)
					for k := 0; k < nt; k++ {
						if a := alpha[k*lda]; a != 0 {
							subScaledGo(a, x[off+k*ldx:][:n], want[off:][:n])
						}
					}
					for i := range want[off:][:n] {
						want[off+i] *= scale
					}
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("nt=%d n=%d off=%d scale=%v: element %d is %v, term loop %v", nt, n, off, scale, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	t.Run("default", check)
	t.Run("go", func(t *testing.T) { withGoKernel(func() { check(t) }) })
}

// dpotf2Scalar is Dpotf2 with its column update as the scalar loop it
// was before SubScaled. The conversion only pins the rounding the
// loop had, a product rounded before the subtraction.
func dpotf2Scalar(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		col := a[j*lda:][:n]
		d := col[j]
		for k := 0; k < j; k++ {
			v := a[j+k*lda]
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return &PivotError{Index: j, Value: d}
		}
		d = math.Sqrt(d)
		col[j] = d
		for k := 0; k < j; k++ {
			ajk := a[j+k*lda]
			if ajk == 0 {
				continue
			}
			kcol := a[k*lda:][:n]
			for i := j + 1; i < n; i++ {
				col[i] -= float64(ajk * kcol[i])
			}
		}
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			col[i] *= inv
		}
	}
	return nil
}

// trsmRightTransScalar is Dtrsm(Right, Trans, alpha = 1) with its
// in-block solve as the scalar loop it was before SubScaled.
func trsmRightTransScalar(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for k0 := 0; k0 < n; k0 += trsmNB {
		kb := min(trsmNB, n-k0)
		if k0 > 0 {
			gemmPacked(m, kb, k0, b, ldb, l[k0:], ldl, b[k0*ldb:], ldb)
		}
		for k := k0; k < k0+kb; k++ {
			bk := b[k*ldb:][:m]
			for j := k0; j < k; j++ {
				lkj := l[k+j*ldl]
				if lkj == 0 {
					continue
				}
				bj := b[j*ldb:][:m]
				for i := range bk {
					bk[i] -= float64(lkj * bj[i])
				}
			}
			d := 1 / l[k+k*ldl]
			for i := range bk {
				bk[i] *= d
			}
		}
	}
}

func TestVectorLoopsMatchScalar(t *testing.T) {
	check := func(t *testing.T) {
		for _, n := range []int{1, 5, 17, 64, 100, 200, 300} {
			a := spdSlice(n, int64(n))
			got := append([]float64(nil), a...)
			want := append([]float64(nil), a...)
			errGot, errWant := Dpotf2(n, got, n), dpotf2Scalar(n, want, n)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("potf2 n=%d: error %v, scalar %v", n, errGot, errWant)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("potf2 n=%d: element %d is %v, scalar %v", n, i, got[i], want[i])
			}
		}
		for _, n := range []int{1, 7, 20, 64} {
			for _, m := range []int{1, 13, 100} {
				l := lowerWithGoodDiag(n, int64(n))
				got := randSlice((m+2)*n, int64(m*n))
				want := append([]float64(nil), got...)
				Dtrsm(Right, Trans, m, n, 1, l, n, got, m+2)
				trsmRightTransScalar(m, n, l, n, want, m+2)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("trsm m=%d n=%d: element %d is %v, scalar %v", m, n, i, got[i], want[i])
				}
			}
		}
	}
	t.Run("default", check)
	t.Run("go", func(t *testing.T) { withGoKernel(func() { check(t) }) })
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

// specialValues mixes the values a checksum kernel must treat exactly
// as the scalar loop does into random data: NaN, ±Inf, ±0, subnormals
// and magnitudes near overflow.
func specialValues(n int, seed int64) []float64 {
	s := randSlice(n, seed)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2e-308, math.MaxFloat64, -math.MaxFloat64, 1e300}
	for i := int(seed) % 7; i < n; i += 13 {
		s[i] = specials[(i/13)%len(specials)]
	}
	return s
}

// sameBits reports whether x and y are the same float64, counting any
// two NaNs as the same: a NaN's payload depends on which operand of an
// add the compiler puts first.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// TestColChecksumsKernelsBitIdentical runs ColChecksums' assembly path
// and its Go loop over ragged shapes, at a wide stride, on plain and on
// special values, and checks they agree and write only their entries.
func TestColChecksumsKernelsBitIdentical(t *testing.T) {
	requireAsm(t)
	const lda, ldo = 512, 3
	rowsList := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 67}
	colsList := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 20, 64, 67}
	for _, special := range []bool{false, true} {
		for _, rows := range rowsList {
			for _, cols := range colsList {
				seed := int64(rows*100 + cols)
				a := randSlice(lda*cols, seed)
				if special {
					a = specialValues(lda*cols, seed)
				}
				out0 := randSlice(ldo*cols, 3)
				asm := append([]float64(nil), out0...)
				ref := append([]float64(nil), out0...)
				mAsm := ColChecksums(rows, cols, a, lda, asm, ldo)
				mRef := colChecksumsGo(rows, cols, a, lda, ref, ldo)
				if !sameBits(mAsm, mRef) {
					t.Fatalf("special=%v %dx%d: max asm %v, Go %v", special, rows, cols, mAsm, mRef)
				}
				for i := range asm {
					if !sameBits(asm[i], ref[i]) {
						t.Fatalf("special=%v %dx%d: out[%d] asm %v, Go %v", special, rows, cols, i, asm[i], ref[i])
					}
					if i%ldo == 2 && asm[i] != out0[i] {
						t.Fatalf("%dx%d: wrote the gap entry out[%d]", rows, cols, i)
					}
				}
			}
		}
	}
}

// TestColChecksumsMaxIgnoresNaN pins the max's NaN rule on both paths:
// a NaN never becomes the max, the way `av > maxv` skips it.
func TestColChecksumsMaxIgnoresNaN(t *testing.T) {
	check := func(t *testing.T) {
		// Eight columns, so the assembly runs; the max sits in the
		// second group of four, a NaN row after it.
		a := make([]float64, 8*8)
		for i := range a {
			a[i] = math.NaN()
		}
		a[5], a[17], a[62] = -3, 2, -4
		out := make([]float64, 2*8)
		if got := ColChecksums(8, 8, a, 8, out, 2); got != 4 {
			t.Fatalf("max = %v, want 4", got)
		}
	}
	t.Run("asm", check)
	t.Run("go", func(t *testing.T) { withGoKernel(func() { check(t) }) })
}

// TestLevel3BitsIndependentOfStride pins what a padded working copy
// relies on: Dgemm, DsyrkBlocksParallel and Dtrsm(Right, Trans) give
// the same bits on operands stored at lda 512 and at lda 520, on every
// micro-kernel the host has. Where A is read in place (m >= n), lda
// 520 runs macroKernel with A's panels outer and lda 512 with B's, so
// the two leading dimensions also compare the two loop orders; the
// m < n Dgemm reads B in place, with B's panels outer at both.
func TestLevel3BitsIndependentOfStride(t *testing.T) {
	const n = 512
	// at stores the n x n matrix randSlice(n*n, seed) at leading
	// dimension ld, with junk in the pad rows.
	at := func(seed int64, ld int) []float64 {
		src, w := randSlice(n*n, seed), randSlice(ld*n, seed+100)
		for j := 0; j < n; j++ {
			copy(w[j*ld:][:n], src[j*n:][:n])
		}
		return w
	}
	lower := lowerWithGoodDiag(64, 8)
	calls := []struct {
		name string
		fn   func(a, b, c []float64, ld int)
	}{
		{"dgemm A in place", func(a, b, c []float64, ld int) { Dgemm(NoTrans, Trans, 448, 64, 384, -1, a, ld, b, ld, 1, c, ld) }},
		{"dgemm B in place", func(a, b, c []float64, ld int) { Dgemm(NoTrans, Trans, 64, 448, 384, -1, a, ld, b, ld, 1, c, ld) }},
		{"dsyrk blocks", func(a, _, c []float64, ld int) { DsyrkBlocksParallel(448, 384, 64, a, ld, c, ld) }},
		{"dtrsm right trans", func(a, _, c []float64, ld int) {
			for j := 0; j < 64; j++ { // L in a's leading 64 x 64 block
				copy(a[j*ld:][:64], lower[j*64:][:64])
			}
			Dtrsm(Right, Trans, 448, 64, 1, a, ld, c, ld)
		}},
	}
	for _, call := range calls {
		run := func(ld int) []float64 {
			a, b, c := at(1, ld), at(2, ld), at(3, ld)
			call.fn(a, b, c, ld)
			out := make([]float64, 0, n*n)
			for j := 0; j < n; j++ {
				out = append(out, c[j*ld:][:n]...)
			}
			return out
		}
		want := run(n)
		for _, kernel := range hostKernels() {
			for _, ld := range []int{n, n + 8} {
				var got []float64
				withKernel(kernel, func() { got = run(ld) })
				if i := firstDiff(got, want); i >= 0 {
					t.Errorf("%s, %s kernel, lda %d: element (%d, %d) is %v, the default kernel at lda %d gave %v",
						call.name, kernel, ld, i%n, i/n, got[i], n, want[i])
				}
			}
		}
	}
}

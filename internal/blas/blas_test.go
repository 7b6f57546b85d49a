package blas

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"abftchol/internal/guard"
)

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()*2 - 1
	}
	return s
}

// naiveGemm is the obviously-correct triple loop used as the oracle.
func naiveGemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if transA == NoTrans {
			return a[i+l*lda]
		}
		return a[l+i*lda]
	}
	bt := func(l, j int) float64 {
		if transB == NoTrans {
			return b[l+j*ldb]
		}
		return b[j+l*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c[i+j*ldc] = alpha*s + beta*c[i+j*ldc]
		}
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, -2, 3}
	Dscal(3, -2, x)
	if x[0] != -2 || x[1] != 4 || x[2] != -6 {
		t.Fatalf("Dscal gave %v", x)
	}
}

func TestDnrm2(t *testing.T) {
	if got := Dnrm2(2, []float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Dnrm2 = %g, want 5", got)
	}
	// Overflow guard: huge values must not produce +Inf.
	if got := Dnrm2(2, []float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Fatal("Dnrm2 overflowed")
	}
}

func TestDgemvNoTrans(t *testing.T) {
	// A = [1 3; 2 4] column-major, x = (1, 1): A*x = (4, 6)
	a := []float64{1, 2, 3, 4}
	y := []float64{10, 10}
	Dgemv(NoTrans, 2, 2, 1, a, 2, []float64{1, 1}, 0, y)
	if y[0] != 4 || y[1] != 6 {
		t.Fatalf("Dgemv = %v", y)
	}
}

func TestDgemvBeta(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	y := []float64{2, 4}
	Dgemv(NoTrans, 2, 2, 1, a, 2, []float64{1, 1}, 0.5, y)
	if y[0] != 2 || y[1] != 3 {
		t.Fatalf("Dgemv beta = %v", y)
	}
}

func TestDtrsvRoundTrip(t *testing.T) {
	n := 6
	l := randSlice(n*n, 1)
	for j := 0; j < n; j++ {
		l[j+j*n] = 4 + float64(j) // well-conditioned diagonal
	}
	x := randSlice(n, 2)
	// b = L*x computed naively, then solve and compare.
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j <= i; j++ {
			s += l[i+j*n] * x[j]
		}
		b[i] = s
	}
	Dtrsv(NoTrans, n, l, n, b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-12 {
			t.Fatalf("Dtrsv NoTrans: b[%d]=%g want %g", i, b[i], x[i])
		}
	}
	// Transposed system.
	bt := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := i; j < n; j++ {
			s += l[j+i*n] * x[j]
		}
		bt[i] = s
	}
	Dtrsv(Trans, n, l, n, bt)
	for i := range x {
		if math.Abs(bt[i]-x[i]) > 1e-12 {
			t.Fatalf("Dtrsv Trans: bt[%d]=%g want %g", i, bt[i], x[i])
		}
	}
}

func TestDgemmStrided(t *testing.T) {
	// Operate on views with non-tight leading dimensions.
	m, n, k, ld := 3, 3, 3, 7
	a := randSlice(ld*k, 20)
	b := randSlice(ld*n, 21)
	c1 := randSlice(ld*n, 22)
	c2 := append([]float64(nil), c1...)
	Dgemm(NoTrans, Trans, m, n, k, -1, a, ld, b, ld, 1, c1, ld)
	naiveGemm(NoTrans, Trans, m, n, k, -1, a, ld, b, ld, 1, c2, ld)
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-12 {
			t.Fatal("strided Dgemm mismatch")
		}
	}
}

func lowerWithGoodDiag(n int, seed int64) []float64 {
	l := randSlice(n*n, seed)
	for j := 0; j < n; j++ {
		l[j+j*n] = 3 + float64(j)
		for i := 0; i < j; i++ {
			l[i+j*n] = 0 // keep it honestly lower triangular
		}
	}
	return l
}

func TestDtrsmRightTrans(t *testing.T) {
	// X * Lᵀ = B  =>  X = B * L⁻ᵀ; verify X*Lᵀ reproduces B.
	m, n := 4, 5
	l := lowerWithGoodDiag(n, 40)
	b := randSlice(m*n, 41)
	x := append([]float64(nil), b...)
	Dtrsm(Right, Trans, m, n, 1, l, n, x, m)
	chk := make([]float64, m*n)
	naiveGemm(NoTrans, Trans, m, n, n, 1, x, m, l, n, 0, chk, m)
	for i := range b {
		if math.Abs(chk[i]-b[i]) > 1e-11 {
			t.Fatalf("Dtrsm Right/Trans residual at %d: %g vs %g", i, chk[i], b[i])
		}
	}
}

func TestDtrsmLeftCases(t *testing.T) {
	m, n := 5, 3
	l := lowerWithGoodDiag(m, 44)
	for _, tr := range []Transpose{NoTrans, Trans} {
		b := randSlice(m*n, 45)
		x := append([]float64(nil), b...)
		Dtrsm(Left, tr, m, n, 1, l, m, x, m)
		chk := make([]float64, m*n)
		naiveGemm(tr, NoTrans, m, n, m, 1, l, m, x, m, 0, chk, m)
		for i := range b {
			if math.Abs(chk[i]-b[i]) > 1e-11 {
				t.Fatalf("Dtrsm Left/%v residual", tr)
			}
		}
	}
}

func TestDpotf2ReconstructsMatrix(t *testing.T) {
	n := 12
	a := spdSlice(n, 50)
	orig := append([]float64(nil), a...)
	if err := Dpotf2(n, a, n); err != nil {
		t.Fatal(err)
	}
	// Reconstruct lower triangle of L*Lᵀ and compare with original.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += a[i+k*n] * a[j+k*n]
			}
			if math.Abs(s-orig[i+j*n]) > 1e-10*float64(n) {
				t.Fatalf("L*Lᵀ(%d,%d)=%g want %g", i, j, s, orig[i+j*n])
			}
		}
	}
}

// spdSlice builds an SPD matrix directly as a column-major slice.
func spdSlice(n int, seed int64) []float64 {
	g := randSlice(n*n, seed)
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += g[i+k*n] * g[j+k*n]
			}
			a[i+j*n] = s
		}
		a[j+j*n] += float64(n)
	}
	return a
}

func TestDpotf2FailStop(t *testing.T) {
	a := []float64{1, 2, 2, 1} // not PD: det = -3
	err := Dpotf2(2, a, 2)
	if err == nil {
		t.Fatal("expected non-PD error")
	}
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("error %v does not wrap ErrNotPositiveDefinite", err)
	}
	var pe *PivotError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("pivot error index = %+v, want 1", pe)
	}
}

func TestDpotf2NaNFails(t *testing.T) {
	a := []float64{math.NaN(), 0, 0, 1}
	if err := Dpotf2(2, a, 2); err == nil {
		t.Fatal("NaN pivot must fail")
	}
}

func TestDpotrfMatchesDpotf2(t *testing.T) {
	n := 32
	for _, nb := range []int{4, 8, 16, 31, 32, 64} {
		a1 := spdSlice(n, 60)
		a2 := append([]float64(nil), a1...)
		if err := Dpotf2(n, a1, n); err != nil {
			t.Fatal(err)
		}
		if err := Dpotrf(n, nb, a2, n); err != nil {
			t.Fatalf("nb=%d: %v", nb, err)
		}
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(a1[i+j*n]-a2[i+j*n]) > 1e-9 {
					t.Fatalf("nb=%d mismatch at (%d,%d)", nb, i, j)
				}
			}
		}
	}
}

func TestDpotrfPivotIndexOffset(t *testing.T) {
	// Break PD far from the origin and check the reported pivot index
	// is global, not block-local.
	n := 16
	a := spdSlice(n, 61)
	a[12+12*n] = -1e6
	err := Dpotrf(n, 4, a, n)
	var pe *PivotError
	if !errors.As(err, &pe) {
		t.Fatalf("expected PivotError, got %v", err)
	}
	if pe.Index != 12 {
		t.Fatalf("pivot index %d, want 12", pe.Index)
	}
}

func TestParallelGemmMatchesSerial(t *testing.T) {
	m, n, k := 40, 37, 23
	a := randSlice(m*k, 70)
	b := randSlice(n*k, 71)
	c1 := randSlice(m*n, 72)
	c2 := append([]float64(nil), c1...)
	Dgemm(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c1, m)
	DgemmParallel(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c2, m)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("parallel gemm differs from serial")
		}
	}
}

// TestSyrkBlocksMatchesGemm pins DsyrkBlocksParallel's contract: in
// every bs-wide block column c0, rows c0..n get Dgemm's bits and the
// rows above stay untouched, with a ragged last block.
// TestParallelSyrkMatchesSerial holds it to the same bits at every
// worker count.
func TestSyrkBlocksMatchesGemm(t *testing.T) {
	const n, k, bs, lda, ldc = 45, 20, 10, 47, 49
	a := randSlice(lda*k, 82)
	c0 := randSlice(ldc*n, 83)
	full := append([]float64(nil), c0...)
	Dgemm(NoTrans, Trans, n, n, k, -1, a, lda, a, lda, 1, full, ldc)
	saved := Workers
	defer func() { Workers = saved }()
	Workers = 1
	c := append([]float64(nil), c0...)
	DsyrkBlocksParallel(n, k, bs, a, lda, c, ldc)
	for i := range c {
		r, j := i%ldc, i/ldc
		want := c0[i]
		if r < n && j < n && r >= j/bs*bs {
			want = full[i]
		}
		if math.Float64bits(c[i]) != math.Float64bits(want) {
			t.Fatalf("element (%d,%d) is %v, want %v", r, j, c[i], want)
		}
	}
}

func TestParallelSyrkMatchesSerial(t *testing.T) {
	const n, k, bs = 45, 20, 10
	a := randSlice(n*k, 80)
	c0 := randSlice(n*n, 81)
	saved := Workers
	defer func() { Workers = saved }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	run := func(w int) []float64 {
		Workers = w
		c := append([]float64(nil), c0...)
		DsyrkBlocksParallel(n, k, bs, a, n, c, n)
		return c
	}
	want := run(1)
	for _, w := range []int{2, 3, 8} {
		if i := firstDiff(run(w), want); i >= 0 {
			t.Fatalf("Workers=%d: element (%d,%d) differs from Workers=1", w, i%n, i/n)
		}
	}
}

func TestParallelTrsmMatchesSerial(t *testing.T) {
	m, n := 50, 8
	l := lowerWithGoodDiag(n, 90)
	b := randSlice(m*n, 91)
	x1 := append([]float64(nil), b...)
	x2 := append([]float64(nil), b...)
	Dtrsm(Right, Trans, m, n, 1, l, n, x1, m)
	DtrsmParallel(Right, Trans, m, n, 1, l, n, x2, m)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("parallel trsm Right differs")
		}
	}
}

// TestParallelChunksAlignToTile pins parallelColumns' split: chunks
// cover [0, n) in order, every boundary but n is a multiple of align,
// and no chunk but the last is shorter than minChunk. GOMAXPROCS is
// raised to the largest worker count, which the split is capped at.
func TestParallelChunksAlignToTile(t *testing.T) {
	saved := Workers
	defer func() { Workers = saved }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, tc := range []struct {
		n, minChunk, align, workers int
		want                        [][2]int
	}{
		{64, 8, kernNR, 3, [][2]int{{0, 24}, {24, 48}, {48, 64}}}, // not 22-column chunks
		{64, 8, kernNR, 2, [][2]int{{0, 32}, {32, 64}}},
		{61, 8, kernNR, 8, [][2]int{{0, 8}, {8, 16}, {16, 24}, {24, 32}, {32, 40}, {40, 48}, {48, 56}, {56, 61}}},
		{100, 32, kernMR, 3, [][2]int{{0, 48}, {48, 96}, {96, 100}}}, // not 34-row chunks
		{63, 32, kernMR, 2, [][2]int{{0, 63}}},                       // under two minimum chunks
		{10, 4, 1, 3, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{64, 8, kernNR, 1, [][2]int{{0, 64}}},
	} {
		Workers = tc.workers
		var chunks guard.Mutex[[][2]int]
		parallelColumns(tc.n, tc.minChunk, tc.align, func(j0, j1 int) {
			chunks.Do(func(c *[][2]int) { *c = append(*c, [2]int{j0, j1}) })
		})
		var got [][2]int
		chunks.Do(func(c *[][2]int) { got = *c })
		slices.SortFunc(got, func(x, y [2]int) int { return x[0] - y[0] })
		if !slices.Equal(got, tc.want) {
			t.Errorf("n=%d minChunk=%d align=%d workers=%d: chunks %v, want %v", tc.n, tc.minChunk, tc.align, tc.workers, got, tc.want)
		}
	}
}

// TestParallelColumnsCappedAtGOMAXPROCS pins the cap: at GOMAXPROCS 1
// a call runs as one chunk over (0, n) whatever Workers says, and at 2
// it splits in two.
func TestParallelColumnsCappedAtGOMAXPROCS(t *testing.T) {
	saved := Workers
	defer func() { Workers = saved }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	Workers = 8
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var chunks guard.Mutex[[][2]int]
		parallelColumns(64, 8, kernNR, func(j0, j1 int) {
			chunks.Do(func(c *[][2]int) { *c = append(*c, [2]int{j0, j1}) })
		})
		var got [][2]int
		chunks.Do(func(c *[][2]int) { got = *c })
		if len(got) != procs || (procs == 1 && got[0] != [2]int{0, 64}) {
			t.Errorf("GOMAXPROCS=%d, Workers=8: chunks %v, want %d", procs, got, procs)
		}
	}
}

func TestGemmLinearityProperty(t *testing.T) {
	// Property: C −= A·Bᵀ is linear in A: from C = 0, the updates by
	// A1 and by A2 add up to the update by A1 + A2.
	f := func(seed int64) bool {
		m, n, k := 6, 5, 4
		a1 := randSlice(m*k, seed)
		a2 := randSlice(m*k, seed+1)
		b := randSlice(n*k, seed+2)
		sum := make([]float64, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1, c2, c := make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
		Dgemm(NoTrans, Trans, m, n, k, -1, a1, m, b, n, 1, c1, m)
		Dgemm(NoTrans, Trans, m, n, k, -1, a2, m, b, n, 1, c2, m)
		Dgemm(NoTrans, Trans, m, n, k, -1, sum, m, b, n, 1, c, m)
		for i := range c {
			if math.Abs(c[i]-(c1[i]+c2[i])) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSumInvariantUnderGemm(t *testing.T) {
	// The Huang-Abraham property the whole paper rests on:
	// Vᵀ(C - A·Bᵀ) == VᵀC - (VᵀA)·Bᵀ for the two checksum vectors
	// ColChecksums sums with (all ones, and 1…bsz). Verify numerically:
	// the two checksum rows of C take the same product as C.
	f := func(seed int64) bool {
		bsz := 8
		a := randSlice(bsz*bsz, seed)
		b := randSlice(bsz*bsz, seed+1)
		c := randSlice(bsz*bsz, seed+2)
		chk := make([]float64, 2*bsz)  // VᵀC, 2 x bsz
		chkA := make([]float64, 2*bsz) // VᵀA
		ColChecksums(bsz, bsz, c, bsz, chk, 2)
		ColChecksums(bsz, bsz, a, bsz, chkA, 2)
		// C -= A*Bᵀ and VᵀC -= VᵀA*Bᵀ.
		Dgemm(NoTrans, Trans, bsz, bsz, bsz, -1, a, bsz, b, bsz, 1, c, bsz)
		Dgemm(NoTrans, Trans, 2, bsz, bsz, -1, chkA, 2, b, bsz, 1, chk, 2)
		// Recompute VᵀC and compare.
		chk2 := make([]float64, 2*bsz)
		ColChecksums(bsz, bsz, c, bsz, chk2, 2)
		for i := range chk {
			if math.Abs(chk[i]-chk2[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLevel3RejectsOtherProducts pins the narrowed API: each entry
// keeps its CBLAS parameter list but computes only the call the
// factorization makes, and any other transpose, side, alpha or beta
// panics with a message naming that call instead of computing it.
func TestLevel3RejectsOtherProducts(t *testing.T) {
	const n = 4
	a, b, c := randSlice(n*n, 1), randSlice(n*n, 2), randSlice(n*n, 3)
	l := lowerWithGoodDiag(n, 4)
	x, y := randSlice(n, 5), randSlice(n, 6)
	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"Dgemm(NoTrans,NoTrans)", "Dgemm(NoTrans, Trans,", func() { Dgemm(NoTrans, NoTrans, n, n, n, -1, a, n, b, n, 1, c, n) }},
		{"Dgemm(Trans,NoTrans)", "Dgemm(NoTrans, Trans,", func() { Dgemm(Trans, NoTrans, n, n, n, -1, a, n, b, n, 1, c, n) }},
		{"Dgemm(Trans,Trans)", "Dgemm(NoTrans, Trans,", func() { Dgemm(Trans, Trans, n, n, n, -1, a, n, b, n, 1, c, n) }},
		{"Dgemm_alpha=2", "Dgemm(NoTrans, Trans,", func() { Dgemm(NoTrans, Trans, n, n, n, 2, a, n, b, n, 1, c, n) }},
		{"Dgemm_alpha=1", "Dgemm(NoTrans, Trans,", func() { Dgemm(NoTrans, Trans, n, n, n, 1, a, n, b, n, 1, c, n) }},
		{"Dgemm_beta=0", "Dgemm(NoTrans, Trans,", func() { Dgemm(NoTrans, Trans, n, n, n, -1, a, n, b, n, 0, c, n) }},
		{"Dgemm_k=0_beta=2", "Dgemm(NoTrans, Trans,", func() { Dgemm(NoTrans, Trans, n, n, 0, -1, nil, 1, nil, 1, 2, c, n) }},
		{"DgemmParallel(NoTrans,NoTrans)", "DgemmParallel(NoTrans, Trans,", func() { DgemmParallel(NoTrans, NoTrans, n, n, n, -1, a, n, b, n, 1, c, n) }},
		{"DgemmParallel_beta=0.5", "DgemmParallel(NoTrans, Trans,", func() { DgemmParallel(NoTrans, Trans, n, n, n, -1, a, n, b, n, 0.5, c, n) }},
		{"Dtrsm(Right,NoTrans)", "Dtrsm(Right, Trans,", func() { Dtrsm(Right, NoTrans, n, n, 1, l, n, b, n) }},
		{"Dtrsm(Right,Trans)_alpha=2", "Dtrsm(Right, Trans,", func() { Dtrsm(Right, Trans, n, n, 2, l, n, b, n) }},
		{"Dtrsm(Left,NoTrans)_alpha=0.5", "Dtrsm(Right, Trans,", func() { Dtrsm(Left, NoTrans, n, n, 0.5, l, n, b, n) }},
		{"DtrsmParallel(Left,NoTrans)", "DtrsmParallel(Right, Trans,", func() { DtrsmParallel(Left, NoTrans, n, n, 1, l, n, b, n) }},
		{"DtrsmParallel(Left,Trans)", "DtrsmParallel(Right, Trans,", func() { DtrsmParallel(Left, Trans, n, n, 1, l, n, b, n) }},
		{"DtrsmParallel(Right,NoTrans)", "DtrsmParallel(Right, Trans,", func() { DtrsmParallel(Right, NoTrans, n, n, 1, l, n, b, n) }},
		{"DtrsmParallel_alpha=2", "DtrsmParallel(Right, Trans,", func() { DtrsmParallel(Right, Trans, n, n, 2, l, n, b, n) }},
		{"Dgemv(Trans)", "Dgemv(NoTrans,", func() { Dgemv(Trans, n, n, 1, a, n, x, 0, y) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want a message naming %s …)", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}

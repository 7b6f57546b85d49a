package blas

import "math"

// kern16x8 is the micro-kernel: C[0:16, 0:8] += A·B, where A's 16
// rows at depth l are a[l*sa : l*sa+16] and B's 8 columns at depth l
// are b[l*sb : l*sb+8], and c is column-major with leading dimension
// ldc. The depth strides sa and sb let one kernel read a packed panel
// (sa = kernMR, sb = kernNR) or an operand where it lies: untransposed
// A with sa = lda, transposed B with sb = ldb. Each of the 128 sums
// starts at zero, takes one fused multiply-add per depth step in
// increasing l, and is added to C at the end.
//
// Three implementations keep that contract, chosen at init from what
// the CPU and OS support (cpuWords.kernels): kern16x8AVX512, the tile
// as four kern8x4AVX2 quarters, or kern16x8Go. All three produce the
// same bits: FMA rounds once per step whatever the vector width.
//
// abft:hotpath
// abft:bce checks=10
func kern16x8(k int, a []float64, sa int, b []float64, sb int, c []float64, ldc int) {
	if !useAsm {
		kern16x8Go(k, a, sa, b, sb, c, ldc)
		return
	}
	// Bound the last element the kernel reads or writes.
	ap, bp := a[:(k-1)*sa+kernMR], b[:(k-1)*sb+kernNR]
	_ = c[(kernNR-1)*ldc+kernMR-1]
	a0, b0, c0 := &ap[0], &bp[0], &c[0]
	if useAVX512 {
		kern16x8AVX512(k, a0, sa, b0, sb, c0, ldc)
	} else { // four 8x4 quarters: rows 0 and 8 by columns 0 and 4
		a8, b4 := &ap[8], &bp[4]
		kern8x4AVX2(k, a0, sa, b0, sb, c0, ldc)
		kern8x4AVX2(k, a8, sa, b0, sb, &c[8], ldc)
		kern8x4AVX2(k, a0, sa, b4, sb, &c[4*ldc], ldc)
		kern8x4AVX2(k, a8, sa, b4, sb, &c[4*ldc+8], ldc)
	}
}

// kern16x8Go is the portable micro-kernel and the tests' reference for
// the assembly ones.
//
// abft:hotpath
// abft:bce checks=6
func kern16x8Go(k int, a []float64, sa int, b []float64, sb int, c []float64, ldc int) {
	var acc [kernMR * kernNR]float64
	for l := 0; l < k; l++ {
		ap := a[l*sa:][:kernMR]
		bp := b[l*sb:][:kernNR]
		for j, bv := range bp {
			s := acc[j*kernMR:][:len(ap)]
			for i, av := range ap {
				s[i] = math.FMA(av, bv, s[i])
			}
		}
	}
	for j := 0; j < kernNR; j++ {
		col := c[j*ldc:][:kernMR]
		s := acc[j*kernMR:][:len(col)]
		for i := range col {
			col[i] += s[i]
		}
	}
}

// cpuWords are the CPUID and XGETBV words the kernel choice reads:
// CPUID leaf 0's EAX, leaf 1's ECX, leaf 7's EBX and XCR0.
type cpuWords struct {
	maxLeaf, ecx1, ebx7, xcr0 uint32
}

const osxsave = 1 << 27 // CPUID.1:ECX, the OS has enabled XGETBV

// kernels reports whether the AVX2/FMA kernels may run (AVX, FMA and
// AVX2, with the OS saving the XMM and YMM state) and whether the
// AVX-512 micro-kernel may run on top of them (AVX512F, with the OS
// also saving the opmask and both halves of the ZMM state).
func (w cpuWords) kernels() (avx2, avx512 bool) {
	const fma, avx = 1 << 12, 1 << 28              // CPUID.1:ECX
	const avx2Bit, avx512f = 1 << 5, 1 << 16       // CPUID.7:EBX
	const ymmState = 1<<1 | 1<<2                   // XCR0: SSE, AVX
	const zmmState = ymmState | 1<<5 | 1<<6 | 1<<7 // XCR0: opmask, ZMM_Hi256, Hi16_ZMM
	avx2 = w.maxLeaf >= 7 &&
		w.ecx1&(fma|osxsave|avx) == fma|osxsave|avx &&
		w.xcr0&ymmState == ymmState &&
		w.ebx7&avx2Bit != 0
	avx512 = avx2 && w.ebx7&avx512f != 0 && w.xcr0&zmmState == zmmState
	return avx2, avx512
}

// Kernel names the micro-kernel this process runs: "avx512", "avx2"
// (the 16x8 tile as four AVX2 quarters) or "go".
func Kernel() string {
	switch {
	case !useAsm:
		return "go"
	case useAVX512:
		return "avx512"
	}
	return "avx2"
}

// SubScaled is the unfused multi-term update: for each term t < nt in
// increasing order it computes y[i] -= alpha[t*lda]*x[t*ldx+i] over
// len(y) elements, each product rounded before its subtraction, as the
// one-term scalar loop `y[i] -= a*x[i]` rounds it; then it multiplies
// every y[i] by scale (the solves pass the pivot's reciprocal, other
// callers 1). A term whose alpha is ±0 is skipped, as `if a == 0 {
// continue }` skips it; a NaN alpha is not. y must not overlap what the
// terms read; a term that would start before alpha or x panics.
//
// It runs in AVX2 when the micro-kernel does, and the two give the same
// bits: the assembly keeps a chunk of y in registers across all terms,
// but every lane still multiplies, then subtracts, term after term, and
// scales last.
//
// abft:hotpath
// abft:bce checks=6
func SubScaled(nt int, alpha []float64, lda int, x []float64, ldx int, y []float64, scale float64) {
	if len(y) == 0 {
		return
	}
	if nt <= 0 || !useAsm {
		for t := 0; t < nt; t++ {
			if a := alpha[t*lda]; a != 0 {
				subScaledGo(a, x[t*ldx:][:len(y)], y)
			}
		}
		for i := range y {
			y[i] *= scale
		}
		return
	}
	// Bound the last alpha and the last term's first and last x
	// element: a negative stride fails the first bound on either.
	_ = alpha[(nt-1)*lda]
	_ = x[(nt-1)*ldx]
	_ = x[(nt-1)*ldx+len(y)-1]
	subScaledColsAVX2(len(y), &y[0], &x[0], ldx, &alpha[0], lda, nt, scale)
}

// subScaledGo is SubScaled's one-term portable loop and, term by term,
// the tests' reference for the assembly. The conversion rounds the
// product, so no compiler may fuse it into the subtraction.
//
// abft:hotpath
// abft:bce checks=1
func subScaledGo(alpha float64, x, y []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] -= float64(alpha * x[i])
	}
}

// ColChecksums computes the two column checksums of the rows x cols
// column-major a (leading dimension lda): for each column c it writes
// s1 = Σ a[i,c] to out[c*ldo] and s2 = Σ (i+1)·a[i,c] to out[c*ldo+1],
// both summed in increasing i with each product rounded before its
// add. It returns max |a[i,c]| over the whole of a, ignoring NaNs, or
// 0 when a is empty.
//
// With useAsm, eight columns at a time run in AVX2, one column per
// lane of two vectors, so every sum keeps the order of colChecksumsGo
// and the two give the same bits; a last odd row and the columns past
// the last multiple of eight finish in Go.
//
// abft:hotpath
// abft:bce checks=10
func ColChecksums(rows, cols int, a []float64, lda int, out []float64, ldo int) float64 {
	r2 := rows &^ 1
	if !useAsm || r2 == 0 {
		return colChecksumsGo(rows, cols, a, lda, out, ldo)
	}
	maxv := 0.0
	c := 0
	for ; c+8 <= cols; c += 8 {
		_ = a[(c+7)*lda+r2-1]
		_ = out[(c+7)*ldo+1]
		if m := colChecksums8AVX2(r2, &a[c*lda], lda, &out[c*ldo], ldo); m > maxv {
			maxv = m
		}
		if r2 < rows { // the last, odd row
			for q := c; q < c+8; q++ {
				o := out[q*ldo:][:2]
				maxv = checksumTail(a[q*lda:][:rows], r2, o[0], o[1], o, maxv)
			}
		}
	}
	if c < cols {
		if m := colChecksumsGo(rows, cols-c, a[c*lda:], lda, out[c*ldo:], ldo); m > maxv {
			maxv = m
		}
	}
	return maxv
}

// colChecksumsGo is ColChecksums' portable loop and the tests'
// reference for the assembly one.
//
// abft:hotpath
// abft:bce checks=4
func colChecksumsGo(rows, cols int, a []float64, lda int, out []float64, ldo int) float64 {
	maxv := 0.0
	for c := 0; c < cols; c++ {
		maxv = checksumTail(a[c*lda:][:rows], 0, 0, 0, out[c*ldo:], maxv)
	}
	return maxv
}

// checksumTail continues one column's checksums s1, s2 and the running
// max|a| from row from to the end of col, writes the sums to o[0] and
// o[1] and returns the max. The conversion rounds the weighted product,
// so no compiler may fuse it into the add.
//
// abft:hotpath
// abft:bce checks=2
func checksumTail(col []float64, from int, s1, s2 float64, o []float64, maxv float64) float64 {
	for i, v := range col[from:] {
		s1 += v
		s2 += float64(float64(from+i+1) * v)
		if av := math.Abs(v); av > maxv {
			maxv = av
		}
	}
	o = o[:2]
	o[0], o[1] = s1, s2
	return maxv
}

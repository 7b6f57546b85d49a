package blas

import "math"

// kern8x4 is the micro-kernel: C[0:8, 0:4] += A·B, where A's 8 rows at
// depth l are a[l*sa : l*sa+8] and B's 4 columns at depth l are
// b[l*sb : l*sb+4], and c is column-major with leading dimension ldc.
// The depth strides sa and sb let one kernel read a packed panel
// (sa = kernMR, sb = kernNR) or an operand where it lies: untransposed
// A with sa = lda, transposed B with sb = ldb. Each of the 32 sums
// starts at zero, takes one fused multiply-add per depth step in
// increasing l, and is added to C at the end.
//
// useAsm picks the AVX2/FMA assembly once, at init, from what the CPU
// and OS support; every other machine runs kern8x4Go. The two produce
// the same bits: FMA rounds once per step either way.
//
// abft:hotpath
// abft:bce checks=5
func kern8x4(k int, a []float64, sa int, b []float64, sb int, c []float64, ldc int) {
	if useAsm {
		// Bound the last element the kernel reads or writes.
		_ = c[3*ldc+kernMR-1]
		kern8x4AVX2(k, &a[:(k-1)*sa+kernMR][0], sa, &b[:(k-1)*sb+kernNR][0], sb, &c[0], ldc)
	} else {
		kern8x4Go(k, a, sa, b, sb, c, ldc)
	}
}

// kern8x4Go is the portable micro-kernel and the tests' reference for
// the assembly one.
//
// abft:hotpath
// abft:bce checks=6
func kern8x4Go(k int, a []float64, sa int, b []float64, sb int, c []float64, ldc int) {
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

// subScaled computes y[i] -= alpha*x[i] over len(y) elements, the
// product rounded before the subtraction, as the scalar loop
// `y[i] -= alpha*x[i]` rounds it. It runs in AVX2 when the micro-kernel
// does, and the two give the same bits: every lane multiplies, then
// subtracts, with no fused step.
//
// abft:hotpath
// abft:bce checks=2
func subScaled(alpha float64, x, y []float64) {
	if useAsm {
		if len(y) > 0 {
			_ = x[len(y)-1]
			subScaledAVX2(len(y), alpha, &x[0], &y[0])
		}
	} else {
		subScaledGo(alpha, x, y)
	}
}

// subScaledGo is subScaled's portable loop. The conversion rounds the
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
// With useAsm, four columns at a time run in AVX2, one column per
// lane, so every sum keeps the order of colChecksumsGo and the two give
// the same bits; the rows past the last multiple of four and the
// columns past the last multiple of four finish in Go.
//
// abft:hotpath
// abft:bce checks=9
func ColChecksums(rows, cols int, a []float64, lda int, out []float64, ldo int) float64 {
	r4 := rows &^ 3
	if !useAsm || r4 == 0 {
		return colChecksumsGo(rows, cols, a, lda, out, ldo)
	}
	maxv := 0.0
	c := 0
	var acc [12]float64 // s1 of the four columns, then s2, then max|a|
	for ; c+4 <= cols; c += 4 {
		_ = a[(c+3)*lda+r4-1]
		colChecksums4AVX2(r4, &a[c*lda], lda, &acc)
		for q := 0; q < 4; q++ {
			if m := acc[8+q]; m > maxv {
				maxv = m
			}
			maxv = checksumTail(a[(c+q)*lda:][:rows], r4, acc[q], acc[4+q], out[(c+q)*ldo:], maxv)
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

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
// abft:noescape
// abft:bce checks=5
func kern8x4(k int, a []float64, sa int, b []float64, sb int, c []float64, ldc int) {
	if useAsm {
		// Bound the last element the kernel reads or writes.
		_ = c[3*ldc+kernMR-1]
		kern8x4AVX2(k, &a[:(k-1)*sa+kernMR][0], sa, &b[:(k-1)*sb+kernNR][0], sb, &c[0], ldc) //nolint:hotpath — assembly leaf: no Go body to walk; go vet's asmdecl checks its frame
	} else {
		kern8x4Go(k, a, sa, b, sb, c, ldc)
	}
}

// kern8x4Go is the portable micro-kernel and the tests' reference for
// the assembly one.
//
// abft:hotpath
// abft:noescape
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
// abft:noescape
// abft:bce checks=2
func subScaled(alpha float64, x, y []float64) {
	if useAsm {
		if len(y) > 0 {
			_ = x[len(y)-1]
			subScaledAVX2(len(y), alpha, &x[0], &y[0]) //nolint:hotpath — assembly leaf: no Go body to walk; go vet's asmdecl checks its frame
		}
	} else {
		subScaledGo(alpha, x, y)
	}
}

// subScaledGo is subScaled's portable loop. The conversion rounds the
// product, so no compiler may fuse it into the subtraction.
//
// abft:hotpath
// abft:noescape
// abft:bce checks=1
func subScaledGo(alpha float64, x, y []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] -= float64(alpha * x[i])
	}
}

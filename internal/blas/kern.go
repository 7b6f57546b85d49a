package blas

import "math"

// kern8x4 is the micro-kernel: C[0:8, 0:4] += A·B, where a holds k
// packed columns of 8 rows (a[l*8+r]) and b holds k packed rows of 4
// columns (b[l*4+c]), c is column-major with leading dimension ldc.
// Each of the 32 sums starts at zero, takes one fused multiply-add per
// depth step in increasing l, and is added to C at the end.
//
// useAsm picks the AVX2/FMA assembly once, at init, from what the CPU
// and OS support; every other machine runs kern8x4Go. The two produce
// the same bits: FMA rounds once per step either way.
//
// abft:hotpath
// abft:noescape
// abft:bce checks=5
func kern8x4(k int, a, b, c []float64, ldc int) {
	if useAsm {
		// Bound the last element the kernel writes.
		_ = c[3*ldc+kernMR-1]
		kern8x4AVX2(k, &a[:k*kernMR][0], &b[:k*kernNR][0], &c[0], ldc) //nolint:hotpath — assembly leaf: no Go body to walk; go vet's asmdecl checks its frame
	} else {
		kern8x4Go(k, a, b, c, ldc)
	}
}

// kern8x4Go is the portable micro-kernel and the tests' reference for
// the assembly one.
//
// abft:hotpath
// abft:noescape
// abft:bce checks=8
func kern8x4Go(k int, a, b, c []float64, ldc int) {
	var acc [kernMR * kernNR]float64
	a, b = a[:k*kernMR], b[:k*kernNR]
	for l := 0; l < k; l++ {
		ap := a[l*kernMR:][:kernMR]
		bp := b[l*kernNR:][:kernNR]
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

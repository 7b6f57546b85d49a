package blas

import "testing"

// FuzzGemmKernels runs the packed driver on the micro-kernel chosen at
// init and on the Go one, and requires the same bits: any shape up to
// 300 in m, n and k, every transpose case, any alpha, the lower
// (Dsyrk) mode, and leading dimensions padded past the rows.
func FuzzGemmKernels(f *testing.F) {
	f.Add(uint16(64), uint16(64), uint16(300), false, true, -1.0, false, uint8(0), int64(1))
	f.Add(uint16(37), uint16(13), uint16(257), true, false, 2.5, false, uint8(3), int64(2))
	f.Add(uint16(45), uint16(45), uint16(9), false, true, 1.0, true, uint8(1), int64(3))
	f.Add(uint16(9), uint16(130), uint16(1), true, true, -0.75, false, uint8(7), int64(4))
	f.Add(uint16(130), uint16(7), uint16(64), false, false, 1.0, true, uint8(2), int64(5))
	f.Fuzz(func(t *testing.T, m16, n16, k16 uint16, ta, tb bool, alpha float64, lower bool, pad8 uint8, seed int64) {
		m, n, k, pad := 1+int(m16)%300, 1+int(n16)%300, 1+int(k16)%300, int(pad8)%8
		if lower {
			n = m // the lower mode updates a square C
		}
		transA, transB := NoTrans, NoTrans
		ar, ac := m, k
		if ta {
			transA, ar, ac = Trans, k, m
		}
		br, bc := k, n
		if tb {
			transB, br, bc = Trans, n, k
		}
		lda, ldb, ldc := ar+pad, br+pad, m+pad
		a := randSlice(lda*ac, seed)
		b := randSlice(ldb*bc, seed+1)
		got := randSlice(ldc*n, seed+2)
		want := append([]float64(nil), got...)
		run := func(c []float64) {
			if lower {
				gemmPacked(true, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
			} else {
				Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, 1, c, ldc)
			}
		}
		run(got)
		withGoKernel(func() { run(want) })
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s kernel, m=%d n=%d k=%d transA=%v transB=%v alpha=%v lower=%v pad=%d: element %d is %v, Go %v",
					Kernel(), m, n, k, ta, tb, alpha, lower, pad, i, got[i], want[i])
			}
		}
	})
}

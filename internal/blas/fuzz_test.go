package blas

import "testing"

// FuzzGemmKernels runs the one product, C −= A·Bᵀ, on the micro-kernel
// chosen at init and on the Go one, and requires the same bits: any
// shape up to 300 in m, n and k (so either operand may be the one read
// in place), and each operand's leading dimension padded past its rows
// by 0–7.
func FuzzGemmKernels(f *testing.F) {
	f.Add(uint16(64), uint16(64), uint16(300), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint16(37), uint16(13), uint16(257), uint8(3), uint8(1), uint8(5), int64(2))
	f.Add(uint16(45), uint16(45), uint16(9), uint8(1), uint8(7), uint8(2), int64(3))
	f.Add(uint16(9), uint16(130), uint16(1), uint8(7), uint8(0), uint8(3), int64(4))
	f.Add(uint16(130), uint16(7), uint16(64), uint8(2), uint8(4), uint8(6), int64(5))
	f.Fuzz(func(t *testing.T, m16, n16, k16 uint16, padA, padB, padC uint8, seed int64) {
		m, n, k := 1+int(m16)%300, 1+int(n16)%300, 1+int(k16)%300
		lda, ldb, ldc := m+int(padA)%8, n+int(padB)%8, m+int(padC)%8
		a := randSlice(lda*k, seed)
		b := randSlice(ldb*k, seed+1)
		got := randSlice(ldc*n, seed+2)
		want := append([]float64(nil), got...)
		Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, got, ldc)
		withGoKernel(func() { Dgemm(NoTrans, Trans, m, n, k, -1, a, lda, b, ldb, 1, want, ldc) })
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s kernel, m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: element %d is %v, Go %v",
					Kernel(), m, n, k, lda, ldb, ldc, i, got[i], want[i])
			}
		}
	})
}

//go:build !amd64

package blas

// useAsm and useAVX512 are always false off amd64: kern16x8Go is the
// only micro-kernel.
var useAsm, useAVX512 = false, false

func kern8x4AVX2(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int) {
	panic("blas: no assembly micro-kernel on this architecture")
}

func kern16x8AVX512(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int) {
	panic("blas: no assembly micro-kernel on this architecture")
}

func subScaledColsAVX2(n int, y *float64, x *float64, ldx int, alpha *float64, lda int, nt int, scale float64) {
	panic("blas: no assembly update kernel on this architecture")
}

func colChecksums8AVX2(rows int, a *float64, lda int, out *float64, ldo int) float64 {
	panic("blas: no assembly checksum kernel on this architecture")
}

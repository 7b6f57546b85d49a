//go:build !amd64

package blas

// useAsm is always false off amd64: kern8x4Go is the only kernel.
var useAsm = false

func kern8x4AVX2(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int) {
	panic("blas: no assembly micro-kernel on this architecture")
}

func subScaledAVX2(n int, alpha float64, x, y *float64) {
	panic("blas: no assembly axpy on this architecture")
}

func colChecksums4AVX2(rows int, a *float64, lda int, acc *[12]float64) {
	panic("blas: no assembly checksum kernel on this architecture")
}

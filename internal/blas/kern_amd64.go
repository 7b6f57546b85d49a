package blas

// useAsm selects kern8x4AVX2. It is fixed at init; tests flip it to
// run both kernels on one machine.
var useAsm = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves
// the YMM registers across context switches.
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// kern8x4AVX2 is kern8x4 in AVX2/FMA assembly. a, b and c point at
// the first elements of (k-1)*sa+8, (k-1)*sb+4 and 3*ldc+8 values.
//
//go:noescape
func kern8x4AVX2(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int)

// subScaledAVX2 is subScaled in AVX2 assembly over n elements of x
// and y.
//
//go:noescape
func subScaledAVX2(n int, alpha float64, x, y *float64)

// colChecksums4AVX2 is ColChecksums over rows (a multiple of four) of
// the four columns at a, a+lda, a+2*lda and a+3*lda. It writes the
// columns' s1 to acc[0:4], their s2 to acc[4:8] and each column's
// max|a| to acc[8:12].
//
//go:noescape
func colChecksums4AVX2(rows int, a *float64, lda int, acc *[12]float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register 0.
func xgetbv() (eax, edx uint32)

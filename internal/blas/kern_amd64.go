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

// subScaledColsAVX2 is SubScaled in AVX2 assembly over n elements of
// y and nt ≥ 1 terms: term t has α = alpha[t*lda] and reads n values
// from x + t*ldx.
//
//go:noescape
func subScaledColsAVX2(n int, y *float64, x *float64, ldx int, alpha *float64, lda int, nt int, scale float64)

// colChecksums8AVX2 is ColChecksums over rows (a positive even number)
// of the eight columns at a, a+lda, ..., a+7*lda. It writes column q's
// s1 and s2 to out[q*ldo] and out[q*ldo+1] and returns the max|a| of
// all eight columns.
//
//go:noescape
func colChecksums8AVX2(rows int, a *float64, lda int, out *float64, ldo int) float64

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register 0.
func xgetbv() (eax, edx uint32)

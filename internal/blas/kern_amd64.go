package blas

// useAsm selects the AVX2/FMA kernels, useAVX512 the AVX-512 micro-
// kernel on top of them. Both are fixed at init from what the CPU and
// OS support; tests flip them to run every kernel on one machine.
var useAsm, useAVX512 = readCPU().kernels()

// readCPU reads the CPUID and XGETBV words the kernel choice depends
// on. XCR0 is read only when the OS has enabled XGETBV.
func readCPU() (w cpuWords) {
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.ecx1&osxsave != 0 {
		w.xcr0, _ = xgetbv()
	}
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	return w
}

// kern8x4AVX2 is one quarter of kern16x8 in AVX2/FMA assembly:
// C[0:8, 0:4] += A·B with A's 8 rows at depth l in a[l*sa : l*sa+8]
// and B's 4 columns in b[l*sb : l*sb+4]. a, b and c point at the first
// elements of (k-1)*sa+8, (k-1)*sb+4 and 3*ldc+8 values.
//
//go:noescape
func kern8x4AVX2(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int)

// kern16x8AVX512 is kern16x8 in AVX-512 assembly. a, b and c point at
// the first elements of (k-1)*sa+16, (k-1)*sb+8 and 7*ldc+16 values.
//
//go:noescape
func kern16x8AVX512(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int)

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

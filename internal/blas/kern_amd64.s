#include "textflag.h"

// Every loop head sits behind PCALIGN $64, so it starts a 64-byte
// line however the linker places the file: a kernel's speed then does
// not move with the size of the code linked before it.

// One depth step of the 8x4 tile: load A's 8 rows (two vectors) from
// a0 and a1, broadcast B's 4 values from b0..b3, and fold the 32
// products into the accumulators Y0..Y7 (column c in Y(2c), Y(2c+1)).
#define STEP(a0, a1, b0, b1, b2, b3) \
	VMOVUPD      a0, Y8           \
	VMOVUPD      a1, Y9           \
	VBROADCASTSD b0, Y10          \
	VBROADCASTSD b1, Y11          \
	VBROADCASTSD b2, Y12          \
	VBROADCASTSD b3, Y13          \
	VFMADD231PD  Y8, Y10, Y0      \
	VFMADD231PD  Y9, Y10, Y1      \
	VFMADD231PD  Y8, Y11, Y2      \
	VFMADD231PD  Y9, Y11, Y3      \
	VFMADD231PD  Y8, Y12, Y4      \
	VFMADD231PD  Y9, Y12, Y5      \
	VFMADD231PD  Y8, Y13, Y6      \
	VFMADD231PD  Y9, Y13, Y7

// Add one accumulated column pair to C at DX and step DX to the next
// column.
#define STORE(lo, hi) \
	VADDPD  (DX), lo, lo   \
	VMOVUPD lo, (DX)       \
	VADDPD  32(DX), hi, hi \
	VMOVUPD hi, 32(DX)     \
	ADDQ    R8, DX

// func kern8x4AVX2(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int)
//
// A's depth step is R9 = 8*sa bytes and B's R10 = 8*sb bytes; an
// unrolled quad reaches steps 1..3 by scaled-index addressing.
TEXT ·kern8x4AVX2(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ sa+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ sb+32(FP), R10
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R8
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R11  // 3 A steps
	LEAQ (R10)(R10*2), R12 // 3 B steps

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	// Four steps per iteration; the unrolling keeps each sum's order.
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail

	PCALIGN $64

loop4:
	STEP((SI), 32(SI), (DI), 8(DI), 16(DI), 24(DI))
	STEP((SI)(R9*1), 32(SI)(R9*1), (DI)(R10*1), 8(DI)(R10*1), 16(DI)(R10*1), 24(DI)(R10*1))
	STEP((SI)(R9*2), 32(SI)(R9*2), (DI)(R10*2), 8(DI)(R10*2), 16(DI)(R10*2), 24(DI)(R10*2))
	STEP((SI)(R11*1), 32(SI)(R11*1), (DI)(R12*1), 8(DI)(R12*1), 16(DI)(R12*1), 24(DI)(R12*1))
	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R10*4), DI
	DECQ BX
	JNZ  loop4

tail:
	ANDQ $3, CX
	JZ   store

	PCALIGN $64

loop1:
	STEP((SI), 32(SI), (DI), 8(DI), 16(DI), 24(DI))
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop1

store:
	STORE(Y0, Y1)
	STORE(Y2, Y3)
	STORE(Y4, Y5)
	STORE(Y6, Y7)
	VZEROUPPER
	RET

// One depth step of the 16x8 tile: load A's 16 rows from a0 and a1
// into Z16 and Z17, broadcast B's 8 values from b0..b7 into Z18..Z25,
// and fold the 128 products into the accumulators Z0..Z15 (column c in
// Z(2c) and Z(2c+1)). Each broadcast feeds two FMAs, so a step issues
// 10 loads for 16 FMAs.
#define STEP16(a0, a1, b0, b1, b2, b3, b4, b5, b6, b7) \
	VMOVUPD      a0, Z16       \
	VMOVUPD      a1, Z17       \
	VBROADCASTSD b0, Z18       \
	VBROADCASTSD b1, Z19       \
	VBROADCASTSD b2, Z20       \
	VBROADCASTSD b3, Z21       \
	VFMADD231PD  Z16, Z18, Z0  \
	VFMADD231PD  Z17, Z18, Z1  \
	VFMADD231PD  Z16, Z19, Z2  \
	VFMADD231PD  Z17, Z19, Z3  \
	VFMADD231PD  Z16, Z20, Z4  \
	VFMADD231PD  Z17, Z20, Z5  \
	VFMADD231PD  Z16, Z21, Z6  \
	VFMADD231PD  Z17, Z21, Z7  \
	VBROADCASTSD b4, Z22       \
	VBROADCASTSD b5, Z23       \
	VBROADCASTSD b6, Z24       \
	VBROADCASTSD b7, Z25       \
	VFMADD231PD  Z16, Z22, Z8  \
	VFMADD231PD  Z17, Z22, Z9  \
	VFMADD231PD  Z16, Z23, Z10 \
	VFMADD231PD  Z17, Z23, Z11 \
	VFMADD231PD  Z16, Z24, Z12 \
	VFMADD231PD  Z17, Z24, Z13 \
	VFMADD231PD  Z16, Z25, Z14 \
	VFMADD231PD  Z17, Z25, Z15

// Add one accumulated column pair to C at DX and step DX to the next
// column.
#define STORE16(lo, hi) \
	VADDPD  (DX), lo, lo   \
	VMOVUPD lo, (DX)       \
	VADDPD  64(DX), hi, hi \
	VMOVUPD hi, 64(DX)     \
	ADDQ    R8, DX

// func kern16x8AVX512(k int, a *float64, sa int, b *float64, sb int, c *float64, ldc int)
//
// The same loop as kern8x4AVX2 over the whole 16x8 tile: 16 ZMM
// accumulators, two A vectors and eight broadcasts use 26 of the 32
// ZMM registers.
TEXT ·kern16x8AVX512(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ sa+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ sb+32(FP), R10
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R8
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R11  // 3 A steps
	LEAQ (R10)(R10*2), R12 // 3 B steps

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail16

	PCALIGN $64

loop16x4:
	STEP16((SI), 64(SI), (DI), 8(DI), 16(DI), 24(DI), 32(DI), 40(DI), 48(DI), 56(DI))
	STEP16((SI)(R9*1), 64(SI)(R9*1), (DI)(R10*1), 8(DI)(R10*1), 16(DI)(R10*1), 24(DI)(R10*1), 32(DI)(R10*1), 40(DI)(R10*1), 48(DI)(R10*1), 56(DI)(R10*1))
	STEP16((SI)(R9*2), 64(SI)(R9*2), (DI)(R10*2), 8(DI)(R10*2), 16(DI)(R10*2), 24(DI)(R10*2), 32(DI)(R10*2), 40(DI)(R10*2), 48(DI)(R10*2), 56(DI)(R10*2))
	STEP16((SI)(R11*1), 64(SI)(R11*1), (DI)(R12*1), 8(DI)(R12*1), 16(DI)(R12*1), 24(DI)(R12*1), 32(DI)(R12*1), 40(DI)(R12*1), 48(DI)(R12*1), 56(DI)(R12*1))
	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R10*4), DI
	DECQ BX
	JNZ  loop16x4

tail16:
	ANDQ $3, CX
	JZ   store16

	PCALIGN $64

loop16x1:
	STEP16((SI), 64(SI), (DI), 8(DI), 16(DI), 24(DI), 32(DI), 40(DI), 48(DI), 56(DI))
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop16x1

store16:
	STORE16(Z0, Z1)
	STORE16(Z2, Z3)
	STORE16(Z4, Z5)
	STORE16(Z6, Z7)
	STORE16(Z8, Z9)
	STORE16(Z10, Z11)
	STORE16(Z12, Z13)
	STORE16(Z14, Z15)
	VZEROUPPER
	RET

// Load term t's α from (AX) into X4 and jump to skip when it is ±0; a
// NaN compares unordered and is kept, as `α == 0` keeps it.
#define ALPHA(skip) \
	VMOVSD   (AX), X4 \
	VUCOMISD X15, X4  \
	JNE      2(PC)    \
	JPC      skip

// submask holds 16 all-ones lanes, then 16 zero lanes: the 32 bytes
// at (16-r+4v)*8 mask rows 4v..4v+3 of a 16-row chunk to its first r.
DATA submask<>+0(SB)/8, $-1
DATA submask<>+8(SB)/8, $-1
DATA submask<>+16(SB)/8, $-1
DATA submask<>+24(SB)/8, $-1
DATA submask<>+32(SB)/8, $-1
DATA submask<>+40(SB)/8, $-1
DATA submask<>+48(SB)/8, $-1
DATA submask<>+56(SB)/8, $-1
DATA submask<>+64(SB)/8, $-1
DATA submask<>+72(SB)/8, $-1
DATA submask<>+80(SB)/8, $-1
DATA submask<>+88(SB)/8, $-1
DATA submask<>+96(SB)/8, $-1
DATA submask<>+104(SB)/8, $-1
DATA submask<>+112(SB)/8, $-1
DATA submask<>+120(SB)/8, $-1
GLOBL submask<>(SB), RODATA|NOPTR, $256

// func subScaledColsAVX2(n int, y *float64, x *float64, ldx int, alpha *float64, lda int, nt int, scale float64)
//
// For t = 0..nt-1 in order, y[i] -= α_t·x[t*ldx+i] over i < n, with
// α_t = alpha[t*lda]; a zero α_t is skipped. Then y[i] *= scale. Sixteen
// rows of y stay in four vectors across all nt ≥ 1 terms, so four
// independent subtraction chains are in flight; VMULPD rounds each
// product and VSUBPD the difference, as the scalar loop does. The last
// n mod 16 rows take one more pass under a lane mask, which neither
// reads nor writes past row n.
TEXT ·subScaledColsAVX2(SB), NOSPLIT, $0-64
	MOVQ         n+0(FP), CX
	MOVQ         y+8(FP), DI
	MOVQ         x+16(FP), SI
	MOVQ         ldx+24(FP), R8
	MOVQ         alpha+32(FP), R9
	MOVQ         lda+40(FP), R10
	MOVQ         nt+48(FP), R11
	VBROADCASTSD scale+56(FP), Y14
	SHLQ         $3, R8
	SHLQ         $3, R10
	VXORPD       X15, X15, X15

	PCALIGN $64

rows16:
	CMPQ    CX, $16
	JLT     rest
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    R9, AX
	MOVQ    SI, DX
	MOVQ    R11, BX

	PCALIGN $64

term16:
	ALPHA(next16)
	VBROADCASTSD X4, Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VMULPD       64(DX), Y4, Y7
	VMULPD       96(DX), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3

next16:
	ADDQ    R10, AX
	ADDQ    R8, DX
	DECQ    BX
	JNZ     term16
	VMULPD  Y14, Y0, Y0
	VMULPD  Y14, Y1, Y1
	VMULPD  Y14, Y2, Y2
	VMULPD  Y14, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     rows16

rest:
	TESTQ      CX, CX
	JZ         subdone
	NEGQ       CX
	LEAQ       submask<>+128(SB), AX
	LEAQ       (AX)(CX*8), AX
	VMOVUPD    (AX), Y9
	VMOVUPD    32(AX), Y10
	VMOVUPD    64(AX), Y11
	VMOVUPD    96(AX), Y12
	VMASKMOVPD (DI), Y9, Y0
	VMASKMOVPD 32(DI), Y10, Y1
	VMASKMOVPD 64(DI), Y11, Y2
	VMASKMOVPD 96(DI), Y12, Y3
	MOVQ       R9, AX
	MOVQ       SI, DX
	MOVQ       R11, BX

	PCALIGN $64

termrest:
	ALPHA(nextrest)
	VBROADCASTSD X4, Y4
	VMASKMOVPD   (DX), Y9, Y5
	VMASKMOVPD   32(DX), Y10, Y6
	VMASKMOVPD   64(DX), Y11, Y7
	VMASKMOVPD   96(DX), Y12, Y8
	VMULPD       Y5, Y4, Y5
	VMULPD       Y6, Y4, Y6
	VMULPD       Y7, Y4, Y7
	VMULPD       Y8, Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3

nextrest:
	ADDQ       R10, AX
	ADDQ       R8, DX
	DECQ       BX
	JNZ        termrest
	VMULPD     Y14, Y0, Y0
	VMULPD     Y14, Y1, Y1
	VMULPD     Y14, Y2, Y2
	VMULPD     Y14, Y3, Y3
	VMASKMOVPD Y0, Y9, (DI)
	VMASKMOVPD Y1, Y10, 32(DI)
	VMASKMOVPD Y2, Y11, 64(DI)
	VMASKMOVPD Y3, Y12, 96(DI)

subdone:
	VZEROUPPER
	RET

// Fold one transposed row r (one column per lane) into a group's sums
// as the scalar loop does: s1 += r, s2 += w*r with the product rounded
// first, then max(|r|, mx) into mx, keeping mx when |r| is NaN. t is
// scratch; r is overwritten.
#define CHKROW(r, w, s1, s2, mx, t) \
	VADDPD r, s1, s1  \
	VMULPD r, w, t    \
	VADDPD t, s2, s2  \
	VANDPD r, Y15, r  \
	VMAXPD mx, r, mx

// Load rows i and i+1 of the four columns at p, p+lda, p+2*lda and
// p+3*lda, and leave row i in lo and row i+1 in hi, one column per
// lane. Y0 and Y1 are scratch.
#define CHKLOAD(p, lo, hi) \
	VMOVUPD     (p), X0                \
	VINSERTF128 $1, (p)(R8*2), Y0, Y0  \
	VMOVUPD     (p)(R8*1), X1          \
	VINSERTF128 $1, (p)(R9*1), Y1, Y1  \
	VUNPCKLPD   Y1, Y0, lo             \
	VUNPCKHPD   Y1, Y0, hi

// Write a group's four (s1, s2) pairs to DI, DI+ldo, DI+2*ldo and
// DI+3*ldo (R11 = ldo bytes, R12 = 3*ldo bytes): unpacking s1 with s2
// pairs up columns 0 and 2 in Y0 and columns 1 and 3 in Y1.
#define CHKSTORE(s1, s2) \
	VUNPCKLPD    s2, s1, Y0         \
	VUNPCKHPD    s2, s1, Y1         \
	VMOVUPD      X0, (DI)           \
	VMOVUPD      X1, (DI)(R11*1)    \
	VEXTRACTF128 $1, Y0, (DI)(R11*2) \
	VEXTRACTF128 $1, Y1, (DI)(R12*1)

// func colChecksums8AVX2(rows int, a *float64, lda int, out *float64, ldo int) float64
//
// rows is a positive even number. The eight columns at a, a+lda, ...,
// a+7*lda form two groups of four, each with its own s1, s2 and max
// vectors, so two independent chains of adds are in flight. Each
// iteration folds rows i and i+1 of both groups, in increasing i. Row
// i's weights (w) and row i+1's (w+1) each step by two, so neither
// waits on the other. Column q's s1 and s2 go to out[q*ldo] and
// out[q*ldo+1]; the max|a| over all eight columns is returned. No lane
// of the max vectors is ever NaN, so their lanes reduce in any order.
// Every instruction is VEX-encoded: a legacy-SSE one would cost an
// AVX-SSE state transition.
TEXT ·colChecksums8AVX2(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9  // 3 columns
	LEAQ (SI)(R8*4), R10 // the second group
	SHRQ $1, CX

	MOVQ         $0x3ff0000000000000, AX // 1.0
	VMOVQ        AX, X6
	VBROADCASTSD X6, Y6  // w = 1
	VADDPD       Y6, Y6, Y14 // step 2
	VMOVAPD      Y14, Y7 // w+1 = 2
	MOVQ         $0x7fffffffffffffff, AX // |x| mask
	VMOVQ        AX, X15
	VBROADCASTSD X15, Y15
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	VXORPD       Y10, Y10, Y10
	VXORPD       Y11, Y11, Y11
	VXORPD       Y12, Y12, Y12
	VXORPD       Y13, Y13, Y13

	PCALIGN $64

chkloop:
	CHKLOAD(SI, Y2, Y3)
	CHKLOAD(R10, Y4, Y5)
	CHKROW(Y2, Y6, Y8, Y9, Y10, Y0)
	CHKROW(Y4, Y6, Y11, Y12, Y13, Y1)
	CHKROW(Y3, Y7, Y8, Y9, Y10, Y0)
	CHKROW(Y5, Y7, Y11, Y12, Y13, Y1)
	VADDPD Y14, Y6, Y6
	VADDPD Y14, Y7, Y7
	ADDQ   $16, SI
	ADDQ   $16, R10
	DECQ   CX
	JNZ    chkloop

	MOVQ out+24(FP), DI
	MOVQ ldo+32(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R12
	CHKSTORE(Y8, Y9)
	LEAQ (DI)(R11*4), DI
	CHKSTORE(Y11, Y12)

	VMAXPD       Y13, Y10, Y10
	VEXTRACTF128 $1, Y10, X11
	VMAXPD       X11, X10, X10
	VUNPCKHPD    X10, X10, X11
	VMAXSD       X11, X10, X10
	VMOVSD       X10, ret+40(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

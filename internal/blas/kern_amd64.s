#include "textflag.h"

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

// func subScaledAVX2(n int, alpha float64, x, y *float64)
//
// y[i] -= alpha*x[i]: VMULPD rounds the product, then VSUBPD the
// difference, lane by lane as the scalar loop does; eight elements per
// iteration, then four, then one.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   sub4

sub8:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     sub8

sub4:
	TESTQ $4, CX
	JZ    sub1
	VMULPD  (SI), Y0, Y1
	VMOVUPD (DI), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

sub1:
	ANDQ $3, CX
	JZ   subdone

sub1loop:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    sub1loop

subdone:
	VZEROUPPER
	RET

// Fold one transposed row r (row i of the four columns, one per lane)
// into the sums as the scalar loop does: s1 += r in Y8, s2 += w*r in Y9
// with the product rounded first, max(|r|, Y10) into Y10 keeping Y10
// when |r| is NaN, then w += 1 in Y11.
#define CHKROW(r) \
	VADDPD r, Y8, Y8     \
	VMULPD r, Y11, Y14   \
	VADDPD Y14, Y9, Y9   \
	VANDPD r, Y13, Y15   \
	VMAXPD Y10, Y15, Y10 \
	VADDPD Y12, Y11, Y11

// func colChecksums4AVX2(rows int, a *float64, lda int, acc *[12]float64)
//
// rows is a positive multiple of four. Each iteration loads rows i..i+3 of the four columns, transposes the
// 4x4 tile so Y0..Y3 hold rows i..i+3 with one column per lane, and
// folds the rows in increasing i. Every instruction is VEX-encoded: a
// legacy-SSE one would cost an AVX-SSE state transition.
TEXT ·colChecksums4AVX2(SB), NOSPLIT, $0-32
	MOVQ rows+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ acc+24(FP), DI
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9 // 3 columns
	SHRQ $2, CX

	MOVQ         $0x3ff0000000000000, AX // 1.0
	VMOVQ        AX, X12
	VBROADCASTSD X12, Y12
	MOVQ         $0x7fffffffffffffff, AX // |x| mask
	VMOVQ        AX, X13
	VBROADCASTSD X13, Y13
	VMOVAPD      Y12, Y11 // w = 1
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	VXORPD       Y10, Y10, Y10

chkloop:
	VMOVUPD    (SI), Y0
	VMOVUPD    (SI)(R8*1), Y1
	VMOVUPD    (SI)(R8*2), Y2
	VMOVUPD    (SI)(R9*1), Y3
	VUNPCKLPD  Y1, Y0, Y4      // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5      // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6      // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7      // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0 // row i
	VPERM2F128 $0x20, Y7, Y5, Y1 // row i+1
	VPERM2F128 $0x31, Y6, Y4, Y2 // row i+2
	VPERM2F128 $0x31, Y7, Y5, Y3 // row i+3
	CHKROW(Y0)
	CHKROW(Y1)
	CHKROW(Y2)
	CHKROW(Y3)
	ADDQ       $32, SI
	DECQ       CX
	JNZ        chkloop

	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
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

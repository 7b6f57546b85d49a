#include "textflag.h"

// One depth step of the 8x4 tile: load A's 8 rows (two vectors) from
// SI+off*64, broadcast B's 4 values from DI+off*32, and fold the 32
// products into the accumulators Y0..Y7 (column c in Y(2c), Y(2c+1)).
#define STEP(aoff, boff) \
	VMOVUPD      aoff(SI), Y8          \
	VMOVUPD      aoff+32(SI), Y9       \
	VBROADCASTSD boff(DI), Y10         \
	VBROADCASTSD boff+8(DI), Y11       \
	VBROADCASTSD boff+16(DI), Y12      \
	VBROADCASTSD boff+24(DI), Y13      \
	VFMADD231PD  Y8, Y10, Y0           \
	VFMADD231PD  Y9, Y10, Y1           \
	VFMADD231PD  Y8, Y11, Y2           \
	VFMADD231PD  Y9, Y11, Y3           \
	VFMADD231PD  Y8, Y12, Y4           \
	VFMADD231PD  Y9, Y12, Y5           \
	VFMADD231PD  Y8, Y13, Y6           \
	VFMADD231PD  Y9, Y13, Y7

// Add one accumulated column pair to C at DX and step DX to the next
// column.
#define STORE(lo, hi) \
	VADDPD  (DX), lo, lo   \
	VMOVUPD lo, (DX)       \
	VADDPD  32(DX), hi, hi \
	VMOVUPD hi, 32(DX)     \
	ADDQ    R8, DX

// func kern8x4AVX2(k int, a, b, c *float64, ldc int)
TEXT ·kern8x4AVX2(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8

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
	STEP(0, 0)
	STEP(64, 32)
	STEP(128, 64)
	STEP(192, 96)
	ADDQ $256, SI
	ADDQ $128, DI
	DECQ BX
	JNZ  loop4

tail:
	ANDQ $3, CX
	JZ   store

loop1:
	STEP(0, 0)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop1

store:
	STORE(Y0, Y1)
	STORE(Y2, Y3)
	STORE(Y4, Y5)
	STORE(Y6, Y7)
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

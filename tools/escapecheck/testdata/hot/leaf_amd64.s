#include "textflag.h"

// func leaf(v float64) float64
TEXT ·leaf(SB), NOSPLIT, $0-16
	MOVSD v+0(FP), X0
	MOVSD X0, ret+8(FP)
	RET

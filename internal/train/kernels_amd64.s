#include "textflag.h"

// Four float32 lanes per step, SSE2 only. Every lane performs the Go loop's
// operations (kernels.go) in the Go loop's order, one IEEE rounding each.
// Loads and stores are unaligned; arithmetic takes register operands only.

// func adamWide(w, g, m, v []float32, k *adamConsts) int
TEXT ·adamWide(SB), NOSPLIT, $0-112
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), AX
	ANDQ $~3, CX
	MOVQ CX, ret+104(FP)
	JZ   adamDone
	SHLQ $2, CX // bytes
	MOVSS  0(AX), X8 // scale
	SHUFPS $0, X8, X8
	MOVSS  4(AX), X9 // b1
	SHUFPS $0, X9, X9
	MOVSS  8(AX), X10 // 1-b1
	SHUFPS $0, X10, X10
	MOVSS  12(AX), X11 // b2
	SHUFPS $0, X11, X11
	MOVSS  16(AX), X12 // 1-b2
	SHUFPS $0, X12, X12
	MOVSS  20(AX), X13 // c1
	SHUFPS $0, X13, X13
	MOVSS  24(AX), X14 // c2
	SHUFPS $0, X14, X14
	MOVSS  28(AX), X6 // lr
	SHUFPS $0, X6, X6
	MOVSS  32(AX), X7 // eps
	SHUFPS $0, X7, X7
	XORQ BX, BX

adamLoop:
	MOVUPS (SI)(BX*1), X0
	MULPS  X8, X0 // gi = g*scale
	MOVUPS (R8)(BX*1), X1
	MULPS  X9, X1 // b1*m
	MOVAPS X10, X3
	MULPS  X0, X3 // (1-b1)*gi
	ADDPS  X3, X1 // m = b1*m + (1-b1)*gi
	MOVUPS X1, (R8)(BX*1)
	MOVUPS (R9)(BX*1), X2
	MULPS  X11, X2 // b2*v
	MOVAPS X12, X4
	MULPS  X0, X4 // (1-b2)*gi
	MULPS  X0, X4 // ((1-b2)*gi)*gi
	ADDPS  X4, X2 // v = b2*v + (1-b2)*gi*gi
	MOVUPS X2, (R9)(BX*1)
	DIVPS  X13, X1 // mh = m/c1
	DIVPS  X14, X2 // vh = v/c2
	SQRTPS X2, X2
	ADDPS  X7, X2 // sqrt(vh) + eps
	MULPS  X6, X1 // lr*mh
	DIVPS  X2, X1 // (lr*mh) / (sqrt(vh)+eps)
	MOVUPS (DI)(BX*1), X5
	SUBPS  X1, X5 // w -= ...
	MOVUPS X5, (DI)(BX*1)
	ADDQ   $16, BX
	CMPQ   BX, CX
	JB     adamLoop

adamDone:
	RET

// func axpyWide(dst, x []float32, a float32) int
TEXT ·axpyWide(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	ANDQ $~3, CX
	MOVQ CX, ret+56(FP)
	JZ   axpyDone
	SHLQ $2, CX
	MOVSS  a+48(FP), X8
	SHUFPS $0, X8, X8
	XORQ BX, BX

axpyLoop:
	MOVUPS (SI)(BX*1), X1
	MULPS  X8, X1 // x*a
	MOVUPS (DI)(BX*1), X0
	ADDPS  X1, X0 // dst += x*a
	MOVUPS X0, (DI)(BX*1)
	ADDQ   $16, BX
	CMPQ   BX, CX
	JB     axpyLoop

axpyDone:
	RET

// func scaleWide(dst, x []float32, a float32) int
TEXT ·scaleWide(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	ANDQ $~3, CX
	MOVQ CX, ret+56(FP)
	JZ   scaleDone
	SHLQ $2, CX
	MOVSS  a+48(FP), X8
	SHUFPS $0, X8, X8
	XORQ BX, BX

scaleLoop:
	MOVUPS (SI)(BX*1), X0
	MULPS  X8, X0 // a*x
	MOVUPS X0, (DI)(BX*1)
	ADDQ   $16, BX
	CMPQ   BX, CX
	JB     scaleLoop

scaleDone:
	RET

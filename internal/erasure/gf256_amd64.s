#include "textflag.h"

// func cpuidSSSE3() bool
TEXT ·cpuidSSSE3(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $9, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func mulAddWide(dst, src []byte, t *[32]byte) int
//
// Per sixteen source bytes: split each byte into its two nibbles, look both
// up in c's nibble tables with PSHUFB, xor the two products together and
// into dst.
TEXT ·mulAddWide(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ t+48(FP), AX
	ANDQ $~15, CX
	MOVQ CX, ret+56(FP)
	JZ   done
	MOVOU (AX), X6   // c × low nibble
	MOVOU 16(AX), X7 // c × high nibble
	MOVL   $0x0f0f0f0f, BX
	MOVL   BX, X8
	PSHUFD $0, X8, X8 // 0x0f in every byte
	XORQ   BX, BX
	MOVQ   CX, DX
	ANDQ   $~31, DX
	JZ     tail

loop32: // two independent sixteen-byte steps per trip
	MOVOU  (SI)(BX*1), X0
	MOVOU  16(SI)(BX*1), X9
	MOVO   X0, X1
	MOVO   X9, X10
	PSRLQ  $4, X1
	PSRLQ  $4, X10
	PAND   X8, X0 // low nibbles
	PAND   X8, X9
	PAND   X8, X1 // high nibbles
	PAND   X8, X10
	MOVO   X6, X2
	MOVO   X6, X11
	PSHUFB X0, X2
	PSHUFB X9, X11
	MOVO   X7, X3
	MOVO   X7, X12
	PSHUFB X1, X3
	PSHUFB X10, X12
	PXOR   X2, X3 // c × src
	PXOR   X11, X12
	MOVOU  (DI)(BX*1), X4
	MOVOU  16(DI)(BX*1), X13
	PXOR   X3, X4
	PXOR   X12, X13
	MOVOU  X4, (DI)(BX*1)
	MOVOU  X13, 16(DI)(BX*1)
	ADDQ   $32, BX
	CMPQ   BX, DX
	JB     loop32

tail:
	CMPQ   BX, CX
	JAE    done
	MOVOU  (SI)(BX*1), X0
	MOVO   X0, X1
	PSRLQ  $4, X1
	PAND   X8, X0
	PAND   X8, X1
	MOVO   X6, X2
	PSHUFB X0, X2
	MOVO   X7, X3
	PSHUFB X1, X3
	PXOR   X2, X3
	MOVOU  (DI)(BX*1), X4
	PXOR   X3, X4
	MOVOU  X4, (DI)(BX*1)

done:
	RET

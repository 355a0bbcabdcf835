#include "textflag.h"

// func stencilRow(out, row, east, west, up, dn, north, south []float32, gosa float64) float64
//
// SSE2 only, no FMA. Every float32 operation is the lane-wise IEEE form of
// the one stencilRowGeneric performs, with the same operands in the same
// order; the running sum is the destination of each add, and v of the last,
// as in the compiled Go loop:
//
//	s0 = ((((up + north) + east) + dn) + south) + west
//	ss = s0*float32(1/6) - v
//	out = v + ss*Omega
//	gosa += float64(ss)*float64(ss), one cell at a time in k order
//
// Registers: DI out, SI row, R8 east, R9 west, R10 up, R11 dn, R12 north,
// R13 south; AX the cell index k, CX the cell count, BX the count rounded
// down to a multiple of four; X0 gosa, X6 float32(1/6) and X7 Omega in
// every lane.
TEXT ·stencilRow(SB), NOSPLIT, $0-208
	MOVQ out_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ east_base+48(FP), R8
	MOVQ west_base+72(FP), R9
	MOVQ up_base+96(FP), R10
	MOVQ dn_base+120(FP), R11
	MOVQ north_base+144(FP), R12
	MOVQ south_base+168(FP), R13

	// CX = the shortest length.
	MOVQ out_len+8(FP), CX
	MOVQ row_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ east_len+56(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ west_len+80(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ up_len+104(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ dn_len+128(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ north_len+152(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ south_len+176(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX

	MOVL $0x3e2aaaab, DX // float32(1.0 / 6.0)
	MOVQ DX, X6
	SHUFPS $0, X6, X6
	MOVL $0x3f4ccccd, DX // Omega = float32(0.8)
	MOVQ DX, X7
	SHUFPS $0, X7, X7

	MOVSD gosa+192(FP), X0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  tail

quad:
	// Unaligned loads go through MOVUPS: a legacy-SSE packed operand in
	// memory must be 16-byte aligned, and row slices are not.
	MOVUPS (R10)(AX*4), X1 // up
	MOVUPS (R12)(AX*4), X2 // north
	ADDPS  X2, X1
	MOVUPS (R8)(AX*4), X2  // east
	ADDPS  X2, X1
	MOVUPS (R11)(AX*4), X2 // dn
	ADDPS  X2, X1
	MOVUPS (R13)(AX*4), X2 // south
	ADDPS  X2, X1
	MOVUPS (R9)(AX*4), X2  // west
	ADDPS  X2, X1          // s0
	MULPS  X6, X1
	MOVUPS (SI)(AX*4), X3  // v
	SUBPS  X3, X1          // ss
	MOVAPS X1, X2
	MULPS  X7, X2
	ADDPS  X2, X3          // v + Omega*ss, v the destination
	MOVUPS X3, (DI)(AX*4)

	// gosa: lanes 0 and 1, then lanes 2 and 3, each squared in float64
	// and added alone.
	CVTPS2PD X1, X4
	MULPD    X4, X4
	ADDSD    X4, X0
	UNPCKHPD X4, X4
	ADDSD    X4, X0
	MOVHLPS  X1, X1
	CVTPS2PD X1, X5
	MULPD    X5, X5
	ADDSD    X5, X0
	UNPCKHPD X5, X5
	ADDSD    X5, X0

	ADDQ $4, AX
	CMPQ AX, BX
	JLT  quad

tail:
	CMPQ AX, CX
	JGE  done

single:
	MOVSS    (R10)(AX*4), X1
	ADDSS    (R12)(AX*4), X1
	ADDSS    (R8)(AX*4), X1
	ADDSS    (R11)(AX*4), X1
	ADDSS    (R13)(AX*4), X1
	ADDSS    (R9)(AX*4), X1
	MULSS    X6, X1
	MOVSS    (SI)(AX*4), X3
	SUBSS    X3, X1
	MOVAPS   X1, X2
	MULSS    X7, X2
	ADDSS    X2, X3
	MOVSS    X3, (DI)(AX*4)
	CVTSS2SD X1, X4
	MULSD    X4, X4
	ADDSD    X4, X0
	INCQ     AX
	CMPQ     AX, CX
	JLT      single

done:
	MOVSD X0, ret+200(FP)
	RET

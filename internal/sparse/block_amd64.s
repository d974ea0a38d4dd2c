#include "textflag.h"

// The blocked kernel on AVX2. A layout row is one component index's 8 lanes,
// 64 bytes: row idx of a block starts at byte idx<<6. Each nonzero x runs,
// per lane, p = round(x·c) and then s = round(s + p) — separate VMULPD and
// VADDPD, never a fused multiply-add, so every lane performs the float
// sequence DotDense performs for its centroid. The sweep stops at the
// first index at or past dim, DotDense's own cut-off, so no row outside
// the block is read; the caller guarantees n >= 1 and idx[0] < dim.

// func dots16AVX2(blk0, blk1 *float64, dim int, idx *uint32, val *float64, n int, out *float64)
TEXT ·dots16AVX2(SB), NOSPLIT, $0-56
	MOVQ blk0+0(FP), SI
	MOVQ blk1+8(FP), DI
	MOVQ dim+16(FP), R10
	MOVQ idx+24(FP), R8
	MOVQ val+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

loop16:
	MOVL (R8)(AX*4), BX
	CMPQ BX, R10
	JAE  done16
	SHLQ $6, BX
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (SI)(BX*1), Y4, Y5
	VMULPD 32(SI)(BX*1), Y4, Y6
	VMULPD (DI)(BX*1), Y4, Y7
	VMULPD 32(DI)(BX*1), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	INCQ AX
	CMPQ AX, CX
	JB   loop16

done16:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func dots8AVX2(blk *float64, dim int, idx *uint32, val *float64, n int, out *float64)
TEXT ·dots8AVX2(SB), NOSPLIT, $0-48
	MOVQ blk+0(FP), SI
	MOVQ dim+8(FP), R10
	MOVQ idx+16(FP), R8
	MOVQ val+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ out+40(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

loop8:
	MOVL (R8)(AX*4), BX
	CMPQ BX, R10
	JAE  done8
	SHLQ $6, BX
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (SI)(BX*1), Y4, Y5
	VMULPD 32(SI)(BX*1), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	INCQ AX
	CMPQ AX, CX
	JB   loop8

done8:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

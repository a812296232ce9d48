//go:build amd64

#include "textflag.h"

// CPUID/XGETBV feature probes (feature_amd64.go).

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dgemm4x8(dst, pa, pb *float64, k, n int)
//
// One full GEBP micro-tile: 4 packed rows of a (pa, kk-major, 4 doubles
// per k step) against one 8-wide packed panel of b (pb, kk-major, 8
// doubles per k step). Eight YMM accumulators hold the 4×8 tile across
// the whole k loop; each k step is 2 panel loads, 4 row broadcasts and
// 8 fused multiply-adds. Every accumulator lane folds ascending-k with
// a single rounding per term — the vector form of the scalar math.FMA
// fold, so stored results are bit-identical to the naive reference.
// Stores write straight to dst with row stride n (caller guarantees the
// full tile is in bounds).
TEXT ·dgemm4x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

kloop:
	VMOVUPD      (DX), Y8       // b panel, lanes 0-3
	VMOVUPD      32(DX), Y9     // b panel, lanes 4-7
	VBROADCASTSD (SI), Y10      // a row 0
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11     // a row 1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12    // a row 2
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13    // a row 3
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, DX
	ADDQ         $32, SI
	DECQ         CX
	JNZ          kloop

	SHLQ    $3, R8              // row stride in bytes
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemv16(dst, w, x, bias *float64, k int)
//
// One 16-output dense-forward block over lane-packed weights (w,
// kk-major, 16 doubles per k step). Four YMM accumulators run four
// independent multiply-THEN-add chains — deliberately not FMA: the
// reference fold is Dot's s += w*x with two roundings per term, and the
// compiled plan must be bit-identical to the uncompiled layer. Bias is
// added once after the k loop, matching Dot(row, x) + bias[o].
TEXT ·gemv16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ bias+24(FP), BX
	MOVQ k+32(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

kloop16:
	VBROADCASTSD (DX), Y4       // x[kk]
	VMOVUPD      (SI), Y5
	VMOVUPD      32(SI), Y6
	VMOVUPD      64(SI), Y7
	VMOVUPD      96(SI), Y8
	VMULPD       Y4, Y5, Y5     // w*x, one rounding
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0     // s += ·, second rounding
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          kloop16

	VADDPD  (BX), Y0, Y0        // + bias, after the fold like Dot
	VADDPD  32(BX), Y1, Y1
	VADDPD  64(BX), Y2, Y2
	VADDPD  96(BX), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func axpyRows(dst, c, src *float64, nc, n, dstStride, srcStride int, skip bool)
//
// The row AXPY: for o = 0..nc-1 in order, dst_o[i] += c[o]·src_o[i]
// over n elements, where row o of dst starts dstStride doubles after
// row o-1 (likewise src). Each element is one VMULPD then one VADDPD —
// two roundings, never fused. The operand order (src·c, then
// product + dst) is the one the Go reference loop compiles to on the
// default build; it only decides which payload a NaN result carries
// when both operands are NaN, which the contract leaves open.
// Blocks of 16, then 4, then a VEX scalar tail. A zero dstStride (the
// dX product: every o folds into one row) keeps each column block of
// dst in registers across all nc rows and stores it once; the fold per
// element is unchanged. With skip set, a coefficient equal to ±0 skips
// its row; VUCOMISD sets ZF for
// unordered operands too, so PF is tested first and a NaN coefficient
// is never skipped. VEX encoding only: one legacy SSE instruction
// between the YMM loops costs an AVX state transition on every row.
TEXT ·axpyRows(SB), NOSPLIT, $0-57
	MOVQ    dst+0(FP), DI
	MOVQ    c+8(FP), DX
	MOVQ    src+16(FP), SI
	MOVQ    nc+24(FP), CX
	MOVQ    n+32(FP), R8
	MOVQ    dstStride+40(FP), R9
	MOVQ    srcStride+48(FP), R10
	MOVBQZX skip+56(FP), R11
	SHLQ    $3, R9               // strides in bytes
	SHLQ    $3, R10
	VXORPD  X14, X14, X14        // +0 for the skip test
	TESTQ   R9, R9
	JZ      fold

orow:
	TESTQ    R11, R11
	JZ       take
	VMOVSD   (DX), X0
	VUCOMISD X14, X0
	JPS      take                // unordered: NaN is never skipped
	JEQ      nextrow             // c[o] == ±0

take:
	VBROADCASTSD (DX), Y0        // c[o] in every lane
	MOVQ         DI, AX          // dst row cursor
	MOVQ         SI, BX          // src row cursor
	MOVQ         R8, R12         // elements left
	CMPQ         R12, $16
	JLT          quad

block16:
	VMOVUPD (BX), Y1
	VMOVUPD 32(BX), Y2
	VMOVUPD 64(BX), Y3
	VMOVUPD 96(BX), Y4
	VMULPD  Y0, Y1, Y1           // src·c, one rounding
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (AX), Y1, Y1         // · + dst, second rounding
	VADDPD  32(AX), Y2, Y2
	VADDPD  64(AX), Y3, Y3
	VADDPD  96(AX), Y4, Y4
	VMOVUPD Y1, (AX)
	VMOVUPD Y2, 32(AX)
	VMOVUPD Y3, 64(AX)
	VMOVUPD Y4, 96(AX)
	ADDQ    $128, AX
	ADDQ    $128, BX
	SUBQ    $16, R12
	CMPQ    R12, $16
	JGE     block16

quad:
	CMPQ R12, $4
	JLT  single

block4:
	VMOVUPD (BX), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (AX), Y1, Y1
	VMOVUPD Y1, (AX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $4, R12
	CMPQ    R12, $4
	JGE     block4

single:
	TESTQ R12, R12
	JZ    nextrow

block1:
	VMOVSD (BX), X1
	VMULSD X0, X1, X1
	VADDSD (AX), X1, X1
	VMOVSD X1, (AX)
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   R12
	JNZ    block1

nextrow:
	ADDQ $8, DX
	ADDQ R9, DI
	ADDQ R10, SI
	DECQ CX
	JNZ  orow
	VZEROUPPER
	RET

	// dstStride == 0: SI and DI walk the column blocks; for each block
	// AX walks c and BX walks the block down the src rows.
fold:
	MOVQ R8, R12                 // columns left

fold16:
	CMPQ    R12, $16
	JLT     fold4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	MOVQ    DX, AX
	MOVQ    SI, BX
	MOVQ    CX, R13

f16row:
	TESTQ    R11, R11
	JZ       f16take
	VMOVSD   (AX), X0
	VUCOMISD X14, X0
	JPS      f16take
	JEQ      f16next

f16take:
	VBROADCASTSD (AX), Y0
	VMULPD       (BX), Y0, Y5
	VMULPD       32(BX), Y0, Y6
	VMULPD       64(BX), Y0, Y7
	VMULPD       96(BX), Y0, Y8
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	VADDPD       Y8, Y4, Y4

f16next:
	ADDQ    $8, AX
	ADDQ    R10, BX
	DECQ    R13
	JNZ     f16row
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, R12
	JMP     fold16

fold4:
	CMPQ    R12, $4
	JLT     fold1
	VMOVUPD (DI), Y1
	MOVQ    DX, AX
	MOVQ    SI, BX
	MOVQ    CX, R13

f4row:
	TESTQ    R11, R11
	JZ       f4take
	VMOVSD   (AX), X0
	VUCOMISD X14, X0
	JPS      f4take
	JEQ      f4next

f4take:
	VBROADCASTSD (AX), Y0
	VMULPD       (BX), Y0, Y5
	VADDPD       Y5, Y1, Y1

f4next:
	ADDQ    $8, AX
	ADDQ    R10, BX
	DECQ    R13
	JNZ     f4row
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, R12
	JMP     fold4

fold1:
	TESTQ  R12, R12
	JZ     folddone
	VMOVSD (DI), X1
	MOVQ   DX, AX
	MOVQ   SI, BX
	MOVQ   CX, R13

f1row:
	VMOVSD   (AX), X0
	TESTQ    R11, R11
	JZ       f1take
	VUCOMISD X14, X0
	JPS      f1take
	JEQ      f1next

f1take:
	VMULSD (BX), X0, X5
	VADDSD X5, X1, X1

f1next:
	ADDQ   $8, AX
	ADDQ   R10, BX
	DECQ   R13
	JNZ    f1row
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   R12
	JMP    fold1

folddone:
	VZEROUPPER
	RET

// func adamVec(p, grad, m, v *float64, n int, b1, b1c, b2, b2c, lr, c1, c2, eps float64)
//
// The elementwise Adam update over n doubles, 4 per YMM step, then a
// VEX scalar tail. Per element, in the Go optimizer's order:
//   m = b1·m + b1c·g            b1c = 1-b1
//   v = b2·v + (b2c·g)·g        b2c = 1-b2
//   p = p - (lr·(m/c1)) / (sqrt(v/c2) + eps)
// Every operation rounds on its own — true divides (no reciprocal
// multiplies), a correctly rounded VSQRTPD, no FMA — so each lane is
// bit-identical to the scalar loop.
TEXT ·adamVec(SB), NOSPLIT, $0-104
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), BX
	MOVQ         n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y8
	VBROADCASTSD b1c+48(FP), Y9
	VBROADCASTSD b2+56(FP), Y10
	VBROADCASTSD b2c+64(FP), Y11
	VBROADCASTSD lr+72(FP), Y12
	VBROADCASTSD c1+80(FP), Y13
	VBROADCASTSD c2+88(FP), Y14
	VBROADCASTSD eps+96(FP), Y7
	CMPQ         CX, $4
	JLT          adamtail

adam4:
	VMOVUPD (SI), Y0             // g
	VMULPD  (DX), Y8, Y1         // b1·m
	VMULPD  Y0, Y9, Y2           // b1c·g
	VADDPD  Y2, Y1, Y1           // m
	VMOVUPD Y1, (DX)
	VMULPD  (BX), Y10, Y3        // b2·v
	VMULPD  Y0, Y11, Y4          // b2c·g
	VMULPD  Y0, Y4, Y4           // (b2c·g)·g
	VADDPD  Y4, Y3, Y3           // v
	VMOVUPD Y3, (BX)
	VDIVPD  Y13, Y1, Y1          // m/c1
	VMULPD  Y1, Y12, Y1          // lr·(m/c1)
	VDIVPD  Y14, Y3, Y3          // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y7, Y3, Y3           // sqrt(v/c2) + eps
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5           // p - step
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     adam4

adamtail:
	TESTQ CX, CX
	JZ    adamdone

adam1:
	VMOVSD  (SI), X0
	VMULSD  (DX), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (DX)
	VMULSD  (BX), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (BX)
	VDIVSD  X13, X1, X1
	VMULSD  X1, X12, X1
	VDIVSD  X14, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X7, X3, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)
	ADDQ    $8, DI
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, BX
	DECQ    CX
	JNZ     adam1

adamdone:
	VZEROUPPER
	RET

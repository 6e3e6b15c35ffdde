//go:build amd64

#include "textflag.h"

// AVX2 kernel tier (see dispatch.go for the tier contract and
// kernels_amd64.go for the Go declarations).
//
// Determinism rules, shared by every routine here:
//
//   - No FMA contraction: products and sums use separate VMULPS/VADDPS
//     so each multiply rounds exactly like the Go kernels.
//   - Fixed reduction order: dotAVX2 keeps one 8-lane accumulator and
//     reduces it as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then folds
//     the scalar tail in index order — deterministic for a given input
//     on every AVX2 host.
//   - expIntoAVX2 replicates Expf's exact operation order per element
//     (shift subtract, range clamp, split-ln2 reduction, Horner
//     polynomial, two exact power-of-two scalings, NaN/overflow/
//     underflow overrides) and expIntoGo's float64 lane-sum pattern,
//     so elements and partial sums are bit-identical to the go tier.
//   - All loads/stores are unaligned (VMOVUPS); the arena aligns pooled
//     backing to 32 bytes so aligned access is the common fast case,
//     but sub-slices at any offset are correct.

// Constants for expIntoAVX2, bit patterns of the exp.go Go constants
// (asserted equal by TestExpConstantsMatchAsm).
GLOBL ·expKernelConsts(SB), RODATA|NOPTR, $56
DATA ·expKernelConsts+0(SB)/4, $0x3FB8AA3B  // log2e = float32(1/ln2)
DATA ·expKernelConsts+4(SB)/4, $0x4B400000  // expRound = 1.5 * 2^23
DATA ·expKernelConsts+8(SB)/4, $0x3F318000  // expC1 (ln2 high part)
DATA ·expKernelConsts+12(SB)/4, $0xB95E8083 // expC2 (ln2 low part)
DATA ·expKernelConsts+16(SB)/4, $0x39506967 // expP0
DATA ·expKernelConsts+20(SB)/4, $0x3AB743CE // expP1
DATA ·expKernelConsts+24(SB)/4, $0x3C088908 // expP2
DATA ·expKernelConsts+28(SB)/4, $0x3D2AA9C1 // expP3
DATA ·expKernelConsts+32(SB)/4, $0x3E2AAAAA // expP4
DATA ·expKernelConsts+36(SB)/4, $0x3F000000 // expP5
DATA ·expKernelConsts+40(SB)/4, $0x3F800000 // 1.0 (also the exponent bias in bits)
DATA ·expKernelConsts+44(SB)/4, $0xC2AEAC4F // expLo
DATA ·expKernelConsts+48(SB)/4, $0x42B17217 // expHi
DATA ·expKernelConsts+52(SB)/4, $0x7F800000 // +Inf

// func dotAVX2(a, b Vector) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0        // 8-lane accumulator
	XORQ AX, AX

dotloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   dotreduce
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DI)(AX*4), Y2
	VMULPS Y2, Y1, Y1        // separate mul + add: no FMA contraction
	VADDPS Y1, Y0, Y0
	MOVQ DX, AX
	JMP  dotloop8

dotreduce:
	// Fixed-order 8-lane reduction (see file header).
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0        // q_j = l_j + l_{j+4}
	VPERMILPS $0xEE, X0, X1  // (q2, q3, q2, q3)
	VADDPS X1, X0, X0        // (q0+q2, q1+q3, _, _)
	VPERMILPS $0x55, X0, X1  // lane 1 → lane 0
	VADDSS X1, X0, X0        // (q0+q2) + (q1+q3)

dottail:
	CMPQ AX, CX
	JAE  dotdone
	VMOVSS (SI)(AX*4), X1
	VMOVSS (DI)(AX*4), X2
	VMULSS X2, X1, X1
	VADDSS X1, X0, X0
	INCQ AX
	JMP  dottail

dotdone:
	VZEROUPPER
	VMOVSS X0, ret+48(FP)
	RET

// func axpyAVX2(a float32, x, y Vector)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX

axpyloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   axpytail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS Y0, Y1, Y1
	VMOVUPS (DI)(AX*4), Y2
	VADDPS Y1, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	MOVQ DX, AX
	JMP  axpyloop8

axpytail:
	CMPQ AX, CX
	JAE  axpydone
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VMOVSS (DI)(AX*4), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (DI)(AX*4)
	INCQ AX
	JMP  axpytail

axpydone:
	VZEROUPPER
	RET

// func scaleAVX2(v Vector, a float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	VBROADCASTSS a+24(FP), Y0
	XORQ AX, AX

scaleloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   scaletail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS Y0, Y1, Y1
	VMOVUPS Y1, (SI)(AX*4)
	MOVQ DX, AX
	JMP  scaleloop8

scaletail:
	CMPQ AX, CX
	JAE  scaledone
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (SI)(AX*4)
	INCQ AX
	JMP  scaletail

scaledone:
	VZEROUPPER
	RET

// func addAVX2(v, w Vector)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ v_len+8(FP), CX
	XORQ AX, AX

addloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   addtail
	VMOVUPS (DI)(AX*4), Y1
	VMOVUPS (SI)(AX*4), Y2
	VADDPS Y2, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	MOVQ DX, AX
	JMP  addloop8

addtail:
	CMPQ AX, CX
	JAE  adddone
	VMOVSS (DI)(AX*4), X1
	VMOVSS (SI)(AX*4), X2
	VADDSS X2, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  addtail

adddone:
	VZEROUPPER
	RET

// func expIntoAVX2(dst, src Vector, shift float32, acc *[4]float64) int
//
// Writes exp(src_i - shift) into dst for the longest multiple-of-4
// prefix and returns the number of elements processed; the Go wrapper
// (expIntoAVX2Tier) finishes the <4 tail with Expf. Float64 lane sums
// accumulate into *acc exactly like expIntoGo's s0..s3: lane k sums
// elements k, k+4, k+8, … in index order.
//
// Per element the operation sequence is Expf's, step for step:
//
//	x := src_i - shift
//	c := clamp(x)                   // min/max against expHi/expLo
//	t := c*log2e + expRound; n := t - expRound
//	r := c - n*expC1; r -= n*expC2
//	p := Horner(P0..P5, r); p = p*r*r + r + 1
//	ni := int32(n); half := ni/2 (truncated)
//	p *= 2^half; p *= 2^(ni-half)   // both factors exact powers of two
//	overrides: x > expHi → +Inf; x < expLo → 0; NaN x → x
//
// Register plan (shared by the 8-wide and 4-wide blocks; the X
// registers are the low halves of the same Y registers, so the
// broadcast constants below serve both):
//
//	Y7 log2e  Y12 expRound  Y13 expC1  Y14 expC2  Y15 shift
//	Y11 float64 lane accumulator
//	Y0 x (preserved for the NaN blend)  Y1 c  Y2 n/ni  Y3 r  Y4 p
//	Y5, Y6 scratch + broadcast constants  Y8 NaN mask  Y9 hi  Y10 lo
TEXT ·expIntoAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ acc+56(FP), BX
	VBROADCASTSS shift+48(FP), Y15
	VBROADCASTSS ·expKernelConsts+0(SB), Y7
	VBROADCASTSS ·expKernelConsts+4(SB), Y12
	VBROADCASTSS ·expKernelConsts+8(SB), Y13
	VBROADCASTSS ·expKernelConsts+12(SB), Y14
	VMOVUPD (BX), Y11
	XORQ AX, AX

exploop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   exptail4
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y15, Y0, Y0                        // x = src - shift

	// Masks from the unclamped x, then clamp into the finite range.
	VCMPPS $3, Y0, Y0, Y8                     // NaN (unordered)
	VBROADCASTSS ·expKernelConsts+48(SB), Y5  // expHi
	VBROADCASTSS ·expKernelConsts+44(SB), Y6  // expLo
	VCMPPS $0x1E, Y5, Y0, Y9                  // x > hi (GT_OQ)
	VCMPPS $0x11, Y6, Y0, Y10                 // x < lo (LT_OQ)
	VMINPS Y5, Y0, Y1                         // NaN → hi: always finite below
	VMAXPS Y6, Y1, Y1

	// n = nearest-integer(c/ln2) via the 1.5*2^23 rounding trick.
	VMULPS Y7, Y1, Y2
	VADDPS Y12, Y2, Y2
	VSUBPS Y12, Y2, Y2

	// r = c - n*C1 - n*C2 (split ln2; separate mul/sub, no FMA).
	VMULPS Y13, Y2, Y3
	VSUBPS Y3, Y1, Y3
	VMULPS Y14, Y2, Y4
	VSUBPS Y4, Y3, Y3

	// Horner polynomial, Expf's step order.
	VBROADCASTSS ·expKernelConsts+16(SB), Y4  // p = P0
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+20(SB), Y5
	VADDPS Y5, Y4, Y4                         // p = p*r + P1
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+24(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P2
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+28(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P3
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+32(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P4
	VMULPS Y3, Y4, Y4
	VBROADCASTSS ·expKernelConsts+36(SB), Y5
	VADDPS Y5, Y4, Y4                         // … + P5
	VMULPS Y3, Y4, Y4                         // p*r
	VMULPS Y3, Y4, Y4                         // (p*r)*r
	VADDPS Y3, Y4, Y4                         // + r
	VBROADCASTSS ·expKernelConsts+40(SB), Y6  // 1.0 (bits double as exponent bias)
	VADDPS Y6, Y4, Y4                         // + 1

	// 2^n in two exact factors: ni truncated (n is integral), then
	// half = trunc(ni/2) = (ni + (ni>>>31)) >> 1, rest = ni - half.
	VCVTTPS2DQ Y2, Y2
	VPSRLD $31, Y2, Y5
	VPADDD Y5, Y2, Y5
	VPSRAD $1, Y5, Y5
	VPSUBD Y5, Y2, Y2
	VPSLLD $23, Y5, Y5
	VPADDD Y6, Y5, Y5                         // bits(2^half)
	VPSLLD $23, Y2, Y2
	VPADDD Y6, Y2, Y2                         // bits(2^rest)
	VMULPS Y5, Y4, Y4
	VMULPS Y2, Y4, Y4

	// Range overrides, Expf's switch order with NaN winning.
	VBROADCASTSS ·expKernelConsts+52(SB), Y5  // +Inf
	VXORPS Y6, Y6, Y6
	VBLENDVPS Y9, Y5, Y4, Y4
	VBLENDVPS Y10, Y6, Y4, Y4
	VBLENDVPS Y8, Y0, Y4, Y4

	VMOVUPS Y4, (DI)(AX*4)

	// Lane sums: low then high quad, preserving expIntoGo's order.
	VCVTPS2PD X4, Y5
	VADDPD Y5, Y11, Y11
	VEXTRACTF128 $1, Y4, X5
	VCVTPS2PD X5, Y5
	VADDPD Y5, Y11, Y11
	MOVQ DX, AX
	JMP  exploop8

exptail4:
	// One 4-wide pass when ≥4 elements remain (same code at XMM
	// width; the X registers alias the Y constants loaded above).
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JA   expdone
	VMOVUPS (SI)(AX*4), X0
	VSUBPS X15, X0, X0

	VCMPPS $3, X0, X0, X8
	VBROADCASTSS ·expKernelConsts+48(SB), X5
	VBROADCASTSS ·expKernelConsts+44(SB), X6
	VCMPPS $0x1E, X5, X0, X9
	VCMPPS $0x11, X6, X0, X10
	VMINPS X5, X0, X1
	VMAXPS X6, X1, X1

	VMULPS X7, X1, X2
	VADDPS X12, X2, X2
	VSUBPS X12, X2, X2

	VMULPS X13, X2, X3
	VSUBPS X3, X1, X3
	VMULPS X14, X2, X4
	VSUBPS X4, X3, X3

	VBROADCASTSS ·expKernelConsts+16(SB), X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+20(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+24(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+28(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+32(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+36(SB), X5
	VADDPS X5, X4, X4
	VMULPS X3, X4, X4
	VMULPS X3, X4, X4
	VADDPS X3, X4, X4
	VBROADCASTSS ·expKernelConsts+40(SB), X6
	VADDPS X6, X4, X4

	VCVTTPS2DQ X2, X2
	VPSRLD $31, X2, X5
	VPADDD X5, X2, X5
	VPSRAD $1, X5, X5
	VPSUBD X5, X2, X2
	VPSLLD $23, X5, X5
	VPADDD X6, X5, X5
	VPSLLD $23, X2, X2
	VPADDD X6, X2, X2
	VMULPS X5, X4, X4
	VMULPS X2, X4, X4

	VBROADCASTSS ·expKernelConsts+52(SB), X5
	VXORPS X6, X6, X6
	VBLENDVPS X9, X5, X4, X4
	VBLENDVPS X10, X6, X4, X4
	VBLENDVPS X8, X0, X4, X4

	VMOVUPS X4, (DI)(AX*4)
	VCVTPS2PD X4, Y5
	VADDPD Y5, Y11, Y11
	MOVQ DX, AX

expdone:
	VMOVUPD Y11, (BX)
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET

// func expKernelConstsRef() *[14]float32
//
// Test accessor: returns the address of the RODATA constant table so
// TestExpConstantsMatchAsm can pin each slot against its exp.go twin.
TEXT ·expKernelConstsRef(SB), NOSPLIT, $0-8
	LEAQ ·expKernelConsts(SB), AX
	MOVQ AX, ret+0(FP)
	RET

// func dotRowsAVX2(a []float32, x, y Vector)
//
// y[i] = dot(row i of a, x) for every row, where a is row-major with
// len(x) columns and len(y) rows. Each row replays dotAVX2 exactly —
// one 8-lane accumulator in column order, the same fixed reduction,
// the same scalar tail in index order — so every y[i] is bit-identical
// to dotAVX2(row i, x); only the per-row call disappears. Rows run four
// at a time with one accumulator each (the x block is loaded once for
// all four, and the four reductions overlap), then one at a time.
//
// Registers: SI row pointer, DI x, CX cols, R8 y, R9 rows, R10 row
// stride, BX row index, AX column, R11-R13 rows 1-3 of a quad, Y0-Y3
// accumulators, Y4 x block / x element, Y5-Y8 products and reduction
// temporaries.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX
	MOVQ y_base+48(FP), R8
	MOVQ y_len+56(FP), R9
	MOVQ CX, R10
	SHLQ $2, R10             // row stride in bytes
	XORQ BX, BX              // row index

drquad:
	LEAQ 4(BX), DX
	CMPQ DX, R9
	JA   drrow
	LEAQ (SI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

drquad8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   drquadreduce
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS (SI)(AX*4), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VMOVUPS (R11)(AX*4), Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1
	VMOVUPS (R12)(AX*4), Y7
	VMULPS Y4, Y7, Y7
	VADDPS Y7, Y2, Y2
	VMOVUPS (R13)(AX*4), Y8
	VMULPS Y4, Y8, Y8
	VADDPS Y8, Y3, Y3
	MOVQ DX, AX
	JMP  drquad8

drquadreduce:
	// dotAVX2's fixed reduction, once per accumulator.
	VEXTRACTF128 $1, Y0, X5
	VEXTRACTF128 $1, Y1, X6
	VEXTRACTF128 $1, Y2, X7
	VEXTRACTF128 $1, Y3, X8
	VADDPS X5, X0, X0
	VADDPS X6, X1, X1
	VADDPS X7, X2, X2
	VADDPS X8, X3, X3
	VPERMILPS $0xEE, X0, X5
	VPERMILPS $0xEE, X1, X6
	VPERMILPS $0xEE, X2, X7
	VPERMILPS $0xEE, X3, X8
	VADDPS X5, X0, X0
	VADDPS X6, X1, X1
	VADDPS X7, X2, X2
	VADDPS X8, X3, X3
	VPERMILPS $0x55, X0, X5
	VPERMILPS $0x55, X1, X6
	VPERMILPS $0x55, X2, X7
	VPERMILPS $0x55, X3, X8
	VADDSS X5, X0, X0
	VADDSS X6, X1, X1
	VADDSS X7, X2, X2
	VADDSS X8, X3, X3

drquadtail:
	CMPQ AX, CX
	JAE  drquadstore
	VMOVSS (DI)(AX*4), X4
	VMOVSS (SI)(AX*4), X5
	VMULSS X4, X5, X5
	VADDSS X5, X0, X0
	VMOVSS (R11)(AX*4), X6
	VMULSS X4, X6, X6
	VADDSS X6, X1, X1
	VMOVSS (R12)(AX*4), X7
	VMULSS X4, X7, X7
	VADDSS X7, X2, X2
	VMOVSS (R13)(AX*4), X8
	VMULSS X4, X8, X8
	VADDSS X8, X3, X3
	INCQ AX
	JMP  drquadtail

drquadstore:
	VMOVSS X0, (R8)(BX*4)
	VMOVSS X1, 4(R8)(BX*4)
	VMOVSS X2, 8(R8)(BX*4)
	VMOVSS X3, 12(R8)(BX*4)
	LEAQ (R13)(R10*1), SI
	ADDQ $4, BX
	JMP  drquad

drrow:
	CMPQ BX, R9
	JAE  drdone
	VXORPS Y0, Y0, Y0
	XORQ AX, AX

drloop8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   drreduce
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DI)(AX*4), Y2
	VMULPS Y2, Y1, Y1
	VADDPS Y1, Y0, Y0
	MOVQ DX, AX
	JMP  drloop8

drreduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VPERMILPS $0xEE, X0, X1
	VADDPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VADDSS X1, X0, X0

drtail:
	CMPQ AX, CX
	JAE  drstore
	VMOVSS (SI)(AX*4), X1
	VMOVSS (DI)(AX*4), X2
	VMULSS X2, X1, X1
	VADDSS X1, X0, X0
	INCQ AX
	JMP  drtail

drstore:
	VMOVSS X0, (R8)(BX*4)
	ADDQ R10, SI
	INCQ BX
	JMP  drrow

drdone:
	VZEROUPPER
	RET

// Lane masks for wsumRowsAVX2's last vector of a strip: the 8 dwords
// at byte offset 4*(8-t) enable exactly the first t lanes (t = 1..8).
GLOBL ·rowTailMask(SB), RODATA|NOPTR, $64
DATA ·rowTailMask+0(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+4(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+8(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+12(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+16(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+20(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+24(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+28(SB)/4, $0xFFFFFFFF
DATA ·rowTailMask+32(SB)/4, $0
DATA ·rowTailMask+36(SB)/4, $0
DATA ·rowTailMask+40(SB)/4, $0
DATA ·rowTailMask+44(SB)/4, $0
DATA ·rowTailMask+48(SB)/4, $0
DATA ·rowTailMask+52(SB)/4, $0
DATA ·rowTailMask+56(SB)/4, $0
DATA ·rowTailMask+60(SB)/4, $0

// func wsumRowsAVX2(p Vector, a []float32, y Vector, skip float32) int
//
// y += p[i]·(row i of a) for rows i ascending, where a is row-major
// with len(y) columns and len(p) rows. Row i is skipped, and counted,
// when skip > p[i] (the Go wrapper passes -Inf when skipping is off,
// which no weight is below); a row whose weight is ±0 is skipped
// uncounted, as axpyAVX2Tier's a == 0 fast-out does. Returns the count.
// Requires len(y) > 0 (the wrapper handles the empty case).
//
// y is strip-mined into passes of at most 32 floats (four YMM
// registers). Each pass loads its strip of y once, streams every row
// through it, and stores it once; the strip's last vector goes through
// VMASKMOVPS with a lane mask, so a 1..7-float column tail stays in a
// register as well. Per element the operations are axpyAVX2's — a
// separate VMULPS (x·p) then VADDPS (y + product), rows in ascending
// order — and columns never interact, so y is bit-identical to calling
// axpyAVX2Tier once per surviving row.
//
// Registers: R8 p, R9 rows, SI a, DI y, CX cols, R10 row stride, R11
// skip count, R12 count increment (1 on the first strip, 0 after, so
// each row is counted once), AX strip start column, R13 row pointer,
// BX row index, X15 skip, Y14 last-vector lane mask, Y0-Y3 the strip
// of y, Y4 the broadcast weight, Y5-Y8 products.
TEXT ·wsumRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ p_base+0(FP), R8
	MOVQ p_len+8(FP), R9
	MOVQ a_base+24(FP), SI
	MOVQ y_base+48(FP), DI
	MOVQ y_len+56(FP), CX
	VMOVSS skip+72(FP), X15
	MOVQ CX, R10
	SHLQ $2, R10
	XORQ R11, R11
	MOVQ $1, R12
	XORQ AX, AX

wsstrip:
	MOVQ CX, DX
	SUBQ AX, DX              // columns left
	JLE  wsdone
	CMPQ DX, $32
	JLE  wswidth
	MOVQ $32, DX

wswidth:
	// nv = ceil(w/8) vectors; the last enables t = w - 8(nv-1) lanes,
	// so its mask sits at byte offset 4*(8nv - w).
	LEAQ 7(DX), BX
	SHRQ $3, BX
	MOVQ BX, R13
	SHLQ $3, R13
	SUBQ DX, R13
	LEAQ ·rowTailMask(SB), DX
	VMOVUPS (DX)(R13*4), Y14
	CMPQ BX, $4
	JEQ  ws4
	CMPQ BX, $3
	JEQ  ws3
	CMPQ BX, $2
	JEQ  ws2
	JMP  ws1


ws4:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMASKMOVPS 96(DI)(AX*4), Y14, Y3
	LEAQ (SI)(AX*4), R13
	XORQ BX, BX

ws4row:
	CMPQ BX, R9
	JAE  ws4store
	VMOVSS (R8)(BX*4), X4
	VUCOMISS X4, X15
	JA   ws4skip            // skip > p (ordered): threshold skip
	MOVL (R8)(BX*4), DX
	TESTL $0x7FFFFFFF, DX
	JZ   ws4next            // p == ±0: the a == 0 fast-out
	VBROADCASTSS X4, Y4
	VMOVUPS (R13), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VMOVUPS 32(R13), Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1
	VMOVUPS 64(R13), Y7
	VMULPS Y4, Y7, Y7
	VADDPS Y7, Y2, Y2
	VMASKMOVPS 96(R13), Y14, Y8
	VMULPS Y4, Y8, Y8
	VADDPS Y8, Y3, Y3

ws4next:
	ADDQ R10, R13
	INCQ BX
	JMP  ws4row

ws4skip:
	ADDQ R12, R11
	JMP  ws4next

ws4store:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMASKMOVPS Y3, Y14, 96(DI)(AX*4)
	JMP  wsnext

ws3:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMASKMOVPS 64(DI)(AX*4), Y14, Y2
	LEAQ (SI)(AX*4), R13
	XORQ BX, BX

ws3row:
	CMPQ BX, R9
	JAE  ws3store
	VMOVSS (R8)(BX*4), X4
	VUCOMISS X4, X15
	JA   ws3skip            // skip > p (ordered): threshold skip
	MOVL (R8)(BX*4), DX
	TESTL $0x7FFFFFFF, DX
	JZ   ws3next            // p == ±0: the a == 0 fast-out
	VBROADCASTSS X4, Y4
	VMOVUPS (R13), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VMOVUPS 32(R13), Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1
	VMASKMOVPS 64(R13), Y14, Y7
	VMULPS Y4, Y7, Y7
	VADDPS Y7, Y2, Y2

ws3next:
	ADDQ R10, R13
	INCQ BX
	JMP  ws3row

ws3skip:
	ADDQ R12, R11
	JMP  ws3next

ws3store:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMASKMOVPS Y2, Y14, 64(DI)(AX*4)
	JMP  wsnext

ws2:
	VMOVUPS (DI)(AX*4), Y0
	VMASKMOVPS 32(DI)(AX*4), Y14, Y1
	LEAQ (SI)(AX*4), R13
	XORQ BX, BX

ws2row:
	CMPQ BX, R9
	JAE  ws2store
	VMOVSS (R8)(BX*4), X4
	VUCOMISS X4, X15
	JA   ws2skip            // skip > p (ordered): threshold skip
	MOVL (R8)(BX*4), DX
	TESTL $0x7FFFFFFF, DX
	JZ   ws2next            // p == ±0: the a == 0 fast-out
	VBROADCASTSS X4, Y4
	VMOVUPS (R13), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VMASKMOVPS 32(R13), Y14, Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1

ws2next:
	ADDQ R10, R13
	INCQ BX
	JMP  ws2row

ws2skip:
	ADDQ R12, R11
	JMP  ws2next

ws2store:
	VMOVUPS Y0, (DI)(AX*4)
	VMASKMOVPS Y1, Y14, 32(DI)(AX*4)
	JMP  wsnext

ws1:
	VMASKMOVPS (DI)(AX*4), Y14, Y0
	LEAQ (SI)(AX*4), R13
	XORQ BX, BX

ws1row:
	CMPQ BX, R9
	JAE  ws1store
	VMOVSS (R8)(BX*4), X4
	VUCOMISS X4, X15
	JA   ws1skip            // skip > p (ordered): threshold skip
	MOVL (R8)(BX*4), DX
	TESTL $0x7FFFFFFF, DX
	JZ   ws1next            // p == ±0: the a == 0 fast-out
	VBROADCASTSS X4, Y4
	VMASKMOVPS (R13), Y14, Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0

ws1next:
	ADDQ R10, R13
	INCQ BX
	JMP  ws1row

ws1skip:
	ADDQ R12, R11
	JMP  ws1next

ws1store:
	VMASKMOVPS Y0, Y14, (DI)(AX*4)
	JMP  wsnext

wsnext:
	ADDQ $32, AX
	XORQ R12, R12
	JMP  wsstrip

wsdone:
	VZEROUPPER
	MOVQ R11, ret+80(FP)
	RET

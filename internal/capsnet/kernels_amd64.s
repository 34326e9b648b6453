#include "textflag.h"

// Packed micro-kernels of the routing procedure's four equations, see
// kernels.go (Eqs. 1, 2, 4) and math.go (Eq. 5). Each is bit-identical
// to its Go loop by construction: a vector lane is one of the loop's
// independent sums or elementwise values, every term is one rounded
// multiply and one rounded add in the loop's order (never a float32
// FMA). Where two NaNs of different payloads meet, x86 returns the
// first source's; the operands here stand in the order an ordinary
// build of the Go loop has them, which the language does not fix (a
// -race build swaps some), so that one case is NaN for NaN rather than
// bit for bit.
//
// Eqs. 1 and 2 (predTile4, predTile1, aggregateRows): a lane is one of
// the ch contiguous output elements of a capsule, the reduction index
// ascends, the running sum is the add's first source. They require
// ch%8 == 0.

// One sample's share of a reduction step: broadcast its u entry and
// multiply-add it into the sample's accumulators, 16 outputs (weights
// in Y8, Y9) or 8 (Y8).
#define SAMPLE16(mem, lo, hi) \
	VBROADCASTSS mem, Y10 \
	VMULPS       Y8, Y10, Y11 \
	VADDPS       Y11, lo, lo \
	VMULPS       Y9, Y10, Y11 \
	VADDPS       Y11, hi, hi

#define SAMPLE8(mem, lo) \
	VBROADCASTSS mem, Y10 \
	VMULPS       Y8, Y10, Y11 \
	VADDPS       Y11, lo, lo

// PFDIST is how far ahead of the stream it walks each of Eqs. 1, 2 and
// 4 issues a PREFETCHT0: the W rows in predTile4 and predTile1, the û
// rows in aggregateRows and agreePairs8. Those streams come from DRAM
// (û at batch 8 is 19.8 MB, W 19.8 MB) and the kernels stalled on
// each line's latency, not on bandwidth: the hardware prefetcher runs
// too close behind. A prefetch changes no result and never faults, so
// it may run past the end of an operand. Swept on one core of the
// 2-vCPU Sapphire Rapids Xeon dev host (ms per call, medians of 5
// alternating runs; none = no prefetch):
//
//	distance          none   1 KB   2 KB   4 KB   8 KB  16 KB
//	Eq. 1 rp3872/nb1  2.21   1.86   1.54   1.34   1.45   1.51
//	Eq. 1 rp3872/nb8  5.17   5.03   4.61   4.46   4.54   4.25
//	Eq. 2 rp3872/nb8  2.67   1.98   1.73   1.51   1.50   1.51
//	Eq. 4 rp3872/nb8  2.69   2.49   2.04   1.53   1.43   1.64
//
// Everything from 4 KB up is one plateau within the host's noise.
#define PFDIST 4096

// func predTile4(u, w, o []float32, ustride, ostride, nh, cl, ch int)
//
// Eq. 1 for one low-level capsule and four samples: for sample s < 4,
// block j < nh and output e < ch,
//
//	o[s·ostride + j·ch + e] = Σ_{d<cl} u[s·ustride + d] · w[(j·cl + d)·ch + e]
//
// stored, not accumulated, 4 samples × 16 outputs per pass over d (8
// for the last ch%16).
//
// AX u (at d)      BX ustride·4   CX 3·ustride·4
// DX w (column)    R12 w (at d)   R9 ch·4
// SI o (column)    DI ostride·4   R8 3·ostride·4
// R10 d countdown  R11 j countdown  R13 outputs left in block j
TEXT ·predTile4(SB), NOSPLIT, $0-112
	MOVQ u_base+0(FP), AX
	MOVQ w_base+24(FP), DX
	MOVQ o_base+48(FP), SI
	MOVQ ustride+72(FP), BX
	MOVQ ostride+80(FP), DI
	MOVQ nh+88(FP), R11
	MOVQ ch+104(FP), R9
	SHLQ $2, BX
	SHLQ $2, DI
	SHLQ $2, R9
	LEAQ (BX)(BX*2), CX
	LEAQ (DI)(DI*2), R8

block4:
	MOVQ ch+104(FP), R13

wide4:
	CMPQ R13, $16
	JLT  narrow4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ DX, R12
	MOVQ cl+96(FP), R10

wide4d:
	PREFETCHT0 PFDIST(R12)
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	SAMPLE16((AX), Y0, Y1)
	SAMPLE16((AX)(BX*1), Y2, Y3)
	SAMPLE16((AX)(BX*2), Y4, Y5)
	SAMPLE16((AX)(CX*1), Y6, Y7)
	ADDQ R9, R12
	ADDQ $4, AX
	DECQ R10
	JNZ  wide4d

	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	VMOVUPS Y2, (SI)(DI*1)
	VMOVUPS Y3, 32(SI)(DI*1)
	VMOVUPS Y4, (SI)(DI*2)
	VMOVUPS Y5, 32(SI)(DI*2)
	VMOVUPS Y6, (SI)(R8*1)
	VMOVUPS Y7, 32(SI)(R8*1)
	MOVQ cl+96(FP), R10
	SHLQ $2, R10
	SUBQ R10, AX
	ADDQ $64, DX
	ADDQ $64, SI
	SUBQ $16, R13
	JMP  wide4

narrow4:
	TESTQ R13, R13
	JZ    next4
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	MOVQ DX, R12
	MOVQ cl+96(FP), R10

narrow4d:
	PREFETCHT0 PFDIST(R12)
	VMOVUPS (R12), Y8
	SAMPLE8((AX), Y0)
	SAMPLE8((AX)(BX*1), Y2)
	SAMPLE8((AX)(BX*2), Y4)
	SAMPLE8((AX)(CX*1), Y6)
	ADDQ R9, R12
	ADDQ $4, AX
	DECQ R10
	JNZ  narrow4d

	VMOVUPS Y0, (SI)
	VMOVUPS Y2, (SI)(DI*1)
	VMOVUPS Y4, (SI)(DI*2)
	VMOVUPS Y6, (SI)(R8*1)
	MOVQ cl+96(FP), R10
	SHLQ $2, R10
	SUBQ R10, AX
	ADDQ $32, DX
	ADDQ $32, SI

next4:
	// DX is one row (ch floats) into block j; block j+1 starts cl rows in.
	MOVQ  cl+96(FP), R10
	DECQ  R10
	IMULQ R9, R10
	ADDQ  R10, DX
	DECQ  R11
	JNZ   block4
	VZEROUPPER
	RET

// func predTile1(u, w, o []float32, nh, cl, ch int)
//
// The nb%4 edge: predTile4 for a single sample.
TEXT ·predTile1(SB), NOSPLIT, $0-96
	MOVQ u_base+0(FP), AX
	MOVQ w_base+24(FP), DX
	MOVQ o_base+48(FP), SI
	MOVQ nh+72(FP), R11
	MOVQ ch+88(FP), R9
	SHLQ $2, R9

block1:
	MOVQ ch+88(FP), R13

wide1:
	CMPQ R13, $16
	JLT  narrow1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ DX, R12
	MOVQ cl+80(FP), R10

wide1d:
	PREFETCHT0 PFDIST(R12)
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	SAMPLE16((AX), Y0, Y1)
	ADDQ R9, R12
	ADDQ $4, AX
	DECQ R10
	JNZ  wide1d

	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	MOVQ cl+80(FP), R10
	SHLQ $2, R10
	SUBQ R10, AX
	ADDQ $64, DX
	ADDQ $64, SI
	SUBQ $16, R13
	JMP  wide1

narrow1:
	TESTQ R13, R13
	JZ    next1
	VXORPS Y0, Y0, Y0
	MOVQ DX, R12
	MOVQ cl+80(FP), R10

narrow1d:
	PREFETCHT0 PFDIST(R12)
	VMOVUPS (R12), Y8
	SAMPLE8((AX), Y0)
	ADDQ R9, R12
	ADDQ $4, AX
	DECQ R10
	JNZ  narrow1d

	VMOVUPS Y0, (SI)
	MOVQ cl+80(FP), R10
	SHLQ $2, R10
	SUBQ R10, AX
	ADDQ $32, DX
	ADDQ $32, SI

next1:
	MOVQ  cl+80(FP), R10
	DECQ  R10
	IMULQ R9, R10
	ADDQ  R10, DX
	DECQ  R11
	JNZ   block1
	VZEROUPPER
	RET

// func aggregateRows(s, c, u []float32, nl, nj, ch, cstride, ustride int)
//
// Eq. 2 for one sample and nj high-level capsules: for i < nl
// ascending, j < nj with c[i·cstride + j] ≠ ±0, and e < ch,
//
//	s[j·ch + e] += c[i·cstride + j] · u[i·ustride + j·ch + e]
//
// AX s (row start)  R11 s (at j)   DI ch·4
// R13 c (at i, j)   R8 (cstride−nj)·4
// R12 u (at i, j)   R9 (ustride−nj·ch)·4
// DX i countdown    R10 j countdown  BX bytes left of row j, CX scratch
TEXT ·aggregateRows(SB), NOSPLIT, $0-112
	MOVQ s_base+0(FP), AX
	MOVQ c_base+24(FP), R13
	MOVQ u_base+48(FP), R12
	MOVQ nl+72(FP), DX
	MOVQ nj+80(FP), SI
	MOVQ ch+88(FP), DI
	MOVQ cstride+96(FP), R8
	MOVQ ustride+104(FP), R9
	SUBQ  SI, R8
	SHLQ  $2, R8
	MOVQ  SI, CX
	IMULQ DI, CX
	SUBQ  CX, R9
	SHLQ  $2, R9
	SHLQ  $2, DI

rowi:
	MOVQ AX, R11
	MOVQ SI, R10

capj:
	// cij == 0 for +0 and −0 alike: the bits shifted left once are zero.
	MOVL (R13), CX
	ADDL CX, CX
	JZ   skipj
	VBROADCASTSS (R13), Y1
	MOVQ DI, BX

lanes:
	PREFETCHT0 PFDIST(R12)
	VMULPS  (R12), Y1, Y2
	VMOVUPS (R11), Y3
	VADDPS  Y2, Y3, Y3
	VMOVUPS Y3, (R11)
	ADDQ $32, R12
	ADDQ $32, R11
	SUBQ $32, BX
	JNZ  lanes
	JMP  nextj

skipj:
	ADDQ DI, R12
	ADDQ DI, R11

nextj:
	ADDQ $4, R13
	DECQ R10
	JNZ  capj

	ADDQ R8, R13
	ADDQ R9, R12
	DECQ DX
	JNZ  rowi
	VZEROUPPER
	RET

// func agreePairs8(b, u, vt []float32, ch int)
//
// Eq. 4 for len(b) consecutive (i, j) pairs of one sample, eight at a
// time (len(b)%8 == 0, ch%4 == 0): for pair p and its û row u[p·ch:],
//
//	b[p] += Σ_{d<ch} u[p·ch + d] · v_{p mod nh}[d]
//
// each sum from +0 with d ascending, as agreementRange's dot, a pair
// per vector lane. A step takes four values of d: û rows r and r+4
// (r < 4) are loaded into the halves of one register and multiplied by
// the next vector of vt — fillAgreeReplica's copy of the sample's v in
// exactly this order, wrapping after lcm(8, nh) pairs — and a 4×4
// transpose within each half leaves one register per d holding that
// term for all eight pairs; the four are added to the sums d
// ascending. The logits then take the eight sums in one add. Operand
// order: û·v, sum + product, sum + b.
//
// DI b (at group)   SI û (group's row 0)   AX û (at d)
// BX vt (cursor)    DX vt start            R8 vt end
// R9 ch·4, R10 3·ch·4, R11 5·ch·4, R12 7·ch·4
// CX groups left    R13 steps left
// R14 prefetch cursor: two lines a step, so it walks a group's 8·ch·4
// bytes of û in its ch/4 steps and stays level with SI
TEXT ·agreePairs8(SB), NOSPLIT, $0-80
	MOVQ b_base+0(FP), DI
	MOVQ b_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ vt_base+48(FP), DX
	MOVQ vt_len+56(FP), R8
	LEAQ (DX)(R8*4), R8
	MOVQ ch+72(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	LEAQ (R9)(R9*4), R11
	LEAQ (R10)(R9*4), R12
	MOVQ DX, BX
	MOVQ SI, R14
	SHRQ $3, CX

agreeGroup:
	VXORPS Y8, Y8, Y8
	MOVQ   SI, AX
	MOVQ   ch+72(FP), R13
	SHRQ   $2, R13

agreeStep:
	PREFETCHT0  PFDIST(R14)
	PREFETCHT0  PFDIST+64(R14)
	ADDQ        $128, R14
	VMOVUPS     (AX), X0
	VINSERTF128 $1, (AX)(R9*4), Y0, Y0
	VMOVUPS     (AX)(R9*1), X1
	VINSERTF128 $1, (AX)(R11*1), Y1, Y1
	VMOVUPS     (AX)(R9*2), X2
	VINSERTF128 $1, (AX)(R10*2), Y2, Y2
	VMOVUPS     (AX)(R10*1), X3
	VINSERTF128 $1, (AX)(R12*1), Y3, Y3
	VMULPS      (BX), Y0, Y0
	VMULPS      32(BX), Y1, Y1
	VMULPS      64(BX), Y2, Y2
	VMULPS      96(BX), Y3, Y3
	VUNPCKLPS   Y1, Y0, Y4
	VUNPCKHPS   Y1, Y0, Y5
	VUNPCKLPS   Y3, Y2, Y6
	VUNPCKHPS   Y3, Y2, Y7
	VUNPCKLPD   Y6, Y4, Y0
	VUNPCKHPD   Y6, Y4, Y1
	VUNPCKLPD   Y7, Y5, Y2
	VUNPCKHPD   Y7, Y5, Y3
	VADDPS      Y0, Y8, Y8
	VADDPS      Y1, Y8, Y8
	VADDPS      Y2, Y8, Y8
	VADDPS      Y3, Y8, Y8
	ADDQ $16, AX
	ADDQ $128, BX
	DECQ R13
	JNZ  agreeStep

	VADDPS  (DI), Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R9*8), SI
	CMPQ BX, R8
	JNE  agreeNext
	MOVQ DX, BX

agreeNext:
	DECQ CX
	JNZ  agreeGroup
	VZEROUPPER
	RET

// Eq. 5 for ExactMath (softmaxRowsPacked, math.go) is three kernels
// run in turn over a tile of rows: softmaxShift8, expPacked8 in place,
// softmaxScale8. The first and last take eight rows at a time with one
// row per lane, so each row's running maximum and sum see its nh
// entries in softmaxRows' order: entry j of the eight rows is one
// gather (indices r·nh, r < 8), and a per-row result goes back to the
// rows' 8·nh contiguous floats, nh vectors, through rowOf, which names
// the row of each of those floats (VPERMPS).

DATA softmaxIota<>+0(SB)/8, $0x0000000100000000
DATA softmaxIota<>+8(SB)/8, $0x0000000300000002
DATA softmaxIota<>+16(SB)/8, $0x0000000500000004
DATA softmaxIota<>+24(SB)/8, $0x0000000700000006
GLOBL softmaxIota<>(SB), RODATA|NOPTR, $32
DATA softmaxOne<>+0(SB)/4, $1.0
GLOBL softmaxOne<>(SB), RODATA|NOPTR, $4

// func softmaxShift8(out, b []float32, rowOf []int32, nh int)
//
// For each group of eight rows of nh logits: the rows' running maxima m
// (VMAXPS with the logit first is `if v > m { m = v }` in every lane:
// it keeps m when either is NaN and when both are zeros), then
// out = b − m over the rows. len(out) is a multiple of 8·nh; out may
// be b.
//
// DI out (group)  SI b (group)  R9 out end  R8 nh  R12 8·nh·4
// R10 b (at j)    R11 rowOf     AX countdown, then byte offset
// Y15 gather indices  Y13 gather mask  Y0 m  Y1 logits  Y2 rows  Y3 m by row
TEXT ·softmaxShift8(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R9
	LEAQ (DI)(R9*4), R9
	MOVQ b_base+24(FP), SI
	MOVQ rowOf_base+48(FP), R11
	MOVQ nh+72(FP), R8
	MOVQ R8, R12
	SHLQ $5, R12
	VMOVQ        R8, X14
	VPBROADCASTD X14, Y14
	VPMULLD      softmaxIota<>(SB), Y14, Y15

shiftGroup:
	CMPQ DI, R9
	JGE  shiftDone
	VPCMPEQD   Y13, Y13, Y13
	VGATHERDPS Y13, (SI)(Y15*4), Y0
	LEAQ 4(SI), R10
	MOVQ R8, AX
	DECQ AX
	JZ   shiftSub

shiftMax:
	VPCMPEQD   Y13, Y13, Y13
	VGATHERDPS Y13, (R10)(Y15*4), Y1
	VMAXPS     Y0, Y1, Y0
	ADDQ $4, R10
	DECQ AX
	JNZ  shiftMax

shiftSub:
	XORQ AX, AX

shiftSubT:
	VMOVDQU (R11)(AX*1), Y2
	VPERMPS Y0, Y2, Y3
	VMOVUPS (SI)(AX*1), Y1
	VSUBPS  Y3, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  shiftSubT

	ADDQ R12, SI
	ADDQ R12, DI
	JMP  shiftGroup

shiftDone:
	VZEROUPPER
	RET

// func softmaxScale8(out []float32, rowOf []int32, nh int)
//
// For each group of eight rows of nh exponentials: the rows' sums from
// +0 with j ascending (each term the add's first source, as the Go
// loop compiles), then every entry times its row's 1/sum — or, where
// the sum is zero, 1/float32(nh) in its place.
//
// DI out (group)  R9 out end  R8 nh  R12 8·nh·4  R10 out (at j)
// R11 rowOf       AX countdown, then byte offset
// Y15 gather indices  Y13 gather mask  Y12 +0  Y11 1  Y10 1/float32(nh)
// Y0 sums  Y4 sum == 0  Y5 1/sum  Y2 rows  Y3, Y6 those by row
TEXT ·softmaxScale8(SB), NOSPLIT, $0-56
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R9
	LEAQ (DI)(R9*4), R9
	MOVQ rowOf_base+24(FP), R11
	MOVQ nh+48(FP), R8
	MOVQ R8, R12
	SHLQ $5, R12
	VMOVQ        R8, X14
	VPBROADCASTD X14, Y14
	VPMULLD      softmaxIota<>(SB), Y14, Y15
	VXORPS       Y12, Y12, Y12
	VBROADCASTSS softmaxOne<>(SB), Y11
	VCVTDQ2PS    Y14, Y10
	VDIVPS       Y10, Y11, Y10

scaleGroup:
	CMPQ DI, R9
	JGE  scaleDone
	VXORPS Y0, Y0, Y0
	MOVQ DI, R10
	MOVQ R8, AX

scaleSum:
	VPCMPEQD   Y13, Y13, Y13
	VGATHERDPS Y13, (R10)(Y15*4), Y1
	VADDPS     Y0, Y1, Y0
	ADDQ $4, R10
	DECQ AX
	JNZ  scaleSum

	VCMPPS $0, Y12, Y0, Y4
	VDIVPS Y0, Y11, Y5
	XORQ AX, AX

scaleMulT:
	VMOVDQU   (R11)(AX*1), Y2
	VPERMPS   Y5, Y2, Y3
	VPERMPS   Y4, Y2, Y6
	VMOVUPS   (DI)(AX*1), Y1
	VMULPS    Y3, Y1, Y1
	VBLENDVPS Y6, Y10, Y1, Y1
	VMOVUPS   Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  scaleMulT

	ADDQ R12, DI
	JMP  scaleGroup

scaleDone:
	VZEROUPPER
	RET

// expPacked8's constants: package math's own (exp_amd64.s), four
// float64 lanes of each.
#define QUAD(sym, val) \
	DATA sym<>+0(SB)/8, val \
	DATA sym<>+8(SB)/8, val \
	DATA sym<>+16(SB)/8, val \
	DATA sym<>+24(SB)/8, val \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

QUAD(expLog2e, $1.4426950408889634073599246810018920)
QUAD(expLn2u, $0.69314718055966295651160180568695068359375)
QUAD(expLn2l, $0.28235290563031577122588448175013436025525412068e-12)
QUAD(expSixteenth, $0.0625)
QUAD(expC8, $2.4801587301587301587e-5)
QUAD(expC7, $1.9841269841269841270e-4)
QUAD(expC6, $1.3888888888888888889e-3)
QUAD(expC5, $8.3333333333333333333e-3)
QUAD(expC4, $4.1666666666666666667e-2)
QUAD(expC3, $1.6666666666666666667e-1)
QUAD(expHalf, $0.5)
QUAD(expOne, $1.0)
QUAD(expTwo, $2.0)

// |x| ≤ 700 in float32 lanes, and the float64 exponent bias.
DATA expAbs<>+0(SB)/8, $0x7fffffff7fffffff
DATA expAbs<>+8(SB)/8, $0x7fffffff7fffffff
DATA expAbs<>+16(SB)/8, $0x7fffffff7fffffff
DATA expAbs<>+24(SB)/8, $0x7fffffff7fffffff
GLOBL expAbs<>(SB), RODATA|NOPTR, $32
DATA expLimit<>+0(SB)/8, $0x442f0000442f0000
DATA expLimit<>+8(SB)/8, $0x442f0000442f0000
DATA expLimit<>+16(SB)/8, $0x442f0000442f0000
DATA expLimit<>+24(SB)/8, $0x442f0000442f0000
GLOBL expLimit<>(SB), RODATA|NOPTR, $32
DATA expBias<>+0(SB)/8, $0x000003ff000003ff
DATA expBias<>+8(SB)/8, $0x000003ff000003ff
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// One step of the kernel on both halves of a group: x in Y0 and Y1,
// the second operand or the scratch in Y2 and Y3.
#define BOTH(op, mem) \
	op mem, Y0, Y0 \
	op mem, Y1, Y1

#define HORNER(mem) \
	VFMADD213PD mem, Y0, Y2 \
	VFMADD213PD mem, Y1, Y3

#define SQUAREUP \
	VADDPD expTwo<>(SB), Y0, Y2 \
	VADDPD expTwo<>(SB), Y1, Y3 \
	VMULPD Y2, Y0, Y0 \
	VMULPD Y3, Y1, Y1

// func expPacked8(x []float32) int
//
// x[i] = float32(math.Exp(float64(x[i]))) in place, for whole groups of
// eight from the front, until fewer than eight remain or a group holds
// a value outside [−700, 700] or a NaN; returns how many elements it
// did. That range is where package math's archExp runs straight
// through: no overflow, no underflow, no denormal rebuild. The body is
// that function's useFMA branch instruction for instruction on four
// float64 lanes per register (two registers a group): k = round(x·log₂e),
// r = (x − k·ln2u − k·ln2l)/16, the seven-term series by FMA Horner,
// four squarings, ·2^k by building the exponent, rounded to float32
// once at the end. softmaxRowsPacked hands any other group to the
// scalar function, and capsnet enables this kernel only where a probe
// vector agrees with math.Exp at init (expProbe).
//
// AX x  CX len  DX done  BX scratch
// Y0, Y1 x then r then the result  Y2, Y3 scratch  X4/Y4, X5/Y5 k
TEXT ·expPacked8(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), AX
	MOVQ x_len+8(FP), CX
	XORQ DX, DX

expGroup:
	LEAQ 8(DX), BX
	CMPQ BX, CX
	JGT  expDone
	VMOVUPS   (AX)(DX*4), Y0
	VANDPS    expAbs<>(SB), Y0, Y1
	VCMPPS    $0x12, expLimit<>(SB), Y1, Y1
	VMOVMSKPS Y1, BX
	CMPL BX, $0xff
	JNE  expDone

	VEXTRACTF128 $1, Y0, X1
	VCVTPS2PD    X0, Y0
	VCVTPS2PD    X1, Y1
	VMULPD       expLog2e<>(SB), Y0, Y2
	VMULPD       expLog2e<>(SB), Y1, Y3
	VCVTPD2DQY   Y2, X4
	VCVTPD2DQY   Y3, X5
	VCVTDQ2PD    X4, Y2
	VCVTDQ2PD    X5, Y3
	VFNMADD231PD expLn2u<>(SB), Y2, Y0
	VFNMADD231PD expLn2u<>(SB), Y3, Y1
	VFNMADD231PD expLn2l<>(SB), Y2, Y0
	VFNMADD231PD expLn2l<>(SB), Y3, Y1
	BOTH(VMULPD, expSixteenth<>(SB))
	VMOVUPD expC8<>(SB), Y2
	VMOVUPD expC8<>(SB), Y3
	HORNER(expC7<>(SB))
	HORNER(expC6<>(SB))
	HORNER(expC5<>(SB))
	HORNER(expC4<>(SB))
	HORNER(expC3<>(SB))
	HORNER(expHalf<>(SB))
	HORNER(expOne<>(SB))
	VMULPD Y2, Y0, Y0
	VMULPD Y3, Y1, Y1
	SQUAREUP
	SQUAREUP
	SQUAREUP
	VADDPD      expTwo<>(SB), Y0, Y2
	VADDPD      expTwo<>(SB), Y1, Y3
	VFMADD213PD expOne<>(SB), Y2, Y0
	VFMADD213PD expOne<>(SB), Y3, Y1
	VPADDD      expBias<>(SB), X4, X4
	VPADDD      expBias<>(SB), X5, X5
	VPMOVZXDQ   X4, Y4
	VPMOVZXDQ   X5, Y5
	VPSLLQ      $52, Y4, Y4
	VPSLLQ      $52, Y5, Y5
	VMULPD      Y4, Y0, Y0
	VMULPD      Y5, Y1, Y1
	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VMOVUPS X0, (AX)(DX*4)
	VMOVUPS X1, 16(AX)(DX*4)
	ADDQ $8, DX
	JMP  expGroup

expDone:
	VZEROUPPER
	MOVQ DX, ret+24(FP)
	RET

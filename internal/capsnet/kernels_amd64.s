#include "textflag.h"

// Packed micro-kernels of predictionVectorsRange (Eq. 1) and
// aggregateRange (Eq. 2), see kernels.go. A vector lane is one of the
// ch contiguous output elements of a capsule, so every lane is one of
// the Go loops' independent sums: VMULPS then VADDPS (never FMA), the
// reduction index ascending, the running sum as the add's first
// source. Each output element therefore goes through exactly the
// rounded operations the Go kernels give it. All three require
// ch%8 == 0.

// func cpuHasAVX2() bool
//
// CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1–2 (the OS saves XMM and YMM
// state), CPUID.7.0:EBX AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET

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

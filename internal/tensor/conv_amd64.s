#include "textflag.h"

// Packed micro-kernels of Conv2DInto (see conv.go): AVX2 on YMM
// registers, and convTile8x32 on AVX-512's ZMM. A vector lane is
// one output position, so every lane is one of the Go tile's
// independent sums: VMULPS then VADDPS (never FMA), j ascending, the
// running sum as the add's first source. Each output therefore goes
// through exactly the rounded operations dot2x3 gives it.

// laneMask<> + 4·(8−lanes) is a VMASKMOVPS mask with the first `lanes`
// lanes set.
DATA laneMask<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask<>+16(SB)/8, $0xffffffffffffffff
DATA laneMask<>+24(SB)/8, $0xffffffffffffffff
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// One reduction step of channel row `mem` into accumulator `acc`:
// broadcast the weight, multiply by the 8 positions in Y8, add.
#define MULADD(mem, acc) \
	VBROADCASTSS mem, Y9 \
	VMULPS       Y9, Y8, Y9 \
	VADDPS       Y9, acc, acc

// Eight channel rows at BX+{0,1,2}·SI, R8+{0,1,2}·SI, R9+{0,1}·SI.
#define STEP8 \
	MULADD((BX), Y0) \
	MULADD((BX)(SI*1), Y1) \
	MULADD((BX)(SI*2), Y2) \
	MULADD((R8), Y3) \
	MULADD((R8)(SI*1), Y4) \
	MULADD((R8)(SI*2), Y5) \
	MULADD((R9), Y6) \
	MULADD((R9)(SI*1), Y7) \
	ADDQ $4, BX \
	ADDQ $4, R8 \
	ADDQ $4, R9 \
	ADDQ DX, CX

// func convTile8x8(acc, w, cols []float32, n, kk, kc, lanes int, first bool)
//
// acc[c·n + p] (+)= Σ_{j<kc} w[c·kk + j] · cols[j·n + p] for channels
// c < 8 and positions p < lanes ≤ 8. first starts the sums at +0
// instead of loading them. Lanes ≥ `lanes` are neither loaded nor
// stored.
TEXT ·convTile8x8(SB), NOSPLIT, $0-105
	MOVQ acc_base+0(FP), AX
	MOVQ w_base+24(FP), BX
	MOVQ cols_base+48(FP), CX
	MOVQ n+72(FP), DX
	MOVQ kk+80(FP), SI
	MOVQ kc+88(FP), DI
	MOVQ lanes+96(FP), R10
	SHLQ $2, DX
	SHLQ $2, SI
	LEAQ (SI)(SI*2), R11
	LEAQ (BX)(R11*1), R8
	LEAQ (R8)(R11*1), R9
	LEAQ (DX)(DX*2), R11             // 3 acc rows

	LEAQ laneMask<>(SB), R12
	NEGQ R10
	VMOVDQU 32(R12)(R10*4), Y10

	MOVBLZX first+104(FP), R12
	TESTQ   R12, R12
	JZ      load8
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	JMP     run8

load8:
	LEAQ       (AX)(R11*1), R12
	VMASKMOVPS (AX), Y10, Y0
	VMASKMOVPS (AX)(DX*1), Y10, Y1
	VMASKMOVPS (AX)(DX*2), Y10, Y2
	VMASKMOVPS (R12), Y10, Y3
	VMASKMOVPS (R12)(DX*1), Y10, Y4
	VMASKMOVPS (R12)(DX*2), Y10, Y5
	LEAQ       (R12)(R11*1), R12
	VMASKMOVPS (R12), Y10, Y6
	VMASKMOVPS (R12)(DX*1), Y10, Y7

run8:
	CMPQ R10, $-8
	JNE  edge8

full8:
	VMOVUPS (CX), Y8
	STEP8
	DECQ    DI
	JNZ     full8
	JMP     store8

edge8:
	VMASKMOVPS (CX), Y10, Y8
	STEP8
	DECQ       DI
	JNZ        edge8

store8:
	LEAQ       (AX)(R11*1), R12
	VMASKMOVPS Y0, Y10, (AX)
	VMASKMOVPS Y1, Y10, (AX)(DX*1)
	VMASKMOVPS Y2, Y10, (AX)(DX*2)
	VMASKMOVPS Y3, Y10, (R12)
	VMASKMOVPS Y4, Y10, (R12)(DX*1)
	VMASKMOVPS Y5, Y10, (R12)(DX*2)
	LEAQ       (R12)(R11*1), R12
	VMASKMOVPS Y6, Y10, (R12)
	VMASKMOVPS Y7, Y10, (R12)(DX*1)
	VZEROUPPER
	RET

// func convTile1x8(acc, w, cols []float32, n, kc, lanes int, first bool)
//
// The Cout%8 edge: convTile8x8 for a single channel.
TEXT ·convTile1x8(SB), NOSPLIT, $0-97
	MOVQ acc_base+0(FP), AX
	MOVQ w_base+24(FP), BX
	MOVQ cols_base+48(FP), CX
	MOVQ n+72(FP), DX
	MOVQ kc+80(FP), DI
	MOVQ lanes+88(FP), R10
	SHLQ $2, DX

	LEAQ laneMask<>(SB), R12
	NEGQ R10
	VMOVDQU 32(R12)(R10*4), Y10

	VXORPS  Y0, Y0, Y0
	MOVBLZX first+96(FP), R12
	TESTQ   R12, R12
	JNZ     loop1
	VMASKMOVPS (AX), Y10, Y0

loop1:
	VMASKMOVPS (CX), Y10, Y8
	MULADD((BX), Y0)
	ADDQ $4, BX
	ADDQ DX, CX
	DECQ DI
	JNZ  loop1

	VMASKMOVPS Y0, Y10, (AX)
	VZEROUPPER
	RET

// One reduction step of channel row `mem` into the two halves
// acc0, acc1 of a 32-position row: broadcast the weight, multiply by
// the positions in Z16 and Z17, add.
#define MULADD32(mem, acc0, acc1) \
	VBROADCASTSS mem, Z18 \
	VMULPS       Z18, Z16, Z19 \
	VADDPS       Z19, acc0, acc0 \
	VMULPS       Z18, Z17, Z20 \
	VADDPS       Z20, acc1, acc1

// func convTile8x32(acc, w, cols []float32, n, kk, kc int, first bool)
//
// convTile8x8 on AVX-512, 32 positions wide and never masked:
// acc[c·n + p] (+)= Σ_{j<kc} w[c·kk + j] · cols[j·n + p] for channels
// c < 8 and positions p < 32, channel c in Z(2c) and Z(2c+1).
TEXT ·convTile8x32(SB), NOSPLIT, $0-97
	MOVQ acc_base+0(FP), AX
	MOVQ w_base+24(FP), BX
	MOVQ cols_base+48(FP), CX
	MOVQ n+72(FP), DX
	MOVQ kk+80(FP), SI
	MOVQ kc+88(FP), DI
	SHLQ $2, DX
	SHLQ $2, SI
	LEAQ (SI)(SI*2), R11
	LEAQ (BX)(R11*1), R8
	LEAQ (R8)(R11*1), R9
	LEAQ (DX)(DX*2), R11             // 3 acc rows

	MOVBLZX first+96(FP), R12
	TESTQ   R12, R12
	JZ      load32
	VPXORD  Z0, Z0, Z0
	VPXORD  Z1, Z1, Z1
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	VPXORD  Z4, Z4, Z4
	VPXORD  Z5, Z5, Z5
	VPXORD  Z6, Z6, Z6
	VPXORD  Z7, Z7, Z7
	VPXORD  Z8, Z8, Z8
	VPXORD  Z9, Z9, Z9
	VPXORD  Z10, Z10, Z10
	VPXORD  Z11, Z11, Z11
	VPXORD  Z12, Z12, Z12
	VPXORD  Z13, Z13, Z13
	VPXORD  Z14, Z14, Z14
	VPXORD  Z15, Z15, Z15
	JMP     run32

load32:
	LEAQ    (AX)(R11*1), R12
	VMOVUPS (AX), Z0
	VMOVUPS 64(AX), Z1
	VMOVUPS (AX)(DX*1), Z2
	VMOVUPS 64(AX)(DX*1), Z3
	VMOVUPS (AX)(DX*2), Z4
	VMOVUPS 64(AX)(DX*2), Z5
	VMOVUPS (R12), Z6
	VMOVUPS 64(R12), Z7
	VMOVUPS (R12)(DX*1), Z8
	VMOVUPS 64(R12)(DX*1), Z9
	VMOVUPS (R12)(DX*2), Z10
	VMOVUPS 64(R12)(DX*2), Z11
	LEAQ    (R12)(R11*1), R12
	VMOVUPS (R12), Z12
	VMOVUPS 64(R12), Z13
	VMOVUPS (R12)(DX*1), Z14
	VMOVUPS 64(R12)(DX*1), Z15

run32:
	VMOVUPS (CX), Z16
	VMOVUPS 64(CX), Z17
	MULADD32((BX), Z0, Z1)
	MULADD32((BX)(SI*1), Z2, Z3)
	MULADD32((BX)(SI*2), Z4, Z5)
	MULADD32((R8), Z6, Z7)
	MULADD32((R8)(SI*1), Z8, Z9)
	MULADD32((R8)(SI*2), Z10, Z11)
	MULADD32((R9), Z12, Z13)
	MULADD32((R9)(SI*1), Z14, Z15)
	ADDQ $4, BX
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ DX, CX
	DECQ DI
	JNZ  run32

	LEAQ    (AX)(R11*1), R12
	VMOVUPS Z0, (AX)
	VMOVUPS Z1, 64(AX)
	VMOVUPS Z2, (AX)(DX*1)
	VMOVUPS Z3, 64(AX)(DX*1)
	VMOVUPS Z4, (AX)(DX*2)
	VMOVUPS Z5, 64(AX)(DX*2)
	VMOVUPS Z6, (R12)
	VMOVUPS Z7, 64(R12)
	VMOVUPS Z8, (R12)(DX*1)
	VMOVUPS Z9, 64(R12)(DX*1)
	VMOVUPS Z10, (R12)(DX*2)
	VMOVUPS Z11, 64(R12)(DX*2)
	LEAQ    (R12)(R11*1), R12
	VMOVUPS Z12, (R12)
	VMOVUPS Z13, 64(R12)
	VMOVUPS Z14, (R12)(DX*1)
	VMOVUPS Z15, 64(R12)(DX*1)
	VZEROUPPER
	RET

// func lowerGather8(cols, src, pos []float32, taps []int32, n int)
//
// The transposed im2col of one reduction block (conv.go's lowerBlock):
// cols[t·n + p] = src[taps[t] + pos[p]] for taps t < len(taps) and
// positions p < n, where pos holds int32 offsets (as float32 bits) and
// is padded to a multiple of 8 entries. One VGATHERDPS per 8
// positions; the last n%8 lanes are masked in the gather and in the
// store, so they neither load nor store. The gather is the only packed
// lowering: a 16-lane ZMM gather, alternated with this one on the
// Sapphire Rapids dev host, ran no faster.
TEXT ·lowerGather8(SB), NOSPLIT, $0-104
	MOVQ cols_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ pos_base+48(FP), R8
	MOVQ taps_base+72(FP), R9
	MOVQ taps_len+80(FP), R10
	MOVQ n+96(FP), DX
	MOVQ DX, R12
	ANDQ $7, R12                     // lanes of the tail vector
	SHRQ $3, DX                      // full vectors a row
	LEAQ laneMask<>(SB), AX
	MOVQ R12, CX
	NEGQ CX
	VMOVDQU 32(AX)(CX*4), Y10
	TESTQ R10, R10
	JZ    done8g

tap8:
	MOVLQSX (R9), AX
	LEAQ    (SI)(AX*4), BX
	MOVQ    R8, CX
	MOVQ    DX, R11
	TESTQ   R11, R11
	JZ      tail8

full8g:
	VMOVDQU    (CX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERDPS Y2, (BX)(Y1*4), Y0
	VMOVUPS    Y0, (DI)
	ADDQ       $32, CX
	ADDQ       $32, DI
	DECQ       R11
	JNZ        full8g

tail8:
	TESTQ      R12, R12
	JZ         next8
	VMOVDQU    (CX), Y1
	VMOVDQU    Y10, Y2
	VGATHERDPS Y2, (BX)(Y1*4), Y0
	VMASKMOVPS Y0, Y10, (DI)
	LEAQ       (DI)(R12*4), DI

next8:
	ADDQ $4, R9
	DECQ R10
	JNZ  tap8

done8g:
	VZEROUPPER
	RET

// func packedMulAddPeak(steps int)
//
// What convTile8x8's arithmetic costs with nothing to load: steps ×
// (8 VMULPS + 8 VADDPS) on register operands, the eight sums
// independent. BenchmarkPackedMulAddPeak reports it as this core's
// packed non-fused ceiling.
TEXT ·packedMulAddPeak(SB), NOSPLIT, $0-8
	MOVQ steps+0(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9

peak:
	VMULPS Y9, Y8, Y10
	VADDPS Y10, Y0, Y0
	VMULPS Y9, Y8, Y11
	VADDPS Y11, Y1, Y1
	VMULPS Y9, Y8, Y12
	VADDPS Y12, Y2, Y2
	VMULPS Y9, Y8, Y13
	VADDPS Y13, Y3, Y3
	VMULPS Y9, Y8, Y10
	VADDPS Y10, Y4, Y4
	VMULPS Y9, Y8, Y11
	VADDPS Y11, Y5, Y5
	VMULPS Y9, Y8, Y12
	VADDPS Y12, Y6, Y6
	VMULPS Y9, Y8, Y13
	VADDPS Y13, Y7, Y7
	DECQ   DI
	JNZ    peak
	VZEROUPPER
	RET

// func packedMulAddPeak512(steps int)
//
// packedMulAddPeak on ZMM registers: what convTile8x32's arithmetic
// costs with nothing to load, steps × (8 VMULPS + 8 VADDPS) of 16
// lanes each.
TEXT ·packedMulAddPeak512(SB), NOSPLIT, $0-8
	MOVQ   steps+0(FP), DI
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9

peak512:
	VMULPS Z9, Z8, Z10
	VADDPS Z10, Z0, Z0
	VMULPS Z9, Z8, Z11
	VADDPS Z11, Z1, Z1
	VMULPS Z9, Z8, Z12
	VADDPS Z12, Z2, Z2
	VMULPS Z9, Z8, Z13
	VADDPS Z13, Z3, Z3
	VMULPS Z9, Z8, Z10
	VADDPS Z10, Z4, Z4
	VMULPS Z9, Z8, Z11
	VADDPS Z11, Z5, Z5
	VMULPS Z9, Z8, Z12
	VADDPS Z12, Z6, Z6
	VMULPS Z9, Z8, Z13
	VADDPS Z13, Z7, Z7
	DECQ   DI
	JNZ    peak512
	VZEROUPPER
	RET

// One 128-byte step of streamRead: four vectors into four independent
// sums.
#define SUM128 \
	VADDPS (AX), Y0, Y0 \
	VADDPS 32(AX), Y1, Y1 \
	VADDPS 64(AX), Y2, Y2 \
	VADDPS 96(AX), Y3, Y3 \
	ADDQ   $128, AX

// The lanes of Y0–Y3 summed into X0.
#define SUMLANES \
	VADDPS       Y1, Y0, Y0 \
	VADDPS       Y3, Y2, Y2 \
	VADDPS       Y2, Y0, Y0 \
	VEXTRACTF128 $1, Y0, X1 \
	VADDPS       X1, X0, X0 \
	VHADDPS      X0, X0, X0 \
	VHADDPS      X0, X0, X0

// func streamRead(x []float32) float32
//
// What a kernel that reads its operand once, front to back, costs
// with nothing else to do: the sum of x (len(x)%32 == 0) in eight
// lanes of four independent sums. BenchmarkStreamRead reports it as
// this core's read bandwidth for a stream the hardware prefetcher
// alone runs ahead of.
TEXT ·streamRead(SB), NOSPLIT, $0-28
	MOVQ   x_base+0(FP), AX
	MOVQ   x_len+8(FP), CX
	SHRQ   $5, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

stream:
	SUM128
	DECQ CX
	JNZ  stream
	SUMLANES
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func streamReadPrefetch(x []float32) float32
//
// streamRead with a PREFETCHT0 for each 64-byte line 4 KB ahead of the
// sum, the distance internal/capsnet's routing kernels use (PFDIST in
// kernels_amd64.s).
TEXT ·streamReadPrefetch(SB), NOSPLIT, $0-28
	MOVQ   x_base+0(FP), AX
	MOVQ   x_len+8(FP), CX
	SHRQ   $5, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

streamPF:
	PREFETCHT0 4096(AX)
	PREFETCHT0 4160(AX)
	SUM128
	DECQ CX
	JNZ  streamPF
	SUMLANES
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

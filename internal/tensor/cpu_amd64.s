#include "textflag.h"

// func cpuPacked() uint8
//
// 0, packedAVX2, packedFMA or packedAVX512 (cpu.go). CPUID.1:ECX
// OSXSAVE+AVX, XCR0 bits 1–2 (the OS saves XMM and YMM state),
// CPUID.7.0:EBX AVX2; then CPUID.1:ECX FMA, which counts only on top of
// AVX2; then CPUID.7.0:EBX AVX512F with XCR0 bits 5–7 (opmask and ZMM
// state saved), which counts only on top of FMA.
TEXT ·cpuPacked(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	MOVL AX, R9
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, R10
	SHRL $5, BX
	ANDL $1, BX
	SHRL $12, R8
	ANDL BX, R8
	ADDL R8, BX
	ANDL $0xe0, R9
	CMPL R9, $0xe0
	JNE  store
	SHRL $16, R10
	ANDL $1, R10
	MOVL BX, R11
	SHRL $1, R11
	ANDL R11, R10
	ADDL R10, BX
store:
	MOVB BX, ret+0(FP)
no:
	RET

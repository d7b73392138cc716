//go:build !purego

#include "textflag.h"
#include "aes_amd64.h"

// func encryptDM8(xk *[176]byte, lanes *[8]Label)
//
// Davies–Meyer over 8 independent 16-byte blocks with the expanded
// fixed-key schedule xk: lanes[i] = AES(xk, lanes[i]) XOR lanes[i]
// (DM8, aes_amd64.h).
TEXT ·encryptDM8(SB), NOSPLIT, $0-16
	MOVQ xk+0(FP), AX
	MOVQ lanes+8(FP), BX
	DM8(BX)
	RET

// func cpuid1() uint32
//
// ECX of CPUID leaf 1: bit 9 is SSSE3, bit 25 the AES-NI instruction set.
TEXT ·cpuid1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

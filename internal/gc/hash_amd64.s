//go:build !purego

#include "textflag.h"
#include "aes_amd64.h"

// func encryptDM8(xk *[176]byte, lanes *[8]Label)
//
// Davies–Meyer over 8 independent 16-byte blocks with the expanded
// fixed-key schedule xk: lanes[i] = AES(xk, lanes[i]) XOR lanes[i] (DM8,
// aes_amd64.h).
TEXT ·encryptDM8(SB), NOSPLIT, $0-16
	MOVQ xk+0(FP), AX
	MOVQ lanes+8(FP), BX
	DM8(BX)
	RET

// LANEROUND applies round r to the 8 blocks in X0–X7, block i under round
// key r of schedule i (at off = 16·r within it), each key passing through
// X8.
#define LANEROUND(op, off) \
	MOVOU off(AX), X8         \
	op    X8, X0              \
	MOVOU (176+off)(AX), X8   \
	op    X8, X1              \
	MOVOU (352+off)(AX), X8   \
	op    X8, X2              \
	MOVOU (528+off)(AX), X8   \
	op    X8, X3              \
	MOVOU (704+off)(AX), X8   \
	op    X8, X4              \
	MOVOU (880+off)(AX), X8   \
	op    X8, X5              \
	MOVOU (1056+off)(AX), X8  \
	op    X8, X6              \
	MOVOU (1232+off)(AX), X8  \
	op    X8, X7

// func encrypt8(xk *[8][176]byte, lanes *[8]Label)
//
// lanes[i] = AES(xk[i], lanes[i]): eight blocks under eight expanded
// schedules, interleaved round by round as DM8 interleaves eight blocks
// under one.
TEXT ·encrypt8(SB), NOSPLIT, $0-16
	MOVQ  xk+0(FP), AX
	MOVQ  lanes+8(FP), BX
	MOVOU 0(BX), X0
	MOVOU 16(BX), X1
	MOVOU 32(BX), X2
	MOVOU 48(BX), X3
	MOVOU 64(BX), X4
	MOVOU 80(BX), X5
	MOVOU 96(BX), X6
	MOVOU 112(BX), X7
	LANEROUND(PXOR, 0)
	LANEROUND(AESENC, 16)
	LANEROUND(AESENC, 32)
	LANEROUND(AESENC, 48)
	LANEROUND(AESENC, 64)
	LANEROUND(AESENC, 80)
	LANEROUND(AESENC, 96)
	LANEROUND(AESENC, 112)
	LANEROUND(AESENC, 128)
	LANEROUND(AESENC, 144)
	LANEROUND(AESENCLAST, 160)
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	MOVOU X2, 32(BX)
	MOVOU X3, 48(BX)
	MOVOU X4, 64(BX)
	MOVOU X5, 80(BX)
	MOVOU X6, 96(BX)
	MOVOU X7, 112(BX)
	RET

// NEXTKEY replaces the AES-128 round key in K with the next one of the
// schedule, with T and U as scratch, X8 holding rotword and X9 the round
// constant in every word. PSHUFB puts RotWord(w3) in every word of T and
// AESENCLAST, whose ShiftRows moves nothing in a block of four equal
// words, makes it SubWord(RotWord(w3)) ⊕ rcon; three shifted XORs give
// each word of the new key the XOR of the old words up to its own. (This
// is AESKEYGENASSIST's work, which runs at a fraction of AESENCLAST's
// throughput.) One key's rounds are a chain, so the routines below expand
// four keys side by side.
#define NEXTKEY(K, T, U) \
	MOVOU      K, T  \
	PSHUFB     X8, T \
	AESENCLAST X9, T \
	MOVOU      K, U  \
	PSLLO      $4, U \
	PXOR       U, K  \
	PSLLO      $4, U \
	PXOR       U, K  \
	PSLLO      $4, U \
	PXOR       U, K  \
	PXOR       T, K

// NEXT4 advances the four round keys in X0–X3 to round key r, at
// off = 16·(r-1) in rcon.
#define NEXT4(off) \
	MOVOU rcon<>+off(SB), X9 \
	NEXTKEY(X0, X10, X11) \
	NEXTKEY(X1, X12, X13) \
	NEXTKEY(X2, X14, X15) \
	NEXTKEY(X3, X10, X11)

DATA rotword<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotword<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotword<>(SB), RODATA|NOPTR, $16

DATA rcon<>+0(SB)/8, $0x0000000100000001
DATA rcon<>+8(SB)/8, $0x0000000100000001
DATA rcon<>+16(SB)/8, $0x0000000200000002
DATA rcon<>+24(SB)/8, $0x0000000200000002
DATA rcon<>+32(SB)/8, $0x0000000400000004
DATA rcon<>+40(SB)/8, $0x0000000400000004
DATA rcon<>+48(SB)/8, $0x0000000800000008
DATA rcon<>+56(SB)/8, $0x0000000800000008
DATA rcon<>+64(SB)/8, $0x0000001000000010
DATA rcon<>+72(SB)/8, $0x0000001000000010
DATA rcon<>+80(SB)/8, $0x0000002000000020
DATA rcon<>+88(SB)/8, $0x0000002000000020
DATA rcon<>+96(SB)/8, $0x0000004000000040
DATA rcon<>+104(SB)/8, $0x0000004000000040
DATA rcon<>+112(SB)/8, $0x0000008000000080
DATA rcon<>+120(SB)/8, $0x0000008000000080
DATA rcon<>+128(SB)/8, $0x0000001b0000001b
DATA rcon<>+136(SB)/8, $0x0000001b0000001b
DATA rcon<>+144(SB)/8, $0x0000003600000036
DATA rcon<>+152(SB)/8, $0x0000003600000036
GLOBL rcon<>(SB), RODATA|NOPTR, $160

// STORE4 stores X0–X3 as round key r of four consecutive schedules at DI,
// at off = 16·r.
#define STORE4(off) \
	MOVOU X0, off(DI)     \
	MOVOU X1, (176+off)(DI) \
	MOVOU X2, (352+off)(DI) \
	MOVOU X3, (528+off)(DI)

// EXPAND4 expands the four keys in X0–X3 into the schedules at DI.
#define EXPAND4 \
	STORE4(0)                     \
	NEXT4(0) \
	STORE4(16)  \
	NEXT4(16) \
	STORE4(32)  \
	NEXT4(32) \
	STORE4(48)  \
	NEXT4(48) \
	STORE4(64)  \
	NEXT4(64) \
	STORE4(80)  \
	NEXT4(80) \
	STORE4(96)  \
	NEXT4(96) \
	STORE4(112) \
	NEXT4(112) \
	STORE4(128) \
	NEXT4(128) \
	STORE4(144) \
	NEXT4(144) \
	STORE4(160)

// func expandKeys(keys *Label, n int, xk *[176]byte)
//
// The 11 AES-128 encryption round keys of each of the n keys at keys, in
// the order DM8 and encrypt8 read them, into n consecutive 176-byte schedules at xk.
// A run of fewer than four keys is expanded with copies of its last key
// in the spare lanes, into the frame, and copied out.
TEXT ·expandKeys(SB), $704-24
	MOVQ  keys+0(FP), SI
	MOVQ  n+8(FP), CX
	MOVQ  xk+16(FP), DI
	MOVOU rotword<>(SB), X8

four:
	CMPQ  CX, $4
	JL    tail
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	EXPAND4
	ADDQ  $64, SI
	ADDQ  $704, DI
	SUBQ  $4, CX
	JMP   four

tail:
	TESTQ CX, CX
	JZ    done
	// Load the last keys into X0…, repeat the last of them, expand
	// into the frame and copy out the schedules that belong to keys.
	MOVOU 0(SI), X0
	MOVOU X0, X1
	MOVOU X0, X2
	CMPQ  CX, $2
	JL    one
	MOVOU 16(SI), X1
	MOVOU X1, X2
	CMPQ  CX, $3
	JL    one
	MOVOU 32(SI), X2

one:
	MOVOU X2, X3
	MOVQ  DI, R8
	LEAQ  0(SP), DI
	EXPAND4
	// Copy CX·176 bytes from the frame to R8, 16 at a time.
	IMULQ $11, CX
	LEAQ  0(SP), SI

copy:
	MOVOU (SI), X0
	MOVOU X0, (R8)
	ADDQ  $16, SI
	ADDQ  $16, R8
	DECQ  CX
	JNZ   copy

done:
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

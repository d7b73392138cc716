//go:build !purego

#include "textflag.h"
#include "aes_amd64.h"

// The assembly level kernel: batch.go's garbleANDs, evalANDs and freeSpan
// over the same span, with the same bytes written to the same places. A
// label is gathered, doubled (DBL), tweaked and combined in XMM registers;
// only key blocks, hashes and per-instance records pass through the frame.
// It trusts what the Go kernel trusts: a checked schedule's wire ids and a
// table block prepare sized.
//
// Each AND routine walks n gates from gates in (gate, sample) order and
// fills waves of the 8 hash lanes, one kind of instance per wave: 2 full
// ANDs a wave when garbling (A0, A0⊕R, B0, B0⊕R), 4 half ANDs (B0, B0⊕R);
// 4 full ANDs when evaluating (A, B), 8 half ANDs (B). A wave's key blocks
// go to the lanes in the frame, its instances' label pointers to one
// record each; DM8 hashes the lanes in place and the combine walks the
// records. A partial last wave hashes all 8 lanes and combines only its
// own records. No label bit is read through a branch: a permute bit
// becomes an all-ones or all-zero mask (MASK).
//
// Registers across a routine:
//	SI  the gate of the current instance, CX the end of the gates
//	DX  b·16, R8 s·16 for the current sample s
//	R9  the gate's tweak t = 2·(gidBase+i), R10 the sample's ordinal first+s
//	R11 the next ciphertext of the table
//	R12, R13, BX  the gate's A, B and Out labels at sample 0
//	R14 the fill offset of the wave's next instance, DI the combine's
//	AX  scratch, and the round keys during DM8
//	X12 the evaluator half's tweak bit, X13 the byte-reversal mask,
//	X14 the doubling's carry constants
//
// Frame: the 8 lanes at 0(SP), 32-byte records (a, b, out, R pointers) at
// 128(SP), the label array's base at 384(SP).

DATA bswap<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+8(SB)/8, $0x0001020304050607
GLOBL bswap<>(SB), RODATA|NOPTR, $16

DATA dblc<>+0(SB)/8, $0x87
DATA dblc<>+8(SB)/8, $1
GLOBL dblc<>(SB), RODATA|NOPTR, $16

DATA one<>+0(SB)/8, $1
DATA one<>+8(SB)/8, $0
GLOBL one<>(SB), RODATA|NOPTR, $16

// DBL doubles the label in x, as dbl does, with t as scratch: byte-swapped,
// the label is the polynomial as one little-endian 128-bit integer, shifted
// left a bit per quadword; bit 63 carries into bit 64 and bit 127 folds
// back as 0x87.
#define DBL(x, t) \
	PSHUFB X13, x       \
	PSHUFD $0x13, x, t  \
	PSRAL  $31, t       \
	PAND   X14, t       \
	PADDQ  x, x         \
	PXOR   t, x         \
	PSHUFB X13, x

// MASK turns the label in x into all ones if its permute bit is set, all
// zeros if not.
#define MASK(x) \
	PSLLQ  $63, x       \
	PSRAL  $31, x       \
	PSHUFD $0x55, x, x

// TWEAK sets x to the tweak block (t, o) of the current instance.
#define TWEAK(x, tmp) \
	MOVQ R9, x          \
	MOVQ R10, tmp       \
	PUNPCKLQDQ tmp, x

// LOADGATE points R12, R13 and BX at the current gate's A, B and Out
// labels of sample 0.
#define LOADGATE \
	MOVL  4(SI), R12    \
	IMULQ DX, R12       \
	ADDQ  384(SP), R12  \
	MOVL  8(SI), R13    \
	IMULQ DX, R13       \
	ADDQ  384(SP), R13  \
	MOVL  12(SI), BX    \
	IMULQ DX, BX        \
	ADDQ  384(SP), BX

// RECORD stores the current instance's label pointers at off(SP)(R14*scale).
#define RECORD(off, scale) \
	LEAQ (R12)(R8*1), AX       \
	MOVQ AX, off(SP)(R14*scale)   \
	LEAQ (R13)(R8*1), AX       \
	MOVQ AX, off+8(SP)(R14*scale) \
	LEAQ (BX)(R8*1), AX        \
	MOVQ AX, off+16(SP)(R14*scale)

// SETUP loads the constants, points CX at the end of the gates and
// reads the first gate. The arguments are already in SI, CX (n), DX (b),
// R9, R10, R11 and AX (labels).
#define SETUP \
	MOVQ   AX, 384(SP)   \
	SHLQ   $4, CX        \
	ADDQ   SI, CX        \
	SHLQ   $4, DX        \
	XORL   R8, R8        \
	XORL   R14, R14      \
	MOVOU  one<>(SB), X12   \
	MOVOU  bswap<>(SB), X13 \
	MOVOU  dblc<>(SB), X14  \
	LOADGATE

// func garbleFull(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
TEXT ·garbleFull(SB), NOSPLIT, $392-72
	MOVQ labels+0(FP), AX
	MOVQ gates+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ t+32(FP), R9
	MOVQ first+40(FP), R10
	MOVQ table+48(FP), R11
	TESTQ CX, CX
	JEQ   gf_done
	SETUP

gf_fill:
	// A0, A0⊕R under t; B0, B0⊕R under t+1. 2R[s] is in X7.
	MOVQ  r2+56(FP), AX
	MOVOU (AX)(R8*1), X7
	TWEAK(X2, X3)
	MOVOU (R12)(R8*1), X0
	DBL(X0, X1)
	PXOR  X2, X0
	MOVOU X0, 0(SP)(R14*2)
	PXOR  X7, X0
	MOVOU X0, 16(SP)(R14*2)
	MOVOU (R13)(R8*1), X0
	DBL(X0, X1)
	PXOR  X2, X0
	PXOR  X12, X0
	MOVOU X0, 32(SP)(R14*2)
	PXOR  X7, X0
	MOVOU X0, 48(SP)(R14*2)
	RECORD(128, 1)
	MOVQ  inv+64(FP), AX
	ADDQ  R8, AX
	MOVQ  AX, 152(SP)(R14*1)
	ADDQ  $32, R14

	// Next instance.
	ADDQ $16, R8
	INCQ R10
	CMPQ R8, DX
	JNE  gf_same
	XORL R8, R8
	MOVQ first+40(FP), R10
	ADDQ $2, R9
	ADDQ $16, SI
	CMPQ SI, CX
	JEQ  gf_hash
	LOADGATE
gf_same:
	CMPQ R14, $64
	JNE  gf_fill

gf_hash:
	LEAQ ·fixedRoundKeys(SB), AX
	DM8(SP)
	XORL DI, DI

gf_comb:
	// TG = H(A0) ⊕ H(A1) ⊕ pb·R, W_G = H(A0) ⊕ pa·TG,
	// TE = H(B0) ⊕ H(B1) ⊕ A0, out = W_G ⊕ H(B0) ⊕ pb·(H(B0) ⊕ H(B1)).
	MOVOU 0(SP)(DI*2), X0
	MOVOU 16(SP)(DI*2), X1
	MOVOU 32(SP)(DI*2), X2
	MOVOU 48(SP)(DI*2), X3
	MOVQ  128(SP)(DI*1), AX
	MOVOU (AX), X4
	MOVOU X4, X5
	MASK(X5)
	MOVQ  136(SP)(DI*1), AX
	MOVOU (AX), X6
	MASK(X6)
	MOVQ  152(SP)(DI*1), AX
	MOVOU (AX), X7
	PAND  X6, X7
	PXOR  X0, X7
	PXOR  X1, X7
	MOVOU X7, 0(R11)
	PAND  X5, X7
	PXOR  X0, X7
	MOVOU X2, X8
	PXOR  X3, X8
	PXOR  X8, X4
	MOVOU X4, 16(R11)
	PAND  X6, X8
	PXOR  X2, X8
	PXOR  X7, X8
	MOVQ  144(SP)(DI*1), AX
	MOVOU X8, (AX)
	ADDQ  $32, R11
	ADDQ  $32, DI
	CMPQ  DI, R14
	JNE   gf_comb

	XORL R14, R14
	CMPQ SI, CX
	JNE  gf_fill
gf_done:
	RET

// func garbleHalf(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
TEXT ·garbleHalf(SB), NOSPLIT, $392-72
	MOVQ labels+0(FP), AX
	MOVQ gates+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ t+32(FP), R9
	MOVQ first+40(FP), R10
	MOVQ table+48(FP), R11
	TESTQ CX, CX
	JEQ   gh_done
	SETUP

gh_fill:
	// B0, B0⊕R under t+1.
	MOVQ  r2+56(FP), AX
	MOVOU (AX)(R8*1), X7
	TWEAK(X2, X3)
	MOVOU (R13)(R8*1), X0
	DBL(X0, X1)
	PXOR  X2, X0
	PXOR  X12, X0
	MOVOU X0, 0(SP)(R14*1)
	PXOR  X7, X0
	MOVOU X0, 16(SP)(R14*1)
	RECORD(128, 1)
	ADDQ  $32, R14

	ADDQ $16, R8
	INCQ R10
	CMPQ R8, DX
	JNE  gh_same
	XORL R8, R8
	MOVQ first+40(FP), R10
	ADDQ $2, R9
	ADDQ $16, SI
	CMPQ SI, CX
	JEQ  gh_hash
	LOADGATE
gh_same:
	CMPQ R14, $128
	JNE  gh_fill

gh_hash:
	LEAQ ·fixedRoundKeys(SB), AX
	DM8(SP)
	XORL DI, DI

gh_comb:
	// TE = H(B0) ⊕ H(B1) ⊕ A0, out = H(B0) ⊕ pb·(H(B0) ⊕ H(B1)).
	MOVOU 0(SP)(DI*1), X0
	MOVOU 16(SP)(DI*1), X1
	PXOR  X0, X1
	MOVQ  128(SP)(DI*1), AX
	MOVOU (AX), X4
	PXOR  X1, X4
	MOVOU X4, 0(R11)
	MOVQ  136(SP)(DI*1), AX
	MOVOU (AX), X6
	MASK(X6)
	PAND  X6, X1
	PXOR  X0, X1
	MOVQ  144(SP)(DI*1), AX
	MOVOU X1, (AX)
	ADDQ  $16, R11
	ADDQ  $32, DI
	CMPQ  DI, R14
	JNE   gh_comb

	XORL R14, R14
	CMPQ SI, CX
	JNE  gh_fill
gh_done:
	RET

// func evalFull(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
TEXT ·evalFull(SB), NOSPLIT, $392-72
	MOVQ labels+0(FP), AX
	MOVQ gates+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ t+32(FP), R9
	MOVQ first+40(FP), R10
	MOVQ table+48(FP), R11
	TESTQ CX, CX
	JEQ   ef_done
	SETUP

ef_fill:
	// A under t, B under t+1.
	TWEAK(X2, X3)
	MOVOU (R12)(R8*1), X0
	DBL(X0, X1)
	PXOR  X2, X0
	MOVOU X0, 0(SP)(R14*1)
	MOVOU (R13)(R8*1), X0
	DBL(X0, X1)
	PXOR  X2, X0
	PXOR  X12, X0
	MOVOU X0, 16(SP)(R14*1)
	RECORD(128, 1)
	ADDQ  $32, R14

	ADDQ $16, R8
	INCQ R10
	CMPQ R8, DX
	JNE  ef_same
	XORL R8, R8
	MOVQ first+40(FP), R10
	ADDQ $2, R9
	ADDQ $16, SI
	CMPQ SI, CX
	JEQ  ef_hash
	LOADGATE
ef_same:
	CMPQ R14, $128
	JNE  ef_fill

ef_hash:
	LEAQ ·fixedRoundKeys(SB), AX
	DM8(SP)
	XORL DI, DI

ef_comb:
	// W_G = H(A) ⊕ sa·TG, out = W_G ⊕ H(B) ⊕ sb·(TE ⊕ A).
	MOVQ  128(SP)(DI*1), AX
	MOVOU (AX), X4
	MOVOU X4, X5
	MASK(X5)
	MOVQ  136(SP)(DI*1), AX
	MOVOU (AX), X6
	MASK(X6)
	MOVOU 0(R11), X2
	PAND  X5, X2
	MOVOU 0(SP)(DI*1), X0
	PXOR  X0, X2
	MOVOU 16(R11), X3
	PXOR  X4, X3
	PAND  X6, X3
	MOVOU 16(SP)(DI*1), X1
	PXOR  X1, X3
	PXOR  X2, X3
	MOVQ  144(SP)(DI*1), AX
	MOVOU X3, (AX)
	ADDQ  $32, R11
	ADDQ  $32, DI
	CMPQ  DI, R14
	JNE   ef_comb

	XORL R14, R14
	CMPQ SI, CX
	JNE  ef_fill
ef_done:
	RET

// func evalHalf(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
TEXT ·evalHalf(SB), NOSPLIT, $392-72
	MOVQ labels+0(FP), AX
	MOVQ gates+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ t+32(FP), R9
	MOVQ first+40(FP), R10
	MOVQ table+48(FP), R11
	TESTQ CX, CX
	JEQ   eh_done
	SETUP

eh_fill:
	// B under t+1; one lane per instance, so R14 steps by 16 and the
	// records lie at twice its offset.
	TWEAK(X2, X3)
	MOVOU (R13)(R8*1), X0
	DBL(X0, X1)
	PXOR  X2, X0
	PXOR  X12, X0
	MOVOU X0, 0(SP)(R14*1)
	RECORD(128, 2)
	ADDQ  $16, R14

	ADDQ $16, R8
	INCQ R10
	CMPQ R8, DX
	JNE  eh_same
	XORL R8, R8
	MOVQ first+40(FP), R10
	ADDQ $2, R9
	ADDQ $16, SI
	CMPQ SI, CX
	JEQ  eh_hash
	LOADGATE
eh_same:
	CMPQ R14, $128
	JNE  eh_fill

eh_hash:
	LEAQ ·fixedRoundKeys(SB), AX
	DM8(SP)
	XORL DI, DI

eh_comb:
	// out = H(B) ⊕ sb·(TE ⊕ A).
	MOVQ  128(SP)(DI*2), AX
	MOVOU (AX), X4
	MOVQ  136(SP)(DI*2), AX
	MOVOU (AX), X6
	MASK(X6)
	MOVOU 0(R11), X3
	PXOR  X4, X3
	PAND  X6, X3
	MOVOU 0(SP)(DI*1), X0
	PXOR  X0, X3
	MOVQ  144(SP)(DI*2), AX
	MOVOU X3, (AX)
	ADDQ  $16, R11
	ADDQ  $16, DI
	CMPQ  DI, R14
	JNE   eh_comb

	XORL R14, R14
	CMPQ SI, CX
	JNE  eh_fill
eh_done:
	RET

// func freeGates(labels *block, gates *circuit.Gate, n, b, slot int)
//
// An XOR's output is A ⊕ B, an INV's A ⊕ the inversion slot (circuit.INV
// is op 2): a conditional move picks the slot's wire for B.
TEXT ·freeGates(SB), NOSPLIT, $0-40
	MOVQ labels+0(FP), DI
	MOVQ gates+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ slot+32(FP), R11
	SHLQ $4, CX
	ADDQ SI, CX
	SHLQ $4, DX
	CMPQ SI, CX
	JEQ  fr_done

fr_gate:
	MOVL  4(SI), R8
	MOVL  8(SI), R9
	MOVL  12(SI), R10
	CMPB  0(SI), $2
	CMOVQEQ R11, R9
	IMULQ DX, R8
	ADDQ  DI, R8
	IMULQ DX, R9
	ADDQ  DI, R9
	IMULQ DX, R10
	ADDQ  DI, R10
	XORL  AX, AX

fr_sample:
	MOVOU (R8)(AX*1), X0
	MOVOU (R9)(AX*1), X1
	PXOR  X1, X0
	MOVOU X0, (R10)(AX*1)
	ADDQ  $16, AX
	CMPQ  AX, DX
	JNE   fr_sample

	ADDQ $16, SI
	CMPQ SI, CX
	JNE  fr_gate
fr_done:
	RET

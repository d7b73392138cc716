// The fixed-key AES-128 Davies–Meyer core shared by hash_amd64.s and
// kernel_amd64.s. Hardware AES units execute AESENC with multi-cycle
// latency but single-cycle throughput, so a serial chain of rounds on ONE
// block leaves the pipeline mostly empty. Interleaving 8 independent blocks
// per round (X0–X7, one shared round key in X8) finishes 8 hashes in roughly
// the latency of one.

// ROUND applies one AES round with the round key at off(AX) to all 8
// block states.
#define ROUND(off) \
	MOVOU off(AX), X8    \
	AESENC X8, X0        \
	AESENC X8, X1        \
	AESENC X8, X2        \
	AESENC X8, X3        \
	AESENC X8, X4        \
	AESENC X8, X5        \
	AESENC X8, X6        \
	AESENC X8, X7

// DM8 replaces the 8 blocks at 0–127(p) with AES(xk, block) XOR block,
// xk the expanded fixed-key schedule at AX. It clobbers X0–X8. The
// feed-forward XOR reads each original block back from memory (the stores
// happen last), so no extra registers are needed to hold the inputs, and
// MOVOU keeps it alignment-agnostic.
#define DM8(p) \
	MOVOU (AX), X8       \
	MOVOU 0(p), X0       \
	MOVOU 16(p), X1      \
	MOVOU 32(p), X2      \
	MOVOU 48(p), X3      \
	MOVOU 64(p), X4      \
	MOVOU 80(p), X5      \
	MOVOU 96(p), X6      \
	MOVOU 112(p), X7     \
	PXOR  X8, X0         \
	PXOR  X8, X1         \
	PXOR  X8, X2         \
	PXOR  X8, X3         \
	PXOR  X8, X4         \
	PXOR  X8, X5         \
	PXOR  X8, X6         \
	PXOR  X8, X7         \
	ROUND(16)            \
	ROUND(32)            \
	ROUND(48)            \
	ROUND(64)            \
	ROUND(80)            \
	ROUND(96)            \
	ROUND(112)           \
	ROUND(128)           \
	ROUND(144)           \
	MOVOU 160(AX), X8    \
	AESENCLAST X8, X0    \
	AESENCLAST X8, X1    \
	AESENCLAST X8, X2    \
	AESENCLAST X8, X3    \
	AESENCLAST X8, X4    \
	AESENCLAST X8, X5    \
	AESENCLAST X8, X6    \
	AESENCLAST X8, X7    \
	MOVOU 0(p), X8       \
	PXOR  X8, X0         \
	MOVOU X0, 0(p)       \
	MOVOU 16(p), X8      \
	PXOR  X8, X1         \
	MOVOU X1, 16(p)      \
	MOVOU 32(p), X8      \
	PXOR  X8, X2         \
	MOVOU X2, 32(p)      \
	MOVOU 48(p), X8      \
	PXOR  X8, X3         \
	MOVOU X3, 48(p)      \
	MOVOU 64(p), X8      \
	PXOR  X8, X4         \
	MOVOU X4, 64(p)      \
	MOVOU 80(p), X8      \
	PXOR  X8, X5         \
	MOVOU X5, 80(p)      \
	MOVOU 96(p), X8      \
	PXOR  X8, X6         \
	MOVOU X6, 96(p)      \
	MOVOU 112(p), X8     \
	PXOR  X8, X7         \
	MOVOU X7, 112(p)

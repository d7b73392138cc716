//go:build amd64 && !purego

package gc

import "deepsecure/internal/circuit"

// This file is the amd64 side of the gate kernel: CPU feature detection,
// the Go faces of hash_amd64.s (AES-128 key expansion, the 8-block
// pipelined AESENC hash and its 8-key twin for the OT keystreams) and the
// assembly level kernel in kernel_amd64.s. Build with the purego tag (or on another
// GOARCH) and hash_generic.go takes over: the Go level kernel over
// crypto/aes.

// hasKernel is the one switch between the assembly kernels and the Go
// kernel, from CPUID leaf 1's ECX, latched at init. Bit 25 is the AES-NI
// instruction set (AESENC/AESENCLAST), which the 8-block hash needs; the
// level kernel also byte-swaps labels to double them, with SSSE3's PSHUFB
// (bit 9). SSE2 is part of the amd64 baseline, so no further checks are
// needed for the XMM state either uses.
var (
	cpu1      = cpuid1()
	hasKernel = cpu1&(1<<25) != 0 && cpu1&(1<<9) != 0
)

// fixedRoundKeys holds the fixed garbling key's 11 expanded AES-128
// round keys (4 + 40 words), filled once at init and read-only thereafter:
// the fixed-key design of the paper's §2.3 garbling core expands its key
// once per process, not per hash. (The OT extension's keystream expands
// each column's base seed per batch, on the stack: see XORKeyStream.)
var fixedRoundKeys [176]byte

func init() {
	if hasKernel {
		expandKeys(&fixedKey, 1, &fixedRoundKeys)
	}
}

// hashLanesWide runs the 8-block Davies–Meyer kernel over the lane
// buffer: lanes[i] = AES_fixed(lanes[i]) ⊕ lanes[i] for all 8 lanes.
func hashLanesWide(lanes *[HashLanes]block) { encryptDM8(&fixedRoundKeys, lanes) }

// encryptDM8 is DM8 (aes_amd64.h) over the lane buffer, in hash_amd64.s. It
// reads each block as the 16 bytes of its Label, which a block's two
// little-endian words are in memory.
//
//go:noescape
func encryptDM8(xk *[176]byte, lanes *[HashLanes]block)

// encrypt8 sets lanes[i] = AES(xk[i], lanes[i]) for all 8 lanes, each
// under its own expanded schedule (hash_amd64.s).
//
//go:noescape
func encrypt8(xk *[HashLanes][176]byte, lanes *[HashLanes]block)

// expandKeys writes the 11 AES-128 encryption round keys of each of the n
// keys at keys to n consecutive schedules from xk (hash_amd64.s,
// AESKEYGENASSIST, four keys side by side).
//
//go:noescape
func expandKeys(keys *Label, n int, xk *[176]byte)

// cpuid1 returns ECX of CPUID leaf 1 (implemented in hash_amd64.s).
func cpuid1() uint32

// The assembly level kernel (kernel_amd64.s), one routine per party and AND
// kind over n consecutive AND gates from gates for all b samples: the first
// gate hashes under tweak t (its evaluator half t+1), sample s under ordinal
// first+s, and its first ciphertext lies at table; r2 and inv are the
// garbler's 2R and R per sample. freeGates runs n free gates, whose INVs read
// wire slot. Every pointer is into a heap slice, so none needs noescape.
func garbleFull(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
func garbleHalf(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
func evalFull(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
func evalHalf(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)
func freeGates(labels *block, gates *circuit.Gate, n, b, slot int)

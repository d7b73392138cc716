//go:build amd64 && !purego

package gc

import "deepsecure/internal/circuit"

// This file is the amd64 side of the gate kernel: CPU feature detection,
// one-time expansion of the fixed key's AES-128 round schedule, the Go face
// of the 8-block pipelined AESENC hash in hash_amd64.s, and the assembly
// level kernel in kernel_amd64.s. Build with the purego tag (or on another
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
// round keys (4 + 40 words), filled once at init and read-only
// thereafter — the fixed-key design of the paper's §2.3 garbling core
// means key expansion happens exactly once per process, not per hash.
var fixedRoundKeys [176]byte

func init() {
	if hasKernel {
		expandKey128(&fixedKey, &fixedRoundKeys)
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

// sbox is the AES S-box, needed only to expand the fixed key once at
// init; all per-block work runs in hardware.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// expandKey128 computes the 11 AES-128 encryption round keys of key into
// xk (the standard Rijndael key schedule; the kernel's correctness
// against crypto/aes is pinned by the hash conformance tests).
func expandKey128(key *[16]byte, xk *[176]byte) {
	copy(xk[:16], key[:])
	rcon := byte(1)
	for i := 16; i < len(xk); i += 4 {
		var t [4]byte
		copy(t[:], xk[i-4:i])
		if i%16 == 0 {
			// RotWord + SubWord + Rcon on the first word of each round key.
			t[0], t[1], t[2], t[3] = sbox[t[1]]^rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]
			rcon = xtime(rcon)
		}
		for j := 0; j < 4; j++ {
			xk[i+j] = xk[i-16+j] ^ t[j]
		}
	}
}

// xtime multiplies by x in GF(2^8) (the Rcon recurrence).
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

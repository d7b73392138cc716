// Package gc implements Yao's garbled-circuit protocol core with the full
// optimization stack the paper relies on (§2.3): point-and-permute,
// Free-XOR (and free INV), row-reduction + half-gates (two 128-bit
// ciphertexts per AND gate, one when an operand is the evaluator's own
// input), and fixed-key block-cipher garbling (JustGarble-style AES
// Davies–Meyer hashing). One switch picks the kernel: on amd64 with AES-NI
// and SSSE3 the assembly level kernel, kernel_amd64.s, and its 8-lane hash;
// elsewhere, and under the purego tag, the Go kernel over crypto/aes. The
// OT extension's keystreams run on the same AES code behind the same
// switch (XORKeyStream).
//
// The package is pure computation: the Garbler and Evaluator consume a
// gate stream and produce/consume garbled tables as byte slices; all
// transport, oblivious transfer, and session logic live in other packages.
// This separation is what enables the sequential/streaming execution of
// §3.5 — gates are garbled and discarded on the fly, keeping memory
// proportional to the live-wire set.
package gc

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unsafe"
)

// SecurityBits is the GC security parameter (label width in bits). The
// paper sets it to 128 (§4.1).
const SecurityBits = 128

// LabelSize is the size of a wire label in bytes.
const LabelSize = SecurityBits / 8

// TableSize is the size of the garbled table of a full AND gate: two
// ciphertexts under half-gates (§2.3 Row-Reduction + Half-Gates ⇒ 2 × 128
// bits, the constant in the paper's Eq. 4). A circuit.HalfAND's is the
// evaluator half's ciphertext alone, LabelSize bytes.
const TableSize = 2 * LabelSize

// Label is a 128-bit wire label.
type Label [LabelSize]byte

// XOR returns l ⊕ o.
func (l Label) XOR(o Label) Label {
	blockAt(l[:]).xor(blockAt(o[:])).put(l[:])
	return l
}

// LSB returns the point-and-permute bit of the label.
func (l Label) LSB() bool { return l[0]&1 == 1 }

// block is a label as the kernel holds and computes on it: its two
// little-endian uint64 words. Go keeps words in registers but not [16]byte
// arrays, so XOR, doubling and tweaking a Label value would each go through
// a stack temporary. In memory a block is laid out byte for byte as its
// Label on a little-endian machine, which is what the amd64 hash kernel
// reads. Labels become blocks at the protocol boundary: drawn randomness,
// labels set or read through the states' faces, and table bytes.
type block struct{ lo, hi uint64 }

// blockAt reads the first LabelSize bytes of p as a block; put stores k
// there.
func blockAt(p []byte) block {
	return block{binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16])}
}

func (k block) put(p []byte) {
	binary.LittleEndian.PutUint64(p[0:8], k.lo)
	binary.LittleEndian.PutUint64(p[8:16], k.hi)
}

func (k block) label() Label {
	var l Label
	k.put(l[:])
	return l
}

func (k block) xor(o block) block { return block{k.lo ^ o.lo, k.hi ^ o.hi} }

// dbl multiplies the label k by x in GF(2^128) with the standard reduction
// polynomial (x^128 + x^7 + x^2 + x + 1), treating the label as a
// big-endian polynomial — the usual tweakable-cipher doubling. The garbling
// hash H(L, t) keys AES with 2L ⊕ t, the tweak XORed into the block's first
// little-endian word; the gate kernel XORs a sample's session ordinal into
// the second. Byte-swapped, the words are the polynomial's high and
// low halves, so it is two shifts and a branch-free reduction.
func dbl(k block) block {
	hi, lo := bits.ReverseBytes64(k.lo), bits.ReverseBytes64(k.hi)
	carry := hi >> 63
	hi = hi<<1 | lo>>63
	lo = lo<<1 ^ 0x87&-carry
	return block{bits.ReverseBytes64(hi), bits.ReverseBytes64(lo)}
}

// fixedKey is the public fixed AES key of the garbling hash. Its value is
// arbitrary but must be identical for garbler and evaluator.
var fixedKey = Label{
	0xd3, 0x3e, 0x5f, 0x0a, 0x91, 0x27, 0x6c, 0xb8,
	0x44, 0xfe, 0x09, 0x73, 0xa2, 0x58, 0x1d, 0xc6,
}

// HashLanes is the width of the Hasher's multi-lane face: HN hashes up to
// this many independent labels per call, matching the depth hardware AES
// units pipeline.
const HashLanes = 8

// WideAvailable reports whether gc runs its assembly kernels on this build
// and CPU (amd64 with AES-NI and SSSE3, not built with the purego tag): the
// assembly gate kernel garbles and evaluates, and HN hashes 8 lanes per
// AESENC pass. When false, both run the Go kernel over crypto/aes, which
// writes the same bytes.
func WideAvailable() bool { return hasKernel }

// Hasher computes the correlation-robust garbling hash
// H(L, t) = AES_fixed(2L ⊕ t) ⊕ (2L ⊕ t). A Hasher is NOT safe for
// concurrent use — a span on the Go kernel borrows one from a pool — which
// is what lets H run allocation-free: the AES input/output go through
// scratch buffers inside the Hasher, instead of stack arrays that escape
// through the cipher.Block interface call on every gate (two heap
// allocations per hash, the dominant allocation of the whole protocol
// before they were hoisted here). The crypto/aes cipher is built on the Go
// path's first hash, so a Hasher that only hashes on the assembly kernel
// (the OT extension's, on amd64) never builds one.
//
// Beyond the scalar H, a Hasher exposes a multi-lane face: up to
// HashLanes independent hashes per call (HN), backed where WideAvailable by
// an assembly kernel that interleaves 8 AESENC streams per round so the
// hardware AES pipeline stays full, and elsewhere by a loop over the scalar
// path.
type Hasher struct {
	block      cipher.Block // the Go path's fixed-key cipher, nil until it first hashes
	kbuf, obuf [LabelSize]byte

	// lanes is HN's buffer: it writes key blocks 2L ⊕ t there and hashes
	// them in place, so no wave allocates.
	lanes [HashLanes]block
}

// NewHasher builds the fixed-key hasher.
func NewHasher() *Hasher { return new(Hasher) }

// H computes the hash of label l under tweak t.
func (h *Hasher) H(l Label, t uint64) Label {
	k := dbl(blockAt(l[:]))
	k.lo ^= t
	return h.hashKey(k).label()
}

// hashKey is the scalar Davies–Meyer core over a precomputed key block
// k = 2L ⊕ t: AES_fixed(k) ⊕ k through Go's crypto/aes.
func (h *Hasher) hashKey(k block) block {
	if h.block == nil {
		h.block = newCipher(fixedKey)
	}
	k.put(h.kbuf[:])
	h.block.Encrypt(h.obuf[:], h.kbuf[:])
	return blockAt(h.obuf[:]).xor(k)
}

// HN computes dst[i] = H(labels[i], tweaks[i]) for every label, in waves
// of HashLanes, each one pass of the 8-lane AES kernel where WideAvailable
// (it runs all 8 lanes branch-free: an AES unit pipelined 8 deep finishes 8
// blocks in the latency of one, so a partial wave's unused lanes cost
// nothing) and one scalar hash per label elsewhere. It is byte-identical to
// len(labels) scalar H calls on every build, which the hash conformance
// tests pin. dst and tweaks must be at least as long as labels; dst may
// alias labels.
func (h *Hasher) HN(dst, labels []Label, tweaks []uint64) {
	if len(dst) < len(labels) || len(tweaks) < len(labels) {
		panic(fmt.Sprintf("gc: HN dst/tweaks shorter than labels (%d/%d/%d)",
			len(dst), len(tweaks), len(labels)))
	}
	for off := 0; off < len(labels); off += HashLanes {
		n := min(len(labels)-off, HashLanes)
		for i := 0; i < n; i++ {
			k := dbl(blockAt(labels[off+i][:]))
			k.lo ^= tweaks[off+i]
			h.lanes[i] = k
		}
		if hasKernel {
			hashLanesWide(&h.lanes)
		} else {
			for i := range n {
				h.lanes[i] = h.hashKey(h.lanes[i])
			}
		}
		for i := 0; i < n; i++ {
			h.lanes[i].put(dst[off+i][:])
		}
	}
}

// RandomLabel draws a fresh label from rng.
func RandomLabel(rng io.Reader) (Label, error) {
	var l Label
	if _, err := io.ReadFull(rng, l[:]); err != nil {
		return Label{}, fmt.Errorf("gc: label randomness: %w", err)
	}
	return l, nil
}

// RandomLabels fills dst with fresh labels in one read of rng: the labels
// of len(dst) RandomLabel calls, in order.
func RandomLabels(rng io.Reader, dst []Label) error {
	if len(dst) == 0 {
		return nil
	}
	if _, err := io.ReadFull(rng, unsafe.Slice(&dst[0][0], len(dst)*LabelSize)); err != nil {
		return fmt.Errorf("gc: label randomness: %w", err)
	}
	return nil
}

// RandomDelta draws the global Free-XOR offset R, forcing LSB(R)=1 so
// point-and-permute bits of a label pair always differ.
func RandomDelta(rng io.Reader) (Label, error) {
	r, err := RandomLabel(rng)
	if err != nil {
		return Label{}, err
	}
	r[0] |= 1
	return r, nil
}

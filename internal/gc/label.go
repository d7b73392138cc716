// Package gc implements Yao's garbled-circuit protocol core with the full
// optimization stack the paper relies on (§2.3): point-and-permute,
// Free-XOR (and free INV), row-reduction + half-gates (two 128-bit
// ciphertexts per AND gate, one when an operand is the evaluator's own
// input), and fixed-key block-cipher garbling (JustGarble-style AES
// Davies–Meyer hashing: on amd64 an 8-block pipelined AES-NI kernel,
// hash_amd64.s, and Go's crypto/aes elsewhere or under the purego tag).
//
// The package is pure computation: the Garbler and Evaluator consume a
// gate stream and produce/consume garbled tables as byte slices; all
// transport, oblivious transfer, and session logic live in other packages.
// This separation is what enables the sequential/streaming execution of
// §3.5 — gates are garbled and discarded on the fly, keeping memory
// proportional to the live-wire set.
package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
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
	var r Label
	a1 := binary.LittleEndian.Uint64(l[0:8])
	a2 := binary.LittleEndian.Uint64(l[8:16])
	b1 := binary.LittleEndian.Uint64(o[0:8])
	b2 := binary.LittleEndian.Uint64(o[8:16])
	binary.LittleEndian.PutUint64(r[0:8], a1^b1)
	binary.LittleEndian.PutUint64(r[8:16], a2^b2)
	return r
}

// LSB returns the point-and-permute bit of the label.
func (l Label) LSB() bool { return l[0]&1 == 1 }

// IsZero reports whether the label is all zeros (used as a sentinel for
// "label missing" in integrity checks).
func (l Label) IsZero() bool {
	return binary.LittleEndian.Uint64(l[0:8])|binary.LittleEndian.Uint64(l[8:16]) == 0
}

// words returns l as two little-endian uint64 words, the form the kernel
// computes in; setWords stores them back. wordsAt and setWordsAt do the
// same on the first LabelSize bytes of a table slice.
func words(l *Label) (uint64, uint64) {
	return binary.LittleEndian.Uint64(l[0:8]), binary.LittleEndian.Uint64(l[8:16])
}

func setWords(l *Label, w0, w1 uint64) {
	binary.LittleEndian.PutUint64(l[0:8], w0)
	binary.LittleEndian.PutUint64(l[8:16], w1)
}

func wordsAt(p []byte) (uint64, uint64) {
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16])
}

func setWordsAt(p []byte, w0, w1 uint64) {
	binary.LittleEndian.PutUint64(p[0:8], w0)
	binary.LittleEndian.PutUint64(p[8:16], w1)
}

// double multiplies the label by x in GF(2^128) with the standard
// reduction polynomial (x^128 + x^7 + x^2 + x + 1), treating the label as
// a big-endian polynomial — the usual tweakable-cipher doubling. The
// garbling hash H(L, t) keys AES with 2L ⊕ t, the tweak XORed into the
// block's first little-endian word.
func double(l Label) Label {
	var r Label
	w0, w1 := dbl(words(&l))
	setWords(&r, w0, w1)
	return r
}

// dbl is double on a label's little-endian words: byte-swapped, they are
// the polynomial's high and low halves, so it is two shifts and a
// branch-free reduction.
func dbl(w0, w1 uint64) (uint64, uint64) {
	hi, lo := bits.ReverseBytes64(w0), bits.ReverseBytes64(w1)
	carry := hi >> 63
	hi = hi<<1 | lo>>63
	lo = lo<<1 ^ 0x87&-carry
	return bits.ReverseBytes64(hi), bits.ReverseBytes64(lo)
}

// fixedKey is the public fixed AES key of the garbling hash. Its value is
// arbitrary but must be identical for garbler and evaluator.
var fixedKey = [16]byte{
	0xd3, 0x3e, 0x5f, 0x0a, 0x91, 0x27, 0x6c, 0xb8,
	0x44, 0xfe, 0x09, 0x73, 0xa2, 0x58, 0x1d, 0xc6,
}

// HashLanes is the width of the Hasher's multi-lane face: HN (and the
// internal staged-lane path the gate cores use) hashes up to this many
// independent labels per call, matching the depth hardware AES units
// pipeline.
const HashLanes = 8

// wideOff force-disables the multi-lane AESENC kernel for Hashers created
// while it is set. Only this package's tests set it, to pit the scalar
// cipher.Block path against the wide kernel in one binary; both compute the
// identical hash function.
var wideOff atomic.Bool

// WideAvailable reports whether this build and CPU expose the 8-block
// pipelined AESENC kernel (amd64 with AES-NI, not built with the purego
// tag). When false, HN falls back to looping the scalar hash.
func WideAvailable() bool { return wideAvailable() }

func wideEnabled() bool { return wideAvailable() && !wideOff.Load() }

// Hasher computes the correlation-robust garbling hash
// H(L, t) = AES_fixed(2L ⊕ t) ⊕ (2L ⊕ t). A Hasher is NOT safe for
// concurrent use — every worker owns a private one (gc.Pool) — which is
// what lets H run allocation-free: the AES input/output go through
// heap-resident scratch buffers allocated once per Hasher, instead of
// stack arrays that escape through the cipher.Block interface call on
// every gate (two heap allocations per hash, the dominant allocation of
// the whole protocol before they were hoisted here).
//
// Beyond the scalar H, a Hasher exposes a multi-lane face: up to
// HashLanes independent hashes per call (HN, and the staged-lane path
// the gate cores feed), backed on amd64 by an assembly kernel that
// interleaves 8 AESENC streams per round so the hardware AES pipeline
// stays full, with a pure-Go fallback that loops the scalar path.
type Hasher struct {
	block cipher.Block
	kbuf  []byte
	obuf  []byte

	// wide selects the 8-block AESENC kernel, latched at construction
	// from CPU feature detection (and wideOff).
	wide bool
	// lanes is the staging buffer of the multi-lane path: callers write
	// key blocks 2L ⊕ t, hashStaged replaces them with their hashes.
	lanes [HashLanes]Label
	// units stages the gate kernel's instances for one hash wave
	// (batch.go's stage); it lives here so a span borrows it with the
	// hasher rather than allocating it per span, or per gate on the
	// per-gate faces.
	units [HashLanes]staged
}

// NewHasher builds the fixed-key hasher.
func NewHasher() *Hasher {
	block, err := aes.NewCipher(fixedKey[:])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 16 is valid.
		panic(fmt.Sprintf("gc: fixed-key AES init: %v", err))
	}
	return &Hasher{
		block: block,
		kbuf:  make([]byte, LabelSize),
		obuf:  make([]byte, LabelSize),
		wide:  wideEnabled(),
	}
}

// H computes the hash of label l under tweak t.
func (h *Hasher) H(l Label, t uint64) Label {
	var k Label
	w0, w1 := dbl(words(&l))
	setWords(&k, w0^t, w1)
	return h.hashKey(k)
}

// hashKey is the scalar Davies–Meyer core over a precomputed key block
// k = 2L ⊕ t: AES_fixed(k) ⊕ k through Go's crypto/aes.
func (h *Hasher) hashKey(k Label) Label {
	copy(h.kbuf, k[:])
	h.block.Encrypt(h.obuf, h.kbuf)
	var out Label
	copy(out[:], h.obuf)
	return out.XOR(k)
}

// hashStaged replaces the first n staged lanes — key blocks 2L ⊕ t
// written into h.lanes by the caller — with their Davies–Meyer hashes
// AES_fixed(k) ⊕ k, in place. n must be at most HashLanes. The wide
// kernel always runs all 8 lanes branch-free (an AES unit pipelined 8
// deep finishes 8 blocks in the latency of one, so unused lanes cost
// nothing; their stale bytes are simply overwritten).
func (h *Hasher) hashStaged(n int) {
	if h.wide {
		hashLanesWide(&h.lanes)
		return
	}
	for i := 0; i < n; i++ {
		h.lanes[i] = h.hashKey(h.lanes[i])
	}
}

// HN computes dst[i] = H(labels[i], tweaks[i]) for every label, feeding
// the pipelined 8-lane AES kernel HashLanes blocks at a time where
// available (longer slices are processed in 8-lane waves). It is
// byte-identical to len(labels) scalar H calls on every build — the
// fallback loops the scalar path — which the hash conformance tests pin.
// dst and tweaks must be at least as long as labels; dst may alias
// labels.
func (h *Hasher) HN(dst, labels []Label, tweaks []uint64) {
	if len(dst) < len(labels) || len(tweaks) < len(labels) {
		panic(fmt.Sprintf("gc: HN dst/tweaks shorter than labels (%d/%d/%d)",
			len(dst), len(tweaks), len(labels)))
	}
	for off := 0; off < len(labels); off += HashLanes {
		n := len(labels) - off
		if n > HashLanes {
			n = HashLanes
		}
		for i := 0; i < n; i++ {
			w0, w1 := dbl(words(&labels[off+i]))
			setWords(&h.lanes[i], w0^tweaks[off+i], w1)
		}
		h.hashStaged(n)
		copy(dst[off:off+n], h.lanes[:n])
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

// Package ot implements 1-out-of-2 oblivious transfer (paper §2.2.1): a
// Naor–Pinkas base OT over the NIST P-256 curve, run as a random OT, and the
// IKNP OT extension that turns 128 base OTs into millions of fast extended
// OTs — one per evaluator-input bit of the garbled circuit (the DL model's
// weight bits in DeepSecure, §3.1 step ii).
//
// An extension is one base phase and what it keys. NewExtSender, the
// base-OT receiver, sends its 128 points; NewExtReceiver answers with its
// point A, which the sender reads ahead of the first U matrix (Ready).
// Column i of the extension then runs on the AES-CTR keystream (zero IV)
// under base seed i itself, the textbook IKNP PRG, its row hashes on
// tweaks from 0. The seeds key that one extension and nothing else, so no
// keystream byte under them, and no (tweak, s) pair, is produced twice.
package ot

import (
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"deepsecure/internal/gc"
)

// MsgLen is the length of each transferred message in bytes (a GC wire
// label).
const MsgLen = 16

// Msg is one OT payload: a 128-bit wire label, which is what the
// extension's pads and the weight labels it transfers are.
type Msg = gc.Label

var curve = elliptic.P256()

// pointLen is the length of an uncompressed P-256 point.
const pointLen = 65

// cx, cy is the base OT's fixed point C, whose discrete logarithm nobody
// knows (a receiver that did could learn both seeds of every base OT): for
// ctr = 0, 1, … (4 bytes, big-endian), x = sha256("deepsecure/ot-base/C" ‖
// ctr) mod p, and C is the first x that decodes as a compressed point, with
// its even y.
var cx, cy = func() (x, y *big.Int) {
	for ctr := uint32(0); ; ctr++ {
		h := sha256.Sum256(binary.BigEndian.AppendUint32([]byte("deepsecure/ot-base/C"), ctr))
		enc := append([]byte{2}, new(big.Int).Mod(new(big.Int).SetBytes(h[:]), curve.Params().P).FillBytes(make([]byte, 32))...)
		if x, y = elliptic.UnmarshalCompressed(curve, enc); x != nil {
			return x, y
		}
	}
}()

// randScalar draws a scalar in [1, n) by rejection, as 32 big-endian bytes.
func randScalar(rng io.Reader) ([]byte, error) {
	for {
		b := make([]byte, 32)
		if _, err := io.ReadFull(rng, b); err != nil {
			return nil, fmt.Errorf("ot: scalar randomness: %w", err)
		}
		if k := new(big.Int).SetBytes(b); k.Sign() > 0 && k.Cmp(curve.Params().N) < 0 {
			return b, nil
		}
	}
}

// seedKey is base OT i's seed for the point (x, y): H(i ‖ point), sha256
// over i as 8 big-endian bytes and the uncompressed point, cut to a label.
func seedKey(i int, x, y *big.Int) Msg {
	sum := sha256.Sum256(append(binary.BigEndian.AppendUint64(nil, uint64(i)), elliptic.Marshal(curve, x, y)...))
	return Msg(sum[:MsgLen])
}

// baseChoose is the base-OT receiver's message for the k choice bits s,
// packed LSB-first: for each i a fresh scalar b_i and B_i = b_i·G, or
// C − b_i·G when bit i is set. It returns the scalars, which baseKeys needs
// once A arrives, and the points.
func baseChoose(rng io.Reader, s []byte) (bs [][]byte, points []byte, err error) {
	bs = make([][]byte, k)
	points = make([]byte, 0, pointLen*k)
	for i := range bs {
		if bs[i], err = randScalar(rng); err != nil {
			return nil, nil, err
		}
		bx, by := curve.ScalarBaseMult(bs[i])
		if s[i/8]>>(i%8)&1 == 1 {
			// B = C − b·G; no P-256 point has y = 0, so p − y is −y.
			bx, by = curve.Add(cx, cy, bx, new(big.Int).Sub(curve.Params().P, by))
		}
		points = append(points, elliptic.Marshal(curve, bx, by)...)
	}
	return bs, points, nil
}

// baseKeys writes the base-OT receiver's seed of each OT, H(i ‖ b_i·A), into
// keys, from the sender's point A: whichever B_i it sent, that is the seed
// its choice selects. The scalars are wiped.
func baseKeys(keys []Msg, a []byte, bs [][]byte) error {
	ax, ay := elliptic.Unmarshal(curve, a)
	if ax == nil {
		return fmt.Errorf("ot: base sender's A (%d bytes) is not a point on the curve", len(a))
	}
	for i, b := range bs {
		kx, ky := curve.ScalarMult(ax, ay, b) // b·A = ab·G
		keys[i] = seedKey(i, kx, ky)
		clear(b)
	}
	return nil
}

// baseSend is the base-OT sender's half of random OTs, given the receiver's
// points: it draws one scalar a, writes OT i's seeds H(i ‖ a·B_i) and
// H(i ‖ a·C − a·B_i) into keys[0][i] and keys[1][i], and returns A = a·G,
// its whole message. Without dlog(C) the receiver learns only the seed its
// choice selects, and B_i is uniform whichever the choice. A point off the
// curve, or C itself (whose two seeds the receiver would both know), is
// refused.
func baseSend(keys *[2][k]Msg, rng io.Reader, points []byte) ([]byte, error) {
	if len(points) != pointLen*k {
		return nil, fmt.Errorf("ot: base receiver sent %d bytes, want %d", len(points), pointLen*k)
	}
	a, err := randScalar(rng)
	if err != nil {
		return nil, err
	}
	acx, acy := curve.ScalarMult(cx, cy, a)
	for i := range k {
		bx, by := elliptic.Unmarshal(curve, points[i*pointLen:(i+1)*pointLen])
		if bx == nil || bx.Cmp(cx) == 0 && by.Cmp(cy) == 0 {
			return nil, fmt.Errorf("ot: base OT %d: the receiver's point is C or not on the curve", i)
		}
		abx, aby := curve.ScalarMult(bx, by, a)
		keys[0][i] = seedKey(i, abx, aby)
		dx, dy := curve.Add(acx, acy, abx, new(big.Int).Sub(curve.Params().P, aby)) // a·C − a·B
		keys[1][i] = seedKey(i, dx, dy)
	}
	ax, ay := curve.ScalarBaseMult(a)
	return elliptic.Marshal(curve, ax, ay), nil
}

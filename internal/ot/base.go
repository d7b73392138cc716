// Package ot implements 1-out-of-2 oblivious transfer (paper §2.2.1): a
// Chou–Orlandi-style base OT over the NIST P-256 curve, and the IKNP OT
// extension that turns 128 base OTs into millions of fast extended OTs —
// one per evaluator-input bit of the garbled circuit (the DL model's
// weight bits in DeepSecure, §3.1 step ii).
//
// The base phase yields a value, the base correlation (SenderBase: the
// secret vector s and the seeds k_{s_i}; ReceiverBase: the 128 seed pairs),
// and an extension session is a derivation from it: column i of the
// session named by a 16-byte Nonce runs on the AES-CTR keystream under
// AES_{seed_i}(nonce), its row hashes on tweaks from the nonce's client
// half · 2^32. A pair of parties runs the phase once and derives as many
// sessions as it likes, at once or years apart; what it must never do is
// derive one nonce twice — no keystream byte under a base seed, and no
// (tweak, s) pair, may be produced twice — which each party ensures by
// putting a counter of its own in its half of the nonce. NewExtSender and
// NewExtReceiver are the base phase followed by the zero nonce's session.
package ot

import (
	"crypto/elliptic"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"

	"deepsecure/internal/transport"
)

// MsgLen is the length of each transferred message in bytes (a GC wire
// label).
const MsgLen = 16

// Msg is one OT payload (a 128-bit wire label).
type Msg [MsgLen]byte

var curve = elliptic.P256()

func randScalar(rng io.Reader) ([]byte, error) {
	n := curve.Params().N
	byteLen := (n.BitLen() + 7) / 8
	for {
		b := make([]byte, byteLen)
		if _, err := io.ReadFull(rng, b); err != nil {
			return nil, fmt.Errorf("ot: scalar randomness: %w", err)
		}
		k := new(big.Int).SetBytes(b)
		if k.Sign() > 0 && k.Cmp(n) < 0 {
			return k.FillBytes(make([]byte, byteLen)), nil
		}
	}
}

func pointKey(x, y *big.Int) Msg {
	sum := sha256.Sum256(elliptic.Marshal(curve, x, y))
	var m Msg
	copy(m[:], sum[:MsgLen])
	return m
}

// negY returns the negation of a curve point (x, -y mod p).
func negY(y *big.Int) *big.Int {
	p := curve.Params().P
	return new(big.Int).Mod(new(big.Int).Neg(y), p)
}

// BaseSend performs n base OTs as the sender over conn: for each i the
// receiver learns pairs[i][choice_i] and nothing else, and the sender
// learns nothing about the choices.
func BaseSend(conn transport.FrameConn, rng io.Reader, pairs [][2]Msg) error {
	a, err := randScalar(rng)
	if err != nil {
		return err
	}
	ax, ay := curve.ScalarBaseMult(a)
	if err := conn.Send(transport.MsgOTBase, elliptic.Marshal(curve, ax, ay)); err != nil {
		return err
	}

	payload, err := conn.Recv(transport.MsgOTBase)
	if err != nil {
		return err
	}
	ptLen := len(elliptic.Marshal(curve, ax, ay))
	if len(payload) != ptLen*len(pairs) {
		return fmt.Errorf("ot: base receiver sent %d bytes, want %d", len(payload), ptLen*len(pairs))
	}

	// aA, used to derive k1 = H(a·(B - A)).
	aAx, aAy := curve.ScalarMult(ax, ay, a)
	naAy := negY(aAy)

	out := make([]byte, 0, len(pairs)*2*MsgLen)
	for i := range pairs {
		bx, by := elliptic.Unmarshal(curve, payload[i*ptLen:(i+1)*ptLen])
		if bx == nil {
			return fmt.Errorf("ot: base OT %d: invalid point from receiver", i)
		}
		aBx, aBy := curve.ScalarMult(bx, by, a)
		k0 := pointKey(aBx, aBy)
		dx, dy := curve.Add(aBx, aBy, aAx, naAy) // a·B - a·A
		k1 := pointKey(dx, dy)
		var e0, e1 Msg
		for j := 0; j < MsgLen; j++ {
			e0[j] = pairs[i][0][j] ^ k0[j]
			e1[j] = pairs[i][1][j] ^ k1[j]
		}
		out = append(out, e0[:]...)
		out = append(out, e1[:]...)
	}
	if err := conn.Send(transport.MsgOTBase, out); err != nil {
		return err
	}
	return conn.Flush()
}

// BaseReceive performs n base OTs as the receiver: choices[i] selects
// which of the sender's two messages is learned.
func BaseReceive(conn transport.FrameConn, rng io.Reader, choices []bool) ([]Msg, error) {
	payload, err := conn.Recv(transport.MsgOTBase)
	if err != nil {
		return nil, err
	}
	ax, ay := elliptic.Unmarshal(curve, payload)
	if ax == nil {
		return nil, fmt.Errorf("ot: invalid sender point A")
	}

	ptLen := len(payload)
	bs := make([][]byte, len(choices))
	msg := make([]byte, 0, ptLen*len(choices))
	for i, c := range choices {
		b, err := randScalar(rng)
		if err != nil {
			return nil, err
		}
		bs[i] = b
		bx, by := curve.ScalarBaseMult(b)
		if c {
			bx, by = curve.Add(bx, by, ax, ay) // B = bG + A
		}
		msg = append(msg, elliptic.Marshal(curve, bx, by)...)
	}
	if err := conn.Send(transport.MsgOTBase, msg); err != nil {
		return nil, err
	}

	enc, err := conn.Recv(transport.MsgOTBase)
	if err != nil {
		return nil, err
	}
	if len(enc) != len(choices)*2*MsgLen {
		return nil, fmt.Errorf("ot: base sender sent %d bytes, want %d", len(enc), len(choices)*2*MsgLen)
	}
	out := make([]Msg, len(choices))
	for i, c := range choices {
		kx, ky := curve.ScalarMult(ax, ay, bs[i]) // b·A = ab·G
		k := pointKey(kx, ky)
		off := i * 2 * MsgLen
		if c {
			off += MsgLen
		}
		for j := 0; j < MsgLen; j++ {
			out[i][j] = enc[off+j] ^ k[j]
		}
	}
	return out, nil
}

package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"

	"deepsecure/internal/gc"
	"deepsecure/internal/transport"
)

// k is the OT-extension security parameter: the number of base OTs.
const k = 128

// prgStream returns the column stream a base seed yields for the session
// nonce names: the AES-CTR keystream under the session key AES_seed(nonce).
// The seed keys nothing but that one block per session, so distinct nonces
// give streams under (pseudo)independent keys and no keystream byte is
// produced twice. Each extension party keeps one stateful stream per seed
// and draws the NEXT keystream bytes for every batch: masks are never
// reused across batches, so observing two u-matrices reveals nothing about
// the receiver's choice bits (reusing the stream from offset 0 would leak
// their XOR). Both parties consume exactly mBytes per batch per seed,
// keeping the streams synchronized without communication.
func prgStream(seed Msg, nonce Nonce) cipher.Stream {
	var key, iv Msg
	block, err := aes.NewCipher(seed[:])
	if err == nil {
		block.Encrypt(key[:], nonce[:])
		block, err = aes.NewCipher(key[:])
	}
	if err != nil {
		panic(fmt.Sprintf("ot: prg cipher: %v", err))
	}
	return cipher.NewCTR(block, iv[:])
}

// prgNext draws the next n keystream bytes from a seed stream.
func prgNext(s cipher.Stream, n int) []byte {
	out := make([]byte, n)
	s.XORKeyStream(out, out)
	return out
}

// Nonce names one extension session among all that are derived from one
// base correlation: the client's 8-byte big-endian session counter, then
// the server's. Each party draws its half from a counter of its own that
// never repeats while it holds the base, so no two sessions of one base
// share a nonce whatever the peer puts in the other half.
type Nonce [16]byte

// SessionNonce builds the nonce cid ‖ sid.
func SessionNonce(cid, sid uint64) (n Nonce) {
	binary.BigEndian.PutUint64(n[:8], cid)
	binary.BigEndian.PutUint64(n[8:], sid)
	return n
}

// firstTweak is where a session's row-hash counter starts: the client's
// half of the nonce, shifted past any plausible session's OT count (2^32),
// so the sender — the client, whose s is the same in every session of a
// base — never hashes under one (tweak, s) pair twice.
func firstTweak(nonce Nonce) uint64 { return binary.BigEndian.Uint64(nonce[:8]) << 32 }

// ExtULen returns the size in bytes of the U matrix of an m-OT extension
// batch: what a sender about to read one may bound the frame to.
func ExtULen(m int) int { return k * ((m + 7) / 8) }

// packBits packs bools LSB-first into bytes.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// transposeToRows converts 128 column bit-vectors (each m bits packed in
// mBytes) into m rows of 16 bytes each (row j holds bit j of every
// column). It moves 64 bits at a time: byte b of the eight columns of group
// g is an 8 × 8 bit matrix, transposed in a register, whose rows are byte g
// of rows 8b … 8b+7 (fewer in a ragged tail, whose padding bits are dropped).
func transposeToRows(cols [][]byte, m int) [][16]byte {
	rows := make([][16]byte, m)
	mBytes := (m + 7) / 8
	for g := 0; g < k/8; g++ {
		c := cols[8*g : 8*g+8]
		c0, c1, c2, c3 := c[0][:mBytes], c[1][:mBytes], c[2][:mBytes], c[3][:mBytes]
		c4, c5, c6, c7 := c[4][:mBytes], c[5][:mBytes], c[6][:mBytes], c[7][:mBytes]
		for b := 0; b < mBytes; b++ {
			x := uint64(c0[b]) | uint64(c1[b])<<8 | uint64(c2[b])<<16 | uint64(c3[b])<<24 |
				uint64(c4[b])<<32 | uint64(c5[b])<<40 | uint64(c6[b])<<48 | uint64(c7[b])<<56
			// Hacker's Delight §7-3: swap the off-diagonal 1 × 1, 2 × 2 and
			// 4 × 4 blocks.
			t := (x ^ x>>7) & 0x00AA00AA00AA00AA
			x ^= t ^ t<<7
			t = (x ^ x>>14) & 0x0000CCCC0000CCCC
			x ^= t ^ t<<14
			t = (x ^ x>>28) & 0x00000000F0F0F0F0
			x ^= t ^ t<<28
			out := rows[8*b : min(8*b+8, m)]
			for r := range out {
				out[r][g] = byte(x >> (8 * r))
			}
		}
	}
	return rows
}

// SenderBase is the extension sender's half of the base correlation with
// one peer: its secret choice vector s and the 128 seeds k_{s_i} the base
// OTs delivered. It is immutable — a session is a derivation from it
// (Session), not a consumer of it — so any number of sessions, concurrent
// ones included, extend the one base phase.
type SenderBase struct {
	s     [k / 8]byte // packed LSB-first: the row every H(q_j ⊕ s) XORs in
	seeds [k]Msg
}

// NewSenderBase runs the base phase over conn as base-OT receiver with a
// fresh secret choice vector: 128 public-key OTs, once per pair of parties.
func NewSenderBase(conn transport.FrameConn, rng io.Reader) (*SenderBase, error) {
	b := new(SenderBase)
	if _, err := io.ReadFull(rng, b.s[:]); err != nil {
		return nil, fmt.Errorf("ot: sender randomness: %w", err)
	}
	s := make([]bool, k)
	for i := range s {
		s[i] = b.bit(i)
	}
	seeds, err := BaseReceive(conn, rng, s)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (receive): %w", err)
	}
	copy(b.seeds[:], seeds)
	return b, nil
}

func (b *SenderBase) bit(i int) bool { return b.s[i/8]&(1<<uint(i%8)) != 0 }

// Zero wipes the correlation. Sessions derived before it keep working (they
// hold session keys, not the seeds); nothing may be derived after it.
func (b *SenderBase) Zero() { *b = SenderBase{} }

// Session derives the extension sender of the session nonce names, speaking
// over conn. The caller must never pass one base the same nonce twice.
func (b *SenderBase) Session(conn transport.FrameConn, nonce Nonce) *ExtSender {
	es := &ExtSender{conn: conn, s: b.s, h: gc.NewHasher(), idx: firstTweak(nonce)}
	for i, seed := range b.seeds {
		es.streams[i] = prgStream(seed, nonce)
	}
	return es
}

// ExtSender is the IKNP sender: it holds the message pairs in each
// extended OT (the garbler, whose pairs are wire-label pairs).
type ExtSender struct {
	conn    transport.FrameConn
	s       [k / 8]byte      // secret base-OT choices, packed
	streams [k]cipher.Stream // stateful PRG per k_{s_i}, advanced per batch
	h       *gc.Hasher
	idx     uint64
}

// NewExtSender runs the base phase (as base-OT receiver with a secret
// choice vector) and returns a sender ready for Send batches: the session
// of the zero nonce on a base nobody else holds.
func NewExtSender(conn transport.FrameConn, rng io.Reader) (*ExtSender, error) {
	b, err := NewSenderBase(conn, rng)
	if err != nil {
		return nil, err
	}
	return b.Session(conn, Nonce{}), nil
}

// Send runs one extension batch, obliviously transferring pairs[j][r_j]
// for the receiver's hidden choice bits r.
func (es *ExtSender) Send(pairs [][2]Msg) error {
	if len(pairs) == 0 {
		return nil
	}
	u, err := es.conn.Recv(transport.MsgOTExtU)
	if err != nil {
		return err
	}
	return es.SendWithU(pairs, u)
}

// SendWithU is the sender half of one extension batch given an
// already-received U matrix — the entry point for callers that multiplex
// the connection and dispatch frames themselves (the precomputed-OT pool
// receives U behind a refill announcement). Calls must happen in the wire
// order of the U frames: the per-seed PRG streams and the hash counter are
// stateful.
func (es *ExtSender) SendWithU(pairs [][2]Msg, u []byte) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	mBytes := (m + 7) / 8
	if len(u) != ExtULen(m) {
		return fmt.Errorf("ot: U matrix is %d bytes, want %d", len(u), ExtULen(m))
	}
	cols := make([][]byte, k)
	for i := 0; i < k; i++ {
		q := prgNext(es.streams[i], mBytes)
		if es.s[i/8]&(1<<uint(i%8)) != 0 {
			subtle.XORBytes(q, q, u[i*mBytes:(i+1)*mBytes])
		}
		cols[i] = q
	}
	rows := transposeToRows(cols, m)

	// Row hashing goes through the multi-lane face: both hash streams of
	// the batch (H(q_j) and H(q_j ⊕ s), same tweak per row) feed the
	// pipelined 8-lane AES kernel in bulk instead of 2m scalar calls.
	// HN is pinned byte-identical to the scalar path, so the wire bytes
	// are unchanged on every build.
	h0s := make([]gc.Label, m)
	h1s := make([]gc.Label, m)
	tweaks := make([]uint64, m)
	sRow := gc.Label(es.s)
	for j := 0; j < m; j++ {
		qj := gc.Label(rows[j])
		h0s[j] = qj
		h1s[j] = qj.XOR(sRow)
		tweaks[j] = es.idx + uint64(j)
	}
	es.idx += uint64(m)
	es.h.HN(h0s, h0s, tweaks)
	es.h.HN(h1s, h1s, tweaks)

	out := make([]byte, 0, m*2*MsgLen)
	for j := 0; j < m; j++ {
		var y0, y1 Msg
		for b := 0; b < MsgLen; b++ {
			y0[b] = pairs[j][0][b] ^ h0s[j][b]
			y1[b] = pairs[j][1][b] ^ h1s[j][b]
		}
		out = append(out, y0[:]...)
		out = append(out, y1[:]...)
	}
	if err := es.conn.Send(transport.MsgOTExtY, out); err != nil {
		return err
	}
	return es.conn.Flush()
}

// ReceiverBase is the extension receiver's half of the base correlation
// with one peer: the 128 seed pairs it offered in the base OTs. Immutable,
// like SenderBase.
type ReceiverBase struct {
	seeds [k][2]Msg
}

// NewReceiverBase runs the base phase over conn as base-OT sender with
// random seed pairs.
func NewReceiverBase(conn transport.FrameConn, rng io.Reader) (*ReceiverBase, error) {
	b := new(ReceiverBase)
	for i := range b.seeds {
		for c := range b.seeds[i] {
			if _, err := io.ReadFull(rng, b.seeds[i][c][:]); err != nil {
				return nil, fmt.Errorf("ot: receiver randomness: %w", err)
			}
		}
	}
	if err := BaseSend(conn, rng, b.seeds[:]); err != nil {
		return nil, fmt.Errorf("ot: extension base phase (send): %w", err)
	}
	return b, nil
}

// Session derives the extension receiver of the session nonce names,
// speaking over conn. The caller must never pass one base the same nonce
// twice.
func (b *ReceiverBase) Session(conn transport.FrameConn, nonce Nonce) *ExtReceiver {
	er := &ExtReceiver{conn: conn, h: gc.NewHasher(), idx: firstTweak(nonce)}
	for i, pair := range b.seeds {
		er.streams0[i] = prgStream(pair[0], nonce)
		er.streams1[i] = prgStream(pair[1], nonce)
	}
	return er
}

// ExtReceiver is the IKNP receiver (the evaluator, whose choice bits are
// its private input bits).
type ExtReceiver struct {
	conn     transport.FrameConn
	streams0 [k]cipher.Stream // stateful PRGs, advanced per batch
	streams1 [k]cipher.Stream
	h        *gc.Hasher
	idx      uint64
}

// NewExtReceiver runs the base phase (as base-OT sender with random seed
// pairs) and returns a receiver ready for Receive batches: the session of
// the zero nonce on a base nobody else holds.
func NewExtReceiver(conn transport.FrameConn, rng io.Reader) (*ExtReceiver, error) {
	b, err := NewReceiverBase(conn, rng)
	if err != nil {
		return nil, err
	}
	return b.Session(conn, Nonce{}), nil
}

// PreparedReceive carries the receiver-side state of one extension batch
// between building the U matrix and decrypting the sender's Y response.
// The split lets the precomputed-OT pool run the PRG expansion and matrix
// transpose (the receiver's heavy crypto) off the critical path and send
// U at a protocol point of its choosing.
type PreparedReceive struct {
	// U is the masked column matrix to put on the wire (k·ceil(m/8)
	// bytes).
	U       []byte
	choices []bool
	rows    [][16]byte
}

// Prepare runs the receiver's compute half of one extension batch: it
// advances the per-seed PRG streams, builds the U matrix for the wire,
// and transposes the T matrix into hash-ready rows. Prepare calls must
// happen in the wire order of their U frames (the streams are stateful),
// but a Prepare may run on another goroutine as long as no other use of
// the ExtReceiver overlaps it.
func (er *ExtReceiver) Prepare(choices []bool) *PreparedReceive {
	m := len(choices)
	mBytes := (m + 7) / 8
	r := packBits(choices)

	tCols := make([][]byte, k)
	u := make([]byte, k*mBytes)
	for i := 0; i < k; i++ {
		t := prgNext(er.streams0[i], mBytes)
		ui := u[i*mBytes : (i+1)*mBytes]
		er.streams1[i].XORKeyStream(ui, t) // t ⊕ G(k1)
		subtle.XORBytes(ui, ui, r)
		tCols[i] = t
	}
	return &PreparedReceive{
		U:       u,
		choices: append([]bool(nil), choices...),
		rows:    transposeToRows(tCols, m),
	}
}

// Finish decrypts the sender's Y response for a prepared batch and
// returns the chosen messages. Finish calls must happen in the wire order
// of the Y frames (the hash counter is stateful).
func (er *ExtReceiver) Finish(pr *PreparedReceive, y []byte) ([]Msg, error) {
	m := len(pr.choices)
	if len(y) != m*2*MsgLen {
		return nil, fmt.Errorf("ot: Y payload is %d bytes, want %d", len(y), m*2*MsgLen)
	}
	// Bulk row hashing through the 8-lane kernel (see SendWithU); the
	// scalar fallback makes this byte-identical on every build.
	hs := make([]gc.Label, m)
	tweaks := make([]uint64, m)
	for j := 0; j < m; j++ {
		hs[j] = gc.Label(pr.rows[j])
		tweaks[j] = er.idx + uint64(j)
	}
	er.idx += uint64(m)
	er.h.HN(hs, hs, tweaks)
	out := make([]Msg, m)
	for j := 0; j < m; j++ {
		off := j * 2 * MsgLen
		if pr.choices[j] {
			off += MsgLen
		}
		for b := 0; b < MsgLen; b++ {
			out[j][b] = y[off+b] ^ hs[j][b]
		}
	}
	return out, nil
}

// Receive runs one extension batch and returns the chosen messages.
func (er *ExtReceiver) Receive(choices []bool) ([]Msg, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	pr := er.Prepare(choices)
	if err := er.conn.Send(transport.MsgOTExtU, pr.U); err != nil {
		return nil, err
	}
	y, err := er.conn.Recv(transport.MsgOTExtY)
	if err != nil {
		return nil, err
	}
	return er.Finish(pr, y)
}

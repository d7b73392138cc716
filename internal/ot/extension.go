package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"

	"deepsecure/internal/gc"
	"deepsecure/internal/transport"
)

// k is the OT-extension security parameter: the number of base OTs.
const k = 128

// prgStream returns the AES-CTR keystream generator for a 16-byte seed.
// Each extension party keeps one stateful stream per base-OT seed and
// draws the NEXT keystream bytes for every batch: masks are never reused
// across batches, so observing two u-matrices reveals nothing about the
// receiver's choice bits (reusing the stream from offset 0 would leak
// their XOR). Both parties consume exactly mBytes per batch per seed,
// keeping the streams synchronized without communication.
func prgStream(seed Msg) cipher.Stream {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(fmt.Sprintf("ot: prg cipher: %v", err))
	}
	var iv [16]byte
	return cipher.NewCTR(block, iv[:])
}

// prgNext draws the next n keystream bytes from a seed stream.
func prgNext(s cipher.Stream, n int) []byte {
	out := make([]byte, n)
	s.XORKeyStream(out, out)
	return out
}

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
// column).
func transposeToRows(cols [][]byte, m int) [][16]byte {
	rows := make([][16]byte, m)
	for i := 0; i < k; i++ {
		col := cols[i]
		byteIdx := i / 8
		bitMask := byte(1 << uint(i%8))
		for j := 0; j < m; j++ {
			if col[j/8]&(1<<uint(j%8)) != 0 {
				rows[j][byteIdx] |= bitMask
			}
		}
	}
	return rows
}

// ExtSender is the IKNP sender: it holds the message pairs in each
// extended OT (the garbler, whose pairs are wire-label pairs).
type ExtSender struct {
	conn    transport.FrameConn
	s       []bool // secret base-OT choices
	sRow    [16]byte
	streams []cipher.Stream // stateful PRG per k_{s_i}, advanced per batch
	h       *gc.Hasher
	idx     uint64
}

// NewExtSender runs the base phase (as base-OT receiver with a secret
// choice vector) and returns a sender ready for Send batches.
func NewExtSender(conn transport.FrameConn, rng io.Reader) (*ExtSender, error) {
	s := make([]bool, k)
	var buf [k / 8]byte
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return nil, fmt.Errorf("ot: sender randomness: %w", err)
	}
	for i := range s {
		s[i] = buf[i/8]&(1<<uint(i%8)) != 0
	}
	seeds, err := BaseReceive(conn, rng, s)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (receive): %w", err)
	}
	es := &ExtSender{conn: conn, s: s, h: gc.NewHasher()}
	es.streams = make([]cipher.Stream, k)
	for i, seed := range seeds {
		es.streams[i] = prgStream(seed)
	}
	copy(es.sRow[:], packBits(s))
	return es, nil
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
		if es.s[i] {
			ui := u[i*mBytes : (i+1)*mBytes]
			for j := range q {
				q[j] ^= ui[j]
			}
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
	sRow := gc.Label(es.sRow)
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

// ExtReceiver is the IKNP receiver (the evaluator, whose choice bits are
// its private input bits).
type ExtReceiver struct {
	conn     transport.FrameConn
	streams0 []cipher.Stream // stateful PRGs, advanced per batch
	streams1 []cipher.Stream
	h        *gc.Hasher
	idx      uint64
}

// NewExtReceiver runs the base phase (as base-OT sender with random seed
// pairs) and returns a receiver ready for Receive batches.
func NewExtReceiver(conn transport.FrameConn, rng io.Reader) (*ExtReceiver, error) {
	er := &ExtReceiver{conn: conn, h: gc.NewHasher()}
	pairs := make([][2]Msg, k)
	er.streams0 = make([]cipher.Stream, k)
	er.streams1 = make([]cipher.Stream, k)
	for i := 0; i < k; i++ {
		var seed0, seed1 Msg
		if _, err := io.ReadFull(rng, seed0[:]); err != nil {
			return nil, fmt.Errorf("ot: receiver randomness: %w", err)
		}
		if _, err := io.ReadFull(rng, seed1[:]); err != nil {
			return nil, fmt.Errorf("ot: receiver randomness: %w", err)
		}
		er.streams0[i] = prgStream(seed0)
		er.streams1[i] = prgStream(seed1)
		pairs[i] = [2]Msg{seed0, seed1}
	}
	if err := BaseSend(er.conn, rng, pairs); err != nil {
		return nil, fmt.Errorf("ot: extension base phase (send): %w", err)
	}
	return er, nil
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
	u := make([]byte, 0, k*mBytes)
	for i := 0; i < k; i++ {
		t := prgNext(er.streams0[i], mBytes)
		g1 := prgNext(er.streams1[i], mBytes)
		ui := make([]byte, mBytes)
		for j := range ui {
			ui[j] = t[j] ^ g1[j] ^ r[j]
		}
		tCols[i] = t
		u = append(u, ui...)
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

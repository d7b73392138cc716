package ot

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"deepsecure/internal/gc"
	"deepsecure/internal/transport"
)

// k is the OT-extension security parameter: the number of base OTs.
const k = 128

// Column i of an extension runs on the AES-CTR keystream (zero IV) under
// base seed i (gc.XORKeyStream). Each extension party keeps its seeds and
// the one byte offset every column has reached, and each batch draws the
// NEXT keystream bytes of every column: masks are never reused across
// batches, so observing two u-matrices reveals nothing about the
// receiver's choice bits (reusing the stream from offset 0 would leak their
// XOR). Both parties advance the offset by exactly mBytes per batch,
// keeping the streams synchronized without communication.

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

// transposeToRows converts 128 column bit-vectors (column i holds m bits
// packed LSB-first at cols[i·mBytes:]) into m rows of 16 bytes at
// rows[16j:] (row j holds bit j of every column). It moves 64 × 64-bit
// blocks: the eight bytes that 64 rows take in each of 64 columns load as
// 64 words, transpose64 turns them, and each word stores as 8 bytes of one
// row (fewer rows in a ragged tail, whose padding bits are dropped).
func transposeToRows(rows, cols []byte, m int) {
	mBytes := (m + 7) / 8
	var a [64]uint64
	for j0 := 0; j0 < m; j0 += 64 {
		b0, n := j0/8, min(64, m-j0)
		for half := 0; half < k/64; half++ {
			// A ragged tail's word runs on into the next column, whose
			// bits land in rows past m, except where cols ends.
			col := cols[64*half*mBytes+b0:]
			for i := range a {
				if w := col[i*mBytes:]; len(w) >= 8 {
					a[i] = binary.LittleEndian.Uint64(w)
				} else {
					var last [8]byte
					copy(last[:], w)
					a[i] = binary.LittleEndian.Uint64(last[:])
				}
			}
			transpose64(&a)
			out := rows[16*j0+8*half:]
			for r := range n {
				binary.LittleEndian.PutUint64(out[16*r:], a[r])
			}
		}
	}
}

// transpose64 transposes the 64 × 64 bit matrix whose row i is a[i], bit j
// of it column j (Hacker's Delight §7-3): six rounds swap the off-diagonal
// 32 × 32, 16 × 16, … 1 × 1 blocks, each the bits of a[i] that m<<j selects
// with those of a[i+j] that m selects, for every i whose bit j is clear.
// The rounds commute, so they run in two passes of three, each over eight
// words at a time held in registers: the rounds of 32, 16 and 8 over the
// words i, i+8, …, i+56, then those of 4, 2 and 1 over eight neighbours.
func transpose64(a *[64]uint64) {
	for i := 0; i < 8; i++ {
		x0, x1, x2, x3, x4, x5, x6, x7 := a[i], a[i+8], a[i+16], a[i+24], a[i+32], a[i+40], a[i+48], a[i+56]
		x0, x4 = swap(x0, x4, 32)
		x1, x5 = swap(x1, x5, 32)
		x2, x6 = swap(x2, x6, 32)
		x3, x7 = swap(x3, x7, 32)
		x0, x2 = swap(x0, x2, 16)
		x1, x3 = swap(x1, x3, 16)
		x4, x6 = swap(x4, x6, 16)
		x5, x7 = swap(x5, x7, 16)
		x0, x1 = swap(x0, x1, 8)
		x2, x3 = swap(x2, x3, 8)
		x4, x5 = swap(x4, x5, 8)
		x6, x7 = swap(x6, x7, 8)
		a[i], a[i+8], a[i+16], a[i+24], a[i+32], a[i+40], a[i+48], a[i+56] = x0, x1, x2, x3, x4, x5, x6, x7
	}
	for i := 0; i < 64; i += 8 {
		w := (*[8]uint64)(a[i : i+8])
		x0, x1, x2, x3, x4, x5, x6, x7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
		x0, x4 = swap(x0, x4, 4)
		x1, x5 = swap(x1, x5, 4)
		x2, x6 = swap(x2, x6, 4)
		x3, x7 = swap(x3, x7, 4)
		x0, x2 = swap(x0, x2, 2)
		x1, x3 = swap(x1, x3, 2)
		x4, x6 = swap(x4, x6, 2)
		x5, x7 = swap(x5, x7, 2)
		x0, x1 = swap(x0, x1, 1)
		x2, x3 = swap(x2, x3, 1)
		x4, x5 = swap(x4, x5, 1)
		x6, x7 = swap(x6, x7, 1)
		w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = x0, x1, x2, x3, x4, x5, x6, x7
	}
}

// swap is the block swap of the round of j between words x and y, j words
// apart: the low j bits of every 2j-bit group of y trade places with the
// high j bits of x's.
func swap(x, y uint64, j uint) (uint64, uint64) {
	m := ^uint64(0) / (1<<j + 1) // the low j bits of every 2j-bit group
	t := (x>>j ^ y) & m
	return x ^ t<<j, y ^ t
}

// bytesOf views labels as the bytes they hold, in order: a Y payload is its
// pads, a block of rows its labels.
func bytesOf(ls []gc.Label) []byte {
	if len(ls) == 0 {
		return nil
	}
	return unsafe.Slice(&ls[0][0], len(ls)*MsgLen)
}

// flat views message pairs as the labels they hold, pair j's at 2j and
// 2j+1.
func flat(pairs [][2]Msg) []gc.Label {
	if len(pairs) == 0 {
		return nil
	}
	return unsafe.Slice(&pairs[0][0], 2*len(pairs))
}

// ExtSender is the IKNP sender: it holds the message pairs in each
// extended OT (the garbler, whose pairs are wire-label pairs).
type ExtSender struct {
	conn transport.FrameConn
	s    [k / 8]byte // secret base-OT choices, packed LSB-first: the s of H(q_j ⊕ s)
	b    [][]byte    // the base OTs' scalars b_i, until Ready keys the columns
	keys [k]gc.Label // column i's key, the seed k_{s_i} the base OTs delivered
	off  uint64      // keystream bytes every column has drawn
	h    *gc.Hasher
	idx  uint64
	buf  []gc.Label // Send's Y payload, or Pads' q columns, grown once per extension
}

// NewExtSender opens the base phase over conn as base-OT receiver of a fresh
// secret choice vector: it sends and flushes its points; Ready reads A.
func NewExtSender(conn transport.FrameConn, rng io.Reader) (*ExtSender, error) {
	es := &ExtSender{conn: conn, h: gc.NewHasher()}
	if _, err := io.ReadFull(rng, es.s[:]); err != nil {
		return nil, fmt.Errorf("ot: sender randomness: %w", err)
	}
	bs, points, err := baseChoose(rng, es.s[:])
	if err == nil {
		if err = conn.Send(transport.MsgOTBase, points); err == nil {
			err = conn.Flush()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (receive): %w", err)
	}
	es.b = bs
	return es, nil
}

// Ready ends the base phase, once: it reads the base-OT sender's point A
// and keys column i with H(i ‖ b_i·A). Send calls it; a caller that reads
// U itself, for Pads, calls it first.
func (es *ExtSender) Ready() error {
	if es.b == nil {
		return nil
	}
	a, err := es.conn.Recv(transport.MsgOTBase)
	if err == nil {
		err = baseKeys(es.keys[:], a, es.b)
	}
	if err != nil {
		return fmt.Errorf("ot: extension base phase (receive): %w", err)
	}
	es.b = nil
	return nil
}

// Send runs one extension batch, obliviously transferring pairs[j][r_j]
// for the receiver's hidden choice bits r: it receives the U matrix,
// computes the batch's pads (Pads) and sends pairs[j][b] ⊕ pad[j][b] as
// MsgOTExtY.
func (es *ExtSender) Send(pairs [][2]Msg) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	if err := es.Ready(); err != nil {
		return err
	}
	u, err := es.conn.Recv(transport.MsgOTExtU)
	if err != nil {
		return err
	}
	// The U frame is this party's own, so the q columns are built in it.
	y := es.grow(2 * m)
	if err := es.pads(u, u, y); err != nil {
		return err
	}
	yb := bytesOf(y)
	subtle.XORBytes(yb, yb, bytesOf(flat(pairs)))
	if err := es.conn.Send(transport.MsgOTExtY, yb); err != nil {
		return err
	}
	return es.conn.Flush()
}

// Pads is the sender half of one random-OT extension batch: given the
// receiver's U matrix it writes row j's pair (H(q_j), H(q_j ⊕ s)), hashed
// under tweak idx+j, into pads[j] for every j < len(pads), and sends
// nothing. The receiver's Pads yields pads[j][c_j] for its choice bit c_j;
// pads[j][1−c_j] is pseudorandom to it. Pads calls, Send's included,
// must happen in the wire order of the U frames: the column keystreams
// and the hash counter are stateful. The base phase must be over (Ready):
// its A travels ahead of the first U.
func (es *ExtSender) Pads(u []byte, pads [][2]Msg) error {
	return es.pads(u, bytesOf(es.grow(8*((len(pads)+7)/8))), flat(pads))
}

// grow returns the extension's scratch buffer at n labels.
func (es *ExtSender) grow(n int) []gc.Label {
	if cap(es.buf) < n {
		es.buf = make([]gc.Label, n)
	}
	return es.buf[:n]
}

// pads is Pads into dst, row j's pair at dst[2j] and dst[2j+1], building
// the q columns in cols (k·mBytes bytes), which may be u itself. Between
// the transpose and the hash the rows wait in dst's upper half: a wave that
// has read rows up to j writes pairs up to j, at or below row j+1's place.
func (es *ExtSender) pads(u, cols []byte, dst []gc.Label) error {
	m := len(dst) / 2
	mBytes := (m + 7) / 8
	if len(u) != ExtULen(m) {
		return fmt.Errorf("ot: U matrix is %d bytes, want %d", len(u), ExtULen(m))
	}
	// q_i = G(k_{s_i}) ⊕ s_i·u_i.
	for i := range k {
		q := cols[i*mBytes : (i+1)*mBytes]
		if es.s[i/8]&(1<<uint(i%8)) != 0 {
			copy(q, u[i*mBytes:])
		} else {
			clear(q)
		}
	}
	gc.XORKeyStream(cols, cols, es.keys[:], es.off)
	es.off += uint64(mBytes)
	rows := dst[m:]
	transposeToRows(bytesOf(rows), cols, m)

	// Both hashes of a row share its tweak and go through the multi-lane
	// face in waves, half a wave of rows at a time. HN is pinned
	// byte-identical to the scalar path on every build.
	const rowsPerWave = gc.HashLanes / 2
	var wave [gc.HashLanes]gc.Label
	var tweaks [gc.HashLanes]uint64
	sRow := gc.Label(es.s)
	for j0 := 0; j0 < m; j0 += rowsPerWave {
		n := min(m-j0, rowsPerWave)
		for i := range n {
			q := rows[j0+i]
			wave[2*i], wave[2*i+1] = q, q.XOR(sRow)
			tweaks[2*i] = es.idx + uint64(j0+i)
			tweaks[2*i+1] = tweaks[2*i]
		}
		es.h.HN(dst[2*j0:2*(j0+n)], wave[:2*n], tweaks[:2*n])
	}
	es.idx += uint64(m)
	return nil
}

// ExtReceiver is the IKNP receiver (the evaluator, whose choice bits are
// its private input bits).
type ExtReceiver struct {
	conn transport.FrameConn
	keys [2][k]gc.Label // keys[c][i] is column i's seed k_i^c, as offered in the base OTs
	off  uint64         // keystream bytes every column has drawn
	h    *gc.Hasher
	idx  uint64
	buf  []byte // Receive's U matrix, grown once per extension
}

// NewExtReceiver reads the sender's 128 points over conn and answers them.
func NewExtReceiver(conn transport.FrameConn, rng io.Reader) (*ExtReceiver, error) {
	points, err := conn.Recv(transport.MsgOTBase)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (send): %w", err)
	}
	return AnswerBase(conn, rng, points)
}

// AnswerBase is NewExtReceiver for points the caller read: it derives the
// seed pairs and queues A on conn unflushed, to leave with the first U.
func AnswerBase(conn transport.FrameConn, rng io.Reader, points []byte) (*ExtReceiver, error) {
	er := &ExtReceiver{conn: conn, h: gc.NewHasher()}
	a, err := baseSend(&er.keys, rng, points)
	if err == nil {
		err = conn.Send(transport.MsgOTBase, a)
	}
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (send): %w", err)
	}
	return er, nil
}

// Pads is the receiver half of one random-OT extension batch: it returns
// the U matrix for the caller to put on the wire and row j's H(t_j) under
// tweak idx+j, which is the sender's pad[j][c_j]. It sends nothing. Pads
// calls, Receive's included, must happen in the wire order of their U
// frames: the column keystreams and the hash counter are stateful.
func (er *ExtReceiver) Pads(choices []bool) (u []byte, pads []Msg) {
	u, pads = make([]byte, ExtULen(len(choices))), make([]Msg, len(choices))
	er.prepare(choices, u, pads)
	er.hashRows(pads)
	return u, pads
}

// prepare builds one batch's U matrix in u (k·ceil(m/8) bytes) and the T
// matrix's rows in rows. The T columns t_i = G(k_i^0) are built in u
// itself: once they are transposed, each becomes u_i = t_i ⊕ G(k_i^1) ⊕ r
// in place.
func (er *ExtReceiver) prepare(choices []bool, u []byte, rows []Msg) {
	m := len(choices)
	mBytes := (m + 7) / 8
	clear(u)
	gc.XORKeyStream(u, u, er.keys[0][:], er.off)
	transposeToRows(bytesOf(rows), u, m)
	r := packBits(choices)
	for i := range k {
		col := u[i*mBytes : (i+1)*mBytes]
		subtle.XORBytes(col, col, r)
	}
	gc.XORKeyStream(u, u, er.keys[1][:], er.off)
	er.off += uint64(mBytes)
}

// hashRows hashes rows in place, row j to H(t_j) under tweak idx+j.
func (er *ExtReceiver) hashRows(rows []Msg) {
	var tweaks [gc.HashLanes]uint64
	for j0 := 0; j0 < len(rows); j0 += gc.HashLanes {
		n := min(len(rows)-j0, gc.HashLanes)
		for i := range n {
			tweaks[i] = er.idx + uint64(j0+i)
		}
		er.h.HN(rows[j0:j0+n], rows[j0:j0+n], tweaks[:n])
	}
	er.idx += uint64(len(rows))
}

// Receive runs one extension batch and returns the chosen messages.
func (er *ExtReceiver) Receive(choices []bool) ([]Msg, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	if cap(er.buf) < ExtULen(m) {
		er.buf = make([]byte, ExtULen(m))
	}
	u, out := er.buf[:ExtULen(m)], make([]Msg, m)
	er.prepare(choices, u, out)
	if err := er.conn.Send(transport.MsgOTExtU, u); err != nil {
		return nil, err
	}
	y, err := er.conn.Recv(transport.MsgOTExtY)
	if err != nil {
		return nil, err
	}
	// Y's half for choice c_j XOR the batch's pads.
	if len(y) != m*2*MsgLen {
		return nil, fmt.Errorf("ot: Y payload is %d bytes, want %d", len(y), m*2*MsgLen)
	}
	er.hashRows(out)
	for j, c := range choices {
		off := j * 2 * MsgLen
		if c {
			off += MsgLen
		}
		out[j] = out[j].XOR(gc.Label(y[off:]))
	}
	return out, nil
}

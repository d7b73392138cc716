// Package precomp is an OT pool: random OTs generated ahead of time, each
// consumed by one online transfer. No session uses it — a session
// transfers its weight labels once, at set-up (internal/core) — and it is
// kept for bench/layers.go only, whose precomp.* rows time it, until the
// benchmark's next change drops those rows and this package with them.
//
// A fill is one random-OT extension in which every choice bit is 0: the
// sender banks row j's pad pair (r0, r1) = (H(q_j), H(q_j ⊕ s)), the
// receiver banks r0 = H(t_j), and nothing is sent back. Transferring a
// real pair (x0, x1) through the next unused entry is one message, sender
// to receiver, and XORs only:
//
//	sender → receiver:  y0 = x0 ⊕ r0, y1 = x1 ⊕ r1      (MsgOTMasked)
//	receiver:           x0 = y0 ⊕ r0
//
// r1 is pseudorandom to the receiver, by IKNP's own guarantee, so it
// learns x0 alone. Both parties take entries in order and clear each one
// as it is taken: no entry masks two pairs.
package precomp

import (
	"encoding/binary"
	"fmt"
	"io"

	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// PoolConfig sizes the receiver's pool.
type PoolConfig struct {
	// Capacity is the number of entries Announce fills, within
	// [1, 2^26]. A transfer larger than what remains fills
	// max(Capacity, its shortfall) more first.
	Capacity int
	// Background does nothing: every fill runs on the goroutine that
	// announces it. It stays because bench/ sets it.
	Background bool
}

// maxFill bounds a single fill so a corrupted or hostile count fails fast
// instead of forcing an absurd allocation.
const maxFill = 1 << 26

// ChoiceError reports a true choice bit: a pool entry's choice is 0, so
// only pairs[j][0] can be received through it.
type ChoiceError struct{ OT int }

func (e *ChoiceError) Error() string {
	return fmt.Sprintf("precomp: choice bit of OT %d is true; a pool entry's choice is 0", e.OT)
}

// ReceiverPool is the evaluator-side pool: it banks r0 of every entry and
// announces every fill. Not safe for concurrent use.
type ReceiverPool struct {
	conn transport.FrameConn
	ots  *ot.ExtReceiver
	cfg  PoolConfig
	pads []ot.Msg // the unused entries, next first
}

// NewReceiverPool wraps an extension receiver. The pool draws no
// randomness of its own (its choice bits are 0); the rng parameter stays
// because bench/ passes one.
func NewReceiverPool(conn transport.FrameConn, ots *ot.ExtReceiver, _ io.Reader, cfg PoolConfig) *ReceiverPool {
	return &ReceiverPool{conn: conn, ots: ots, cfg: cfg}
}

// Abort does nothing: the pool runs no work of its own to stop. It stays
// because bench/ calls it.
func (p *ReceiverPool) Abort() {}

// Announce runs the pool's first fill, of Capacity entries. A capacity
// outside [1, 2^26] fails here, before any frame reaches the peer.
func (p *ReceiverPool) Announce() error { return p.fill(p.cfg.Capacity) }

// fill runs one random-OT extension of n entries with choice bits 0,
// banks its pads and sends MsgOTRefill (uvarint n) and the U matrix as
// MsgOTExtU. Nothing comes back.
func (p *ReceiverPool) fill(n int) error {
	if n < 1 || n > maxFill {
		return fmt.Errorf("precomp: fill of %d OTs outside [1, %d]", n, maxFill)
	}
	u, pads := p.ots.Pads(make([]bool, n))
	p.pads = append(p.pads, pads...)
	if err := p.conn.Send(transport.MsgOTRefill, binary.AppendUvarint(nil, uint64(n))); err != nil {
		return err
	}
	if err := p.conn.Send(transport.MsgOTExtU, u); err != nil {
		return err
	}
	return p.conn.Flush()
}

// Receive obtains pairs[j][0] of the sender's Send, in lock-step with it,
// through the next len(choices) entries, filling inline first when fewer
// remain. Every choice must be false: a true one is refused with a
// *ChoiceError before anything is sent.
func (p *ReceiverPool) Receive(choices []bool) ([]ot.Msg, error) {
	n := len(choices)
	if n == 0 {
		return nil, nil
	}
	for j, c := range choices {
		if c {
			return nil, &ChoiceError{j}
		}
	}
	if short := n - len(p.pads); short > 0 {
		if err := p.fill(max(p.cfg.Capacity, short)); err != nil {
			return nil, err
		}
	}
	pads := p.pads[:n]
	p.pads = p.pads[n:]
	defer clear(pads)
	y, err := p.conn.Recv(transport.MsgOTMasked)
	if err != nil {
		return nil, err
	}
	if len(y) != n*2*ot.MsgLen {
		return nil, fmt.Errorf("precomp: masked-label frame is %d bytes, want %d for %d OTs", len(y), n*2*ot.MsgLen, n)
	}
	out := make([]ot.Msg, n)
	for j := range out {
		out[j] = pads[j].XOR(ot.Msg(y[j*2*ot.MsgLen:]))
	}
	return out, nil
}

// SenderPool is the garbler-side pool: it banks the pad pairs of the
// receiver's fills and answers none. Not safe for concurrent use.
type SenderPool struct {
	conn transport.FrameConn
	ots  *ot.ExtSender
	pads [][2]ot.Msg // the unused entries, next first
}

// NewSenderPool wraps an extension sender whose base phase is over (Send
// or Ready ran). The pool draws no randomness of its own (its pads are the
// extension's row hashes); the rng parameter stays because bench/ passes one.
func NewSenderPool(conn transport.FrameConn, ots *ot.ExtSender, _ io.Reader) *SenderPool {
	return &SenderPool{conn: conn, ots: ots}
}

// HandleAnnounce banks the receiver's next fill: it reads MsgOTRefill,
// whose count must lie in [1, 2^26], bounds the MsgOTExtU that follows to
// that many OTs, and banks the pad pairs that U yields.
func (p *SenderPool) HandleAnnounce() error {
	payload, err := p.conn.Recv(transport.MsgOTRefill)
	if err != nil {
		return err
	}
	n, k := binary.Uvarint(payload)
	if k <= 0 || k != len(payload) || n < 1 || n > maxFill {
		return fmt.Errorf("precomp: fill frame %x is not one count in [1, %d]", payload, maxFill)
	}
	// Pin U's size where the reader can refuse a frame by its header,
	// before allocating the payload (transport.Conn).
	if l, ok := p.conn.(interface {
		SetLimit(transport.MsgType, int)
	}); ok {
		l.SetLimit(transport.MsgOTExtU, ot.ExtULen(int(n)))
	}
	u, err := p.conn.Recv(transport.MsgOTExtU)
	if err != nil {
		return err
	}
	fresh := make([][2]ot.Msg, n)
	if err := p.ots.Pads(u, fresh); err != nil {
		return err
	}
	p.pads = append(p.pads, fresh...)
	return nil
}

// Send transfers pairs[j][0] to the receiver's Receive, in lock-step with
// it, masking each pair with the next unused entry into one MsgOTMasked
// frame. When fewer entries remain than pairs, the receiver fills first,
// and Send banks that fill before it masks.
func (p *SenderPool) Send(pairs [][2]ot.Msg) error {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	if len(p.pads) < n {
		if err := p.HandleAnnounce(); err != nil {
			return err
		}
		if len(p.pads) < n {
			return fmt.Errorf("precomp: %d pooled OTs for a transfer of %d", len(p.pads), n)
		}
	}
	pads := p.pads[:n]
	p.pads = p.pads[n:]
	defer clear(pads)
	y := make([]byte, 0, n*2*ot.MsgLen)
	for j, pr := range pairs {
		y0, y1 := pr[0].XOR(pads[j][0]), pr[1].XOR(pads[j][1])
		y = append(append(y, y0[:]...), y1[:]...)
	}
	if err := p.conn.Send(transport.MsgOTMasked, y); err != nil {
		return err
	}
	return p.conn.Flush()
}

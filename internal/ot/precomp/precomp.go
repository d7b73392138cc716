// Package precomp is the offline OT-precomputation subsystem: a keyed OT
// pool that moves the IKNP extension off the inference critical path and
// leaves the online phase without a single receiver→sender message.
//
// The receiver (the evaluator) asks for the same choice bits in the same
// order in every inference of a session: the model's weight bits, W of
// them. So the pool is keyed with them. Pool entry q — an absolute
// sequence number, never reused — is generated by a chosen-choice IKNP
// extension with receiver choice key[q mod W]: the sender banks a random
// pair (r0[q], r1[q]), the receiver banks r_key[q]. Online, transferring a
// real pair (x0, x1) through entry q is one
// message, sender to receiver, and XORs only:
//
//	sender → receiver:  y0 = x0 ⊕ r0[q], y1 = x1 ⊕ r1[q]      (MsgOTMasked)
//	receiver:           x_key = y_key ⊕ r_key[q]
//
// Each (r0, r1) masks one label pair once, the receiver holds exactly one
// of the two, and no function of the choice bits is ever sent.
//
// An inference owns a Range of B·W consecutive entries (B samples), which
// both parties assign in inference order with Reserve. Nothing holds a
// turn across a network wait: ranges are disjoint, so in-flight inferences
// consume their entries in any interleaving.
//
// The receiver owns the pool policy: it announces the pool after the
// OT-extension base phase, performs the initial fill there, and announces a
// refill (MsgOTRefill + MsgOTExtU) whenever a Reserve leaves the pool
// below low water or short of the range itself. The sender answers a
// refill (MsgOTExtY) wherever it happens to read, and waits for one only
// when its own pool does not cover the range it is about to mask.
//
// Every entry is consumed at most once: consumed entries are zeroed, a
// zero entry refuses to be taken again, and exhaustion waits on a refill
// instead of ever reusing an entry.
//
// This is the only way evaluator-input labels are transferred: there is no
// per-step IKNP exchange to fall back to, and a peer that asks for one (a
// pool of capacity 0, a MsgOTExtU no refill announced) gets a PeerError.
package precomp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// PoolConfig sizes the receiver-driven OT pool.
type PoolConfig struct {
	// Capacity is the pool size targeted by the initial fill and by each
	// refill. 0 sizes the pool from the program (see Sized).
	Capacity int
	// RefillLowWater triggers a refill once the unassigned pool drops
	// below it. 0 defaults to Capacity/4, what every non-test caller runs;
	// the field stays because the refill-shape tests force mid-inference
	// refills with it. A refill also triggers unconditionally when a range
	// needs more OTs than remain.
	RefillLowWater int
	// Background starts each refill's receiver-side crypto (PRG expansion
	// + transpose) on a helper goroutine the moment the refill is decided,
	// instead of on the goroutine that later announces it.
	Background bool
}

// Sized returns the configuration a pool keyed with w choice bits runs
// with on a session of up to window inferences in flight, defaults
// resolved: a zero Capacity becomes w × window — one fill covers every
// range a full window can own — within what a single refill may carry, and
// RefillLowWater the mark the pool actually refills at.
func (c PoolConfig) Sized(w, window int) PoolConfig {
	if c.Capacity == 0 {
		c.Capacity = min(max(w*window, 1), maxRefill)
	}
	c.RefillLowWater = c.lowWater()
	return c
}

func (c PoolConfig) lowWater() int {
	lw := c.Capacity / 4
	if c.RefillLowWater > 0 {
		lw = c.RefillLowWater
	}
	// A low-water mark at or above capacity would demand a refill from a
	// full pool: clamp it so "full" always satisfies the policy and
	// misconfigured flags degrade to refill-to-capacity after every range
	// instead of wedging the session.
	if lw >= c.Capacity {
		lw = c.Capacity - 1
	}
	return lw
}

// maxRefill bounds a single announced refill so a corrupted or hostile
// count fails fast instead of forcing an absurd allocation.
const maxRefill = 1 << 26

// PeerError reports a peer that left the pool protocol for the per-step
// IKNP exchange this protocol does not have: it announced a pool of
// capacity 0, or sent an extension request no refill announced.
type PeerError struct{ Did string }

func (e *PeerError) Error() string { return "precomp: peer " + e.Did }

// recordRefill books one banked fill of n entries whose exchange took
// elapsed, and the pool depth it leaves.
func recordRefill(s *obs.Set, role obs.OTRole, n int, elapsed time.Duration, depth int) {
	s.OTPooled.Add(int64(n))
	s.OTRefills.Inc()
	s.OTOfflineTime.Add(int64(elapsed))
	s.Phase[obs.PhaseOTRefill].Observe(int64(elapsed))
	s.OTPoolDepth[role].Set(int64(depth))
}

// recordStep books one input step of m pooled OTs that took elapsed.
func recordStep(s *obs.Set, m int, elapsed time.Duration) {
	s.OTConsumed.Add(int64(m))
	s.Phase[obs.PhaseOTDerand].Observe(int64(elapsed))
}

// readCounts parses a MsgOTRefill payload of exactly want uvarints.
func readCounts(payload []byte, want int) ([2]int, error) {
	var out [2]int
	for i := 0; i < want; i++ {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return out, fmt.Errorf("precomp: malformed refill frame")
		}
		if v > maxRefill {
			return out, fmt.Errorf("precomp: refill count %d exceeds limit %d", v, maxRefill)
		}
		out[i], payload = int(v), payload[n:]
	}
	if len(payload) != 0 {
		return out, fmt.Errorf("precomp: %d trailing bytes in refill frame", len(payload))
	}
	return out, nil
}

func countsPayload(vs ...int) []byte {
	buf := make([]byte, 0, len(vs)*binary.MaxVarintLen64)
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// setLimit pins the size of the next type-t frame on connections whose
// reader can refuse a frame by its header, before allocating the payload
// (transport.Conn and the session's views of it).
func setLimit(conn transport.FrameConn, t transport.MsgType, n int) {
	if l, ok := conn.(interface {
		SetLimit(transport.MsgType, int)
	}); ok {
		l.SetLimit(t, n)
	}
}

// Range is the run of pool entries one inference owns: B·W consecutive
// sequence numbers from Q0, sample s's evaluator-input bit c at
// Q0 + s·W + c. A B=1 range is the plain run Q0 … Q0+W-1, so a one-sample
// batch consumes exactly what a single inference does.
type Range struct {
	Q0   int64
	B, W int
}

// At returns the entry of sample s's evaluator-input bit c.
func (r Range) At(s, c int) int64 { return r.Q0 + int64(s)*int64(r.W) + int64(c) }

// End returns one past the range's last entry.
func (r Range) End() int64 { return r.Q0 + int64(r.B)*int64(r.W) }

// chunk is one fill's entries, sequence numbers start … start+len(e)-1.
type chunk[T comparable] struct {
	start int64
	e     []T
	left  int // entries not yet taken; the chunk is dropped at zero
}

// store banks pool entries by absolute sequence number. Ranges are taken
// in any interleaving, so there is no head to advance: a taken entry is
// zeroed where it lies, and a fill's chunk is released once all of it is
// gone.
type store[T comparable] struct {
	chunks []*chunk[T]
	end    int64 // one past the last banked sequence number
}

func (s *store[T]) add(e []T) {
	s.chunks = append(s.chunks, &chunk[T]{start: s.end, e: e, left: len(e)})
	s.end += int64(len(e))
}

// take removes entry q. A zero entry is one that was taken before (a
// generated one is zero with probability 2^-128): it is refused, so a
// reuse is an error here and not a two-time pad on the wire.
func (s *store[T]) take(q int64) (T, error) {
	var zero T
	for i, c := range s.chunks {
		if q < c.start || q >= c.start+int64(len(c.e)) {
			continue
		}
		v := c.e[q-c.start]
		if v == zero {
			return zero, fmt.Errorf("precomp: pooled OT %d was already consumed", q)
		}
		c.e[q-c.start] = zero
		if c.left--; c.left == 0 {
			s.chunks = append(s.chunks[:i], s.chunks[i+1:]...)
		}
		return v, nil
	}
	return zero, fmt.Errorf("precomp: OT %d is not pooled (pool ends at %d)", q, s.end)
}

// refill is one decided fill exchange on the receiver.
type refill struct {
	start int64 // first sequence number it generates
	n     int
	// pr is the prepared receiver state; written once under prepMu and
	// mu, before the refill is announced.
	pr *ot.PreparedReceive
}

// ReceiverPool is the evaluator-side pool: it banks r_key[q], owns the
// refill policy, and announces every fill (the sender reacts). One pool
// per session. Reserve, FinishRefill, RecvStep, Cover and SendRefills may
// be called from different goroutines (a pipelined session's reader and
// its in-flight inferences); refill announcements go out on whichever
// goroutine calls Cover/SendRefills, so conn must serialize writes when
// more than one does.
type ReceiverPool struct {
	conn transport.FrameConn
	ots  *ot.ExtReceiver
	cfg  PoolConfig

	mu  sync.Mutex
	key []bool // choice bit of entry q is key[q mod len(key)]; unkeyed = all false
	// next is the first unassigned sequence number and asked one past the
	// last entry any decided refill generates (asked ≥ next: a range that
	// the pool cannot cover decides the refill that does). refills holds
	// the decided fills whose answer has not been banked, oldest first;
	// the first sent of them are on the wire and sentEnd is one past the
	// last entry those generate.
	next, asked, sentEnd int64
	refills              []*refill
	sent                 int
	bank                 store[ot.Msg]
	aborted              bool

	set *obs.Set // the ledger this pool records in

	prepMu sync.Mutex // serializes ExtReceiver.Prepare, in refill order
	sendMu sync.Mutex // serializes SendRefills
}

// NewReceiverPool wraps a session's extension receiver. The receiver
// draws no randomness of its own (its choice bits are the key); the rng
// parameter remains for callers written against the sender's signature.
func NewReceiverPool(conn transport.FrameConn, ots *ot.ExtReceiver, _ io.Reader, cfg PoolConfig) *ReceiverPool {
	return &ReceiverPool{conn: conn, ots: ots, cfg: cfg, set: obs.NewSet(obs.Root)}
}

// SetMetrics makes the pool record into its owner's ledger — the
// session's — instead of one of its own under obs.Root. Call before
// Announce.
func (p *ReceiverPool) SetMetrics(s *obs.Set) { p.set = s }

// SetKey installs the choice bits every fill is generated with: entry q
// gets bits[q mod len(bits)]. Call before Announce. Without a key the
// pool is the all-false key of width 0.
func (p *ReceiverPool) SetKey(bits []bool) { p.key = bits }

func (p *ReceiverPool) keyBit(q int64) bool {
	return len(p.key) > 0 && p.key[q%int64(len(p.key))]
}

// Seq returns the first sequence number no range owns yet. It is strictly
// monotone: tests use it to prove that ranges never overlap.
func (p *ReceiverPool) Seq() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// Available returns the number of banked OTs no range owns yet.
func (p *ReceiverPool) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.available()
}

func (p *ReceiverPool) available() int { return int(max(p.bank.end-p.next, 0)) }

// Abort stops the pool deciding further refills: session teardown.
func (p *ReceiverPool) Abort() {
	p.mu.Lock()
	p.aborted = true
	p.mu.Unlock()
}

// Announce opens the pool protocol after the OT base phase: it tells the
// sender the pool's capacity and key width and performs the initial bulk
// fill — the session-setup offline phase. A capacity outside [1, maxRefill]
// (a zero one is PoolConfig.Sized's to resolve first) fails here, locally,
// before any frame reaches the peer.
func (p *ReceiverPool) Announce() error {
	if p.cfg.Capacity < 1 || p.cfg.Capacity > maxRefill {
		return fmt.Errorf("precomp: pool capacity %d outside [1, %d]", p.cfg.Capacity, maxRefill)
	}
	if err := p.conn.Send(transport.MsgOTRefill, countsPayload(p.cfg.Capacity, len(p.key))); err != nil {
		return err
	}
	p.mu.Lock()
	p.decide(p.cfg.Capacity)
	p.mu.Unlock()
	if err := p.SendRefills(); err != nil {
		return err
	}
	y, err := p.conn.Recv(transport.MsgOTExtY)
	if err != nil {
		return err
	}
	return p.FinishRefill(y)
}

// Reserve assigns the next b·W entries to one inference of b samples and
// decides the refill the policy calls for. Both parties reserve in
// inference order, so they agree on every range without a message.
func (p *ReceiverPool) Reserve(b int) Range {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Range{Q0: p.reserve(b * len(p.key)), B: b, W: len(p.key)}
}

// reserve assigns the next n sequence numbers. The thresholds are those of
// a pool that refills between batches: refill to capacity once the
// unassigned remainder is below low water, and when the range itself is
// short, generate what it lacks — to at least a pool's worth. The caller
// holds mu.
func (p *ReceiverPool) reserve(n int) int64 {
	q0 := p.next
	avail := int(p.asked - p.next)
	p.next += int64(n)
	switch left := avail - n; {
	case p.aborted:
	case left < 0:
		p.decide(max(p.cfg.Capacity, n) - avail)
	case left < p.cfg.lowWater():
		p.decide(p.cfg.Capacity - left)
	}
	p.set.OTPoolDepth[obs.OTReceiver].Set(int64(p.available()))
	return q0
}

// decide queues the refill of n entries (several, when n is beyond what
// one exchange may carry). The caller holds mu.
func (p *ReceiverPool) decide(n int) {
	if n > maxRefill {
		p.decide(n - maxRefill)
		n = maxRefill
	}
	p.refills = append(p.refills, &refill{start: p.asked, n: n})
	p.asked += int64(n)
	if p.cfg.Background {
		// The helper ends when the crypto does — bounded work, no I/O — so
		// nothing waits for it: a session that ends first never looks at
		// the result.
		go func() {
			// A panic here must not take the process down with it; the
			// refill stays unprepared and SendRefills prepares it inline.
			defer func() {
				if v := recover(); v != nil {
					_ = obs.Panicked("precomp: background refill", v)
				}
			}()
			p.prepareNext()
		}()
	}
}

// prepareNext runs the receiver crypto of the oldest unprepared refill.
// Prepare only advances the extension's PRG streams and FinishRefill only
// its hash counter, so the two may overlap; Prepares themselves must run
// in refill order, which prepMu and oldest-first give.
func (p *ReceiverPool) prepareNext() {
	p.prepMu.Lock()
	defer p.prepMu.Unlock()
	p.mu.Lock()
	var job *refill
	for _, f := range p.refills {
		if f.pr == nil {
			job = f
			break
		}
	}
	p.mu.Unlock()
	if job == nil {
		return
	}
	start := time.Now()
	choices := make([]bool, job.n)
	for i := range choices {
		choices[i] = p.keyBit(job.start + int64(i))
	}
	pr := p.ots.Prepare(choices)
	p.mu.Lock()
	job.pr = pr
	p.mu.Unlock()
	p.set.OTOfflineTime.Add(int64(time.Since(start)))
}

// Cover puts on the wire every refill that r's entries depend on. A
// sender whose pool does not cover r is blocked reading for exactly
// these, so a caller may write them even while the sender's own burst is
// unread.
func (p *ReceiverPool) Cover(r Range) error {
	p.mu.Lock()
	short := p.sentEnd < r.End()
	p.mu.Unlock()
	if !short {
		return nil
	}
	return p.SendRefills()
}

// SendRefills announces every decided refill that is not on the wire yet,
// oldest first: MsgOTRefill with the count, then the prepared U.
func (p *ReceiverPool) SendRefills() error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	for {
		p.mu.Lock()
		if p.sent == len(p.refills) {
			p.mu.Unlock()
			return nil
		}
		job := p.refills[p.sent]
		if job.pr == nil {
			p.mu.Unlock()
			p.prepareNext()
			continue
		}
		// In flight from here on: the answer may arrive before Flush
		// returns.
		p.sent++
		p.sentEnd = job.start + int64(job.n)
		if p.sent == 1 {
			setLimit(p.conn, transport.MsgOTExtY, job.n*2*ot.MsgLen)
		}
		p.mu.Unlock()
		start := time.Now()
		if err := p.conn.Send(transport.MsgOTRefill, countsPayload(job.n)); err != nil {
			return err
		}
		if err := p.conn.Send(transport.MsgOTExtU, job.pr.U); err != nil {
			return err
		}
		if err := p.conn.Flush(); err != nil {
			return err
		}
		p.set.OTOfflineTime.Add(int64(time.Since(start)))
	}
}

// FinishRefill banks the sender's answer (a MsgOTExtY payload) to the
// oldest refill in flight. Call it in the wire order of the answers, from
// the goroutine that reads them: a masked frame that uses the new entries
// follows its refill's answer on the wire, so reading in order is all the
// synchronization consumers need.
func (p *ReceiverPool) FinishRefill(y []byte) error {
	p.mu.Lock()
	if p.sent == 0 {
		p.mu.Unlock()
		return fmt.Errorf("precomp: unsolicited refill answer (%d bytes)", len(y))
	}
	job := p.refills[0]
	p.refills = p.refills[1:]
	p.sent--
	next := 0
	if p.sent > 0 {
		next = p.refills[0].n * 2 * ot.MsgLen
	}
	setLimit(p.conn, transport.MsgOTExtY, next)
	p.mu.Unlock()

	start := time.Now()
	msgs, err := p.ots.Finish(job.pr, y)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	p.mu.Lock()
	p.bank.add(msgs)
	recordRefill(p.set, obs.OTReceiver, job.n, elapsed, p.available())
	p.mu.Unlock()
	return nil
}

// RecvStep obtains the labels of one evaluator-input step: wire i of the
// step is evaluator-input bit c0+i with choice bits[i], and set receives
// the label of wire i for each sample s of r. It unmasks the sender's
// MsgOTMasked frame (read from conn — the inference's own view of the
// connection) with r's entries; the bits must equal the key at those
// entries, they are not what selects.
func (p *ReceiverPool) RecvStep(conn transport.FrameConn, r Range, c0 int, bits []bool, set func(i, s int, m ot.Msg)) error {
	if len(bits) == 0 {
		return nil
	}
	if r.B < 1 {
		return fmt.Errorf("precomp: input step on an empty range (no Reserve)")
	}
	var payload []byte
	for payload == nil {
		// Only a connection nobody demultiplexes delivers refill answers
		// here; a session's reader banks them itself.
		typ, frame, err := conn.RecvAny(transport.MsgOTMasked, transport.MsgOTExtY)
		if err != nil {
			return err
		}
		if typ == transport.MsgOTMasked {
			payload = frame
		} else if err := p.FinishRefill(frame); err != nil {
			return err
		}
	}
	start := time.Now()
	m := len(bits) * r.B
	if len(payload) != m*2*ot.MsgLen {
		return fmt.Errorf("precomp: masked-label frame is %d bytes, want %d for %d OTs", len(payload), m*2*ot.MsgLen, m)
	}
	// Unmask in place under the lock, hand the labels out after it: the
	// frame is this call's to scribble on, and set is the caller's code.
	chosen := func(i, s int) []byte {
		off := (i*r.B + s) * 2 * ot.MsgLen
		if bits[i] {
			off += ot.MsgLen
		}
		return payload[off : off+ot.MsgLen]
	}
	if err := p.unmask(r, c0, bits, chosen); err != nil {
		return err
	}
	for i := range bits {
		for s := 0; s < r.B; s++ {
			set(i, s, ot.Msg(chosen(i, s)))
		}
	}
	recordStep(p.set, m, time.Since(start))
	return nil
}

// unmask XORs r's pool entries for the step into the chosen halves of its
// masked pairs, consuming the entries.
func (p *ReceiverPool) unmask(r Range, c0 int, bits []bool, chosen func(i, s int) []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, bit := range bits {
		for s := 0; s < r.B; s++ {
			q := r.At(s, c0+i)
			if bit != p.keyBit(q) {
				return fmt.Errorf("precomp: choice bit of OT %d differs from the pool key", q)
			}
			mask, err := p.bank.take(q)
			if err != nil {
				return err
			}
			dst := chosen(i, s)
			for k := range dst {
				dst[k] ^= mask[k]
			}
		}
	}
	return nil
}

// Receive obliviously obtains the messages selected by choices, like
// ot.ExtReceiver.Receive, on a connection this goroutine alone reads and
// writes (lock-step with SenderPool.Send): it reserves len(choices)
// consecutive entries, announces what the policy decided, and unmasks the
// sender's frame. The choices must be the key's bits at those entries.
func (p *ReceiverPool) Receive(choices []bool) ([]ot.Msg, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	r := Range{Q0: p.reserve(len(choices)), B: 1, W: len(choices)}
	p.mu.Unlock()
	if err := p.SendRefills(); err != nil {
		return nil, err
	}
	out := make([]ot.Msg, len(choices))
	err := p.RecvStep(p.conn, r, 0, choices, func(i, _ int, m ot.Msg) { out[i] = m })
	return out, err
}

// SenderPool is the garbler-side pool: it banks random label pairs and
// follows the receiver's protocol, answering refills whenever they are
// announced. Not safe for concurrent use; one pool per session.
type SenderPool struct {
	conn transport.FrameConn
	ots  *ot.ExtSender
	rng  io.Reader

	width int // the receiver's key width W
	next  int64
	bank  store[[2]ot.Msg]

	set *obs.Set // the ledger this pool records in
}

// NewSenderPool wraps a session's extension sender. rng sources the
// pool's random label pairs.
func NewSenderPool(conn transport.FrameConn, ots *ot.ExtSender, rng io.Reader) *SenderPool {
	return &SenderPool{conn: conn, ots: ots, rng: rng, set: obs.NewSet(obs.Root)}
}

// SetMetrics makes the pool record into its owner's ledger — the
// session's — instead of one of its own under obs.Root. Call before
// HandleAnnounce.
func (p *SenderPool) SetMetrics(s *obs.Set) { p.set = s }

// Seq returns the first sequence number no range owns yet (single-use
// instrumentation, like ReceiverPool.Seq).
func (p *SenderPool) Seq() int64 { return p.next }

// Available returns the number of banked pairs no range owns yet.
func (p *SenderPool) Available() int { return int(max(p.bank.end-p.next, 0)) }

// Width returns the key width W the receiver announced: the number of
// evaluator-input bits it will ask for per sample.
func (p *SenderPool) Width() int { return p.width }

// HandleAnnounce consumes the receiver's pool announcement after the OT
// base phase and answers the initial fill.
func (p *SenderPool) HandleAnnounce() error {
	payload, err := p.conn.Recv(transport.MsgOTRefill)
	if err != nil {
		return err
	}
	c, err := readCounts(payload, 2)
	if err != nil {
		return err
	}
	p.width = c[1]
	if c[0] == 0 {
		return &PeerError{"announced an OT pool of capacity 0"}
	}
	return p.answerNext()
}

// answerNext reads the receiver's next pool frame and answers it.
func (p *SenderPool) answerNext() error {
	typ, payload, err := p.conn.RecvAny(transport.MsgOTRefill, transport.MsgOTExtU)
	if err != nil {
		return err
	}
	return p.HandleRefill(typ, payload)
}

// HandleRefill answers the receiver's next pool frame, already read off the
// session. It can only be a refill announcement (MsgOTRefill): HandleRefill
// then reads the receiver's U, banks n fresh random pairs and sends them
// through the extension (MsgOTExtY, flushed). A MsgOTExtU that no
// announcement precedes opens a per-step IKNP exchange and is refused.
func (p *SenderPool) HandleRefill(typ transport.MsgType, payload []byte) error {
	if typ != transport.MsgOTRefill {
		return &PeerError{fmt.Sprintf("sent %v with no refill announced", typ)}
	}
	c, err := readCounts(payload, 1)
	if err != nil {
		return err
	}
	n := c[0]
	if n == 0 {
		return fmt.Errorf("precomp: refill of 0 OTs")
	}
	start := time.Now()
	setLimit(p.conn, transport.MsgOTExtU, ot.ExtULen(n))
	u, err := p.conn.Recv(transport.MsgOTExtU)
	if err != nil {
		return err
	}
	// One bulk read for all 2n labels: per-label ReadFull calls would
	// cost 2n separate rng round trips (getrandom syscalls under
	// crypto/rand) at every session setup.
	raw := make([]byte, n*2*ot.MsgLen)
	if _, err := io.ReadFull(p.rng, raw); err != nil {
		return fmt.Errorf("precomp: pair randomness: %w", err)
	}
	fresh := make([][2]ot.Msg, n)
	for i := range fresh {
		copy(fresh[i][0][:], raw[i*2*ot.MsgLen:])
		copy(fresh[i][1][:], raw[i*2*ot.MsgLen+ot.MsgLen:])
	}
	if err := p.ots.SendWithU(fresh, u); err != nil {
		return err
	}
	p.bank.add(fresh)
	recordRefill(p.set, obs.OTSender, n, time.Since(start), p.Available())
	return nil
}

// Reserve assigns the next b·W entries to one inference of b samples: the
// sender's half of ReceiverPool.Reserve.
func (p *SenderPool) Reserve(b int) Range {
	r := Range{Q0: p.next, B: b, W: p.width}
	p.next = r.End()
	return r
}

// Cover makes sure the pool banks all of r, answering announced refills
// until it does. It reads only when the pool falls short — the receiver
// decided the refill that covers r when it reserved the same range.
func (p *SenderPool) Cover(r Range) error {
	for p.bank.end < r.End() {
		if err := p.answerNext(); err != nil {
			return err
		}
	}
	return nil
}

// SendStep transfers the label pairs of one evaluator-input step: wire i
// of the step is evaluator-input bit c0+i, and pair(i, s) yields its
// zero-label and Free-XOR delta for sample s of r (the pair is x0,
// x0⊕delta). The pairs are masked with r's entries (which Cover must have
// banked) straight into buf and sent on conn — the inference's own view of
// the connection — as one MsgOTMasked frame, wire-major with samples
// innermost; nothing is read. It returns buf, possibly grown, for reuse.
func (p *SenderPool) SendStep(conn transport.FrameConn, r Range, c0, wires int, buf []byte, pair func(i, s int) (x0, delta ot.Msg, err error)) ([]byte, error) {
	if wires == 0 {
		return buf, nil
	}
	if r.B < 1 {
		return buf, fmt.Errorf("precomp: input step on an empty range (no Reserve)")
	}
	m := wires * r.B
	start := time.Now()
	payload := buf[:0]
	for i := 0; i < wires; i++ {
		for s := 0; s < r.B; s++ {
			x0, delta, err := pair(i, s)
			if err != nil {
				return buf, err
			}
			mask, err := p.bank.take(r.At(s, c0+i))
			if err != nil {
				return buf, err
			}
			for k := range x0 {
				mask[0][k] ^= x0[k]
				mask[1][k] ^= x0[k] ^ delta[k]
			}
			payload = append(append(payload, mask[0][:]...), mask[1][:]...)
		}
	}
	err := conn.Send(transport.MsgOTMasked, payload)
	recordStep(p.set, m, time.Since(start))
	p.set.OTPoolDepth[obs.OTSender].Set(int64(p.Available()))
	return payload[:0], err
}

// Send obliviously transfers pairs[j][b_j] for the receiver's hidden
// choice bits, like ot.ExtSender.Send, in lock-step with
// ReceiverPool.Receive: it reserves len(pairs) consecutive entries, waits
// for the refills that cover them, and sends the masked pairs.
func (p *SenderPool) Send(pairs [][2]ot.Msg) error {
	r := Range{Q0: p.next, B: 1, W: len(pairs)}
	p.next = r.End()
	if err := p.Cover(r); err != nil {
		return err
	}
	_, err := p.SendStep(p.conn, r, 0, len(pairs), nil, func(i, _ int) (x0, delta ot.Msg, err error) {
		x0 = pairs[i][0]
		for k := range delta {
			delta[k] = x0[k] ^ pairs[i][1][k]
		}
		return x0, delta, nil
	})
	if err != nil {
		return err
	}
	return p.conn.Flush()
}

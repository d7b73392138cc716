// Package transport provides the framed two-party channel DeepSecure runs
// over: length-prefixed, typed messages on any io.ReadWriter (an in-memory
// pipe for tests and benchmarks, a TCP connection for the distributed
// deployment). Typed frames make protocol desynchronization and truncated
// streams hard failures instead of silent corruption.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"deepsecure/internal/obs"
)

// MsgType tags each frame with its protocol role.
type MsgType uint8

// Frame types used by the DeepSecure protocol.
const (
	MsgHello MsgType = iota + 1
	MsgConstLabels
	MsgInputLabels
	MsgTables
	MsgOTBase
	MsgOTExtU
	// MsgOTExtU and MsgOTExtY are one chosen-message extension batch: the
	// receiver's U matrix and the sender's masked pairs. A session runs
	// one, at set-up, to hand the server its weight labels; the §3.3
	// streaming deployment also runs one, at set-up, for the labels of
	// all the main server's inputs (its share and the weights).
	MsgOTExtY
	MsgOutputLabels
	MsgResult
	MsgShare
	MsgArch
	// MsgEndSession is the client's end-of-session marker on a
	// multi-inference session.
	MsgEndSession
	// The OT pool's frames (internal/ot/precomp), which no session sends
	// any more — a session caps both at 0: MsgOTRefill announces a fill of
	// n ≥ 1 random OTs (uvarint n), and the receiver's MsgOTExtU for them
	// follows; MsgOTMasked carries the sender's two pool-masked messages
	// per OT of one transfer.
	MsgOTRefill
	MsgOTMasked
	// Session inferences: MsgPipeline is the server's announcement of its
	// in-flight window and batch cap (two uvarints, sent once after the
	// architecture). MsgInferBegin opens an inference (uvarint sample count
	// B ≥ 1) that occupies one window slot; the inference's frames follow
	// it in order as MsgConstLabels, MsgInputLabels and MsgTables, each
	// carrying all B samples wire-major with samples
	// innermost (gate rank i, sample s of a level's tables at
	// (i*B+s)*TableSize), and its answer is one MsgOutputLabels.
	MsgPipeline
	MsgInferBegin

	// MsgBusy is the admission controller's shed response: sent by the
	// server in place of MsgArch when it cannot take the session,
	// carrying a uvarint retry-after hint in milliseconds. The server
	// closes the connection after it; the client surfaces a typed
	// retryable error instead of a timeout. A server sheds whatever the
	// hello's version, so the byte never moves: 17–21 stay unassigned.
	MsgBusy MsgType = 22

	// msgTypeEnd sentinels the name table: every defined MsgType is
	// strictly below it.
	msgTypeEnd = MsgBusy + 1
)

// msgNames is the static name table behind MsgType.String — built once at
// package init instead of per call (String sits on every protocol-desync
// error path and in hot logging).
var msgNames = map[MsgType]string{
	MsgHello: "hello", MsgConstLabels: "const-labels",
	MsgInputLabels: "input-labels", MsgTables: "tables",
	MsgOTBase: "ot-base", MsgOTExtU: "ot-ext-u", MsgOTExtY: "ot-ext-y",
	MsgOutputLabels: "output-labels", MsgResult: "result",
	MsgShare: "share", MsgArch: "arch",
	MsgEndSession: "end-session",
	MsgOTRefill:   "ot-refill", MsgOTMasked: "ot-masked",
	MsgPipeline: "pipeline", MsgInferBegin: "infer-begin",
	MsgBusy: "busy",
}

// String names the message type.
func (m MsgType) String() string {
	if s, ok := msgNames[m]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// MaxFrame bounds a single frame payload (1 GiB) so corrupted length
// prefixes fail fast instead of attempting absurd allocations. It is the
// default per-type limit; SetLimit tightens it for types whose legitimate
// size the protocol state knows.
const MaxFrame = 1 << 30

// maxHello bounds a MsgHello payload — a version string, a session counter
// and at most eight 16-byte base-correlation ids — from a peer that has not
// been authenticated in any way yet.
const maxHello = 192

// FrameConn is the frame-level interface the protocol layers speak: a
// *Conn satisfies it directly, and a server session satisfies it with a
// view that takes incoming frames off the session reader's FIFO. Code
// written against FrameConn (the OT stack, the execution engines) runs
// unchanged over either.
type FrameConn interface {
	Send(t MsgType, payload []byte) error
	Recv(want MsgType) ([]byte, error)
	RecvAny(want ...MsgType) (MsgType, []byte, error)
	Flush() error
}

// Conn is a framed duplex channel. A Conn is not safe for arbitrary
// concurrent use, but it does support the split server sessions rely on:
// one goroutine reading via ReadFrame while one other sends (the write
// buffer is only touched by Send and Flush, never by ReadFrame).
type Conn struct {
	rw      io.ReadWriter
	wbuf    []byte
	scratch [5]byte

	// set is the ledger whose BytesSent/BytesReceived this connection
	// adds to, per write and per frame read (the paper's communication
	// accounting).
	set *obs.Set

	// breaker, when installed, forcibly fails the connection's pending
	// and future I/O (see SetBreaker).
	breaker func() error

	// limits[t] is the largest payload ReadFrame accepts for type t,
	// checked against the header before the payload is allocated. Atomic:
	// writers set limits while the session reader is in ReadFrame.
	limits [msgTypeEnd]atomic.Uint32
}

// New wraps a byte stream in a framed connection.
func New(rw io.ReadWriter) *Conn {
	c := &Conn{rw: rw, set: obs.NewSet(obs.Root)}
	for t := range c.limits {
		c.limits[t].Store(MaxFrame)
	}
	c.limits[MsgHello].Store(maxHello)
	return c
}

// Metrics returns the ledger the connection records its bytes in: one of
// its own under obs.Root, until SetMetrics.
func (c *Conn) Metrics() *obs.Set { return c.set }

// SetMetrics makes the connection record into its owner's ledger — a
// session's, typically — from here on. Call it while nothing else uses the
// connection.
func (c *Conn) SetMetrics(s *obs.Set) { c.set = s }

// SetLimit bounds the payload of type-t frames this connection will read:
// a header announcing more is refused before any allocation. Safe to call
// while another goroutine is in ReadFrame. A type past the defined ones has
// no limit to set: ReadFrame refuses it from the header whatever its size.
func (c *Conn) SetLimit(t MsgType, n int) {
	if t < msgTypeEnd {
		c.limits[t].Store(uint32(min(max(n, 0), MaxFrame)))
	}
}

// ReadOnly caps every frame type but legal at 0, so that a header of any
// other type is refused unread, whatever size it announces; legal types keep
// the caps set for them. Safe to call while another goroutine is in
// ReadFrame.
func (c *Conn) ReadOnly(legal ...MsgType) {
	var keep [msgTypeEnd]bool
	for _, t := range legal {
		if t < msgTypeEnd {
			keep[t] = true
		}
	}
	for t := range c.limits {
		if !keep[t] {
			c.limits[t].Store(0)
		}
	}
}

// Recycle hands a payload returned by ReadFrame back for reuse by any
// connection's later frame of its size class. The caller must hold no
// reference into it afterwards; frames whose bytes are retained are simply
// never recycled, and a buffer whose capacity is not a class size (a small
// frame's, or a slice of a frame) is dropped.
func (c *Conn) Recycle(buf []byte) {
	if k, ok := slices.BinarySearch(classes, cap(buf)); ok {
		pools[k].Put(&buf[:1][0])
	}
}

// Frames of minPooled bytes or more are read into buffers pooled by size
// class, four per octave (64, 80, 96, 112, 128, 160, … KiB up to MaxFrame):
// a recycled buffer serves any later frame of its class and wastes at most
// a fifth of itself. A session's reader runs several table frames ahead,
// each tens of kilobytes to over a megabyte, so a warm session finds a
// buffer for nearly every frame; frames allocated per read would be garbage
// that lets the heap grow to its GC goal, twice the live set. Smaller
// frames are allocated exactly. The pools hold each buffer's first byte,
// which an interface stores without allocating, and the garbage collector
// drains them, so an idle process pins no frame.
const minPooled = 64 << 10

var (
	classes = func() []int {
		var c []int
		for o := minPooled; o < MaxFrame; o *= 2 {
			c = append(c, o, o+o/4, o+o/2, o+3*o/4)
		}
		return append(c, MaxFrame)
	}()
	pools = make([]sync.Pool, len(classes))
)

// payloadBuf returns an n-byte buffer for an incoming payload: a recycled
// one of n's class, a new one of that class, or an exact one below
// minPooled.
func payloadBuf(n int) []byte {
	if n < minPooled {
		return make([]byte, n)
	}
	k, _ := slices.BinarySearch(classes, n)
	if p, ok := pools[k].Get().(*byte); ok {
		return unsafe.Slice(p, classes[k])[:n]
	}
	return make([]byte, n, classes[k])
}

// SetBreaker installs a hook that forcibly fails the connection's
// pending and future I/O — typically the underlying net.Conn's Close.
// Phase-deadline watchdogs above the transport use it to unblock a
// party stalled mid-phase: a deadline can only be enforced on a blocked
// read by destroying the thing it blocks on. Install before the
// connection is shared across goroutines; the hook itself must be safe
// to call from any goroutine (net.Conn.Close is).
func (c *Conn) SetBreaker(f func() error) { c.breaker = f }

// Break invokes the installed breaker. Without one it reports an error
// and breaks nothing — deadlines degrade to unenforced on connections
// whose owner never wired a breaker (in-memory pipes in tests, callers
// managing their own timeouts).
func (c *Conn) Break() error {
	if c.breaker == nil {
		return fmt.Errorf("transport: no breaker installed")
	}
	return c.breaker()
}

// Send buffers one frame, or writes it through when its payload is large
// (see directWrite): the payload is the caller's again when Send returns.
// Small frames accumulate until Flush (or an implicit flush in Recv).
func (c *Conn) Send(t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("transport: frame %v too large (%d bytes)", t, len(payload))
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	c.wbuf = append(c.wbuf, hdr[:]...)
	if len(payload) >= directWrite {
		if err := c.Flush(); err != nil {
			return err
		}
		return c.write(payload)
	}
	c.wbuf = append(c.wbuf, payload...)
	if len(c.wbuf) >= 1<<20 {
		return c.Flush()
	}
	return nil
}

// directWrite is the payload size from which a frame bypasses the write
// buffer: whatever is buffered goes out, then the payload is written from
// the caller's slice. Table chunks are a megabyte each; batching them
// would buy nothing and keep a second copy of every chunk resident for
// as long as the connection lives.
const directWrite = 64 << 10

// Flush writes all buffered frames to the underlying stream.
func (c *Conn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	err := c.write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

func (c *Conn) write(b []byte) error {
	n, err := c.rw.Write(b)
	c.set.BytesSent.Add(int64(n))
	if err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	return nil
}

// Recv reads the next frame, requiring it to have the expected type. A
// mismatch means the two parties disagree about the protocol state and is
// returned as an error. Recv flushes pending writes first, so a party can
// never deadlock waiting for a response to a request it hasn't sent.
func (c *Conn) Recv(want MsgType) ([]byte, error) {
	_, payload, err := c.RecvAny(want)
	return payload, err
}

// RecvAny reads the next frame, requiring its type to be one of want —
// e.g. a client at set-up, which accepts the architecture or a busy
// answer. Like Recv it flushes pending writes first.
func (c *Conn) RecvAny(want ...MsgType) (MsgType, []byte, error) {
	if err := c.Flush(); err != nil {
		return 0, nil, err
	}
	got, payload, err := c.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	for _, w := range want {
		if got == w {
			return got, payload, nil
		}
	}
	return 0, nil, fmt.Errorf("transport: protocol desync: got %v frame, want %v", got, wantNames(want))
}

// ReadFrame reads the next frame of any type WITHOUT flushing buffered
// writes: the receive primitive for server sessions, where a dedicated
// reader goroutine drains frames while the session's writer sends (a
// flush here would race the write buffer).
// Single-goroutine callers should prefer Recv/RecvAny, which flush first
// so a request can never deadlock behind its own unflushed send. A header
// of a type past the defined ones, or announcing more than its type's
// limit, is refused before any payload is allocated.
func (c *Conn) ReadFrame() (MsgType, []byte, error) {
	if _, err := io.ReadFull(c.rw, c.scratch[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: read header: %w", err)
	}
	got := MsgType(c.scratch[0])
	n := binary.LittleEndian.Uint32(c.scratch[1:])
	if got >= msgTypeEnd {
		return 0, nil, fmt.Errorf("transport: frame of unknown type %d", got)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	if limit := c.limits[got].Load(); n > limit {
		return 0, nil, fmt.Errorf("transport: %v frame of %d bytes exceeds its limit of %d", got, n, limit)
	}
	payload := payloadBuf(int(n))
	if _, err := io.ReadFull(c.rw, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: read %v payload: %w", got, err)
	}
	c.set.BytesReceived.Add(int64(5 + n))
	return got, payload, nil
}

func wantNames(want []MsgType) string {
	if len(want) == 1 {
		return want[0].String()
	}
	s := ""
	for i, w := range want {
		if i > 0 {
			s += "|"
		}
		s += w.String()
	}
	return s
}

// pipeHalf is one direction of the in-memory duplex pipe: an unbounded
// byte queue with blocking reads. Once drained, the queue writes from the
// start of its buffer again, so a pipe that carries exchange after
// exchange does not grow a buffer for each.
type pipeHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    bytes.Buffer
	closed bool
}

func newPipeHalf() *pipeHalf {
	p := &pipeHalf{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipeHalf) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, errors.New("transport: pipe closed")
	}
	p.buf.Write(b)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipeHalf) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.buf.Len() == 0 {
		if p.closed {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
	return p.buf.Read(b)
}

func (p *pipeHalf) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// duplex pairs a read half and a write half into an io.ReadWriter.
type duplex struct {
	r *pipeHalf
	w *pipeHalf
}

func (d duplex) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d duplex) Write(b []byte) (int, error) { return d.w.Write(b) }

// Close shuts both directions down.
func (d duplex) Close() error {
	d.r.close()
	d.w.close()
	return nil
}

// Pipe returns two connected framed channels backed by unbounded
// in-memory queues: writes never block, so the strictly-alternating
// protocol can also run both parties on one goroutine in tests.
func Pipe() (*Conn, *Conn, io.Closer) {
	ab := newPipeHalf()
	ba := newPipeHalf()
	a := duplex{r: ba, w: ab}
	b := duplex{r: ab, w: ba}
	closer := multiCloser{a, b}
	return New(a), New(b), closer
}

type multiCloser []io.Closer

func (m multiCloser) Close() error {
	for _, c := range m {
		c.Close()
	}
	return nil
}

// Package core orchestrates DeepSecure's end-to-end secure inference
// protocol (paper Fig. 2 and Fig. 3): the client (data owner) garbles the
// publicly-known DL netlist and the cloud server (model owner) evaluates
// it, with the client's data bits entering as garbler inputs, the model
// weights entering through IKNP oblivious transfer, and only the client
// learning the inference label.
//
// Sessions are multi-inference: the parties negotiate once (hello,
// architecture exchange and, in a pair's first session, the set-up OT that
// hands the server its weight labels: one IKNP extension, keyed by a base
// phase of its own) and compile the public netlist once into a level schedule
// (netgen.Compile); each further inference on the session only pays for
// the client's input labels, garbling, and the streamed tables
// (protocolHello describes the frames). A client–server pair's sessions are
// one circuit garbled in instalments under one Free-XOR offset, as
// TinyGarble's sequential GC (which DeepSecure §3.5 builds on) garbles clock
// cycles: the weight labels cross once, in the pair's first session, and
// every sample of every inference of every later session reuses them. The
// client keeps the offset and the weight zero-labels for 8 servers, the
// server the labels it chose for as many clients as maxServerBytes holds,
// both in memory; a repeat session runs no OT at all. One-shot Serve/Infer
// remain as single-inference sessions.
//
// The package also implements the secure-outsourcing deployment (§3.3,
// Fig. 4) where a resource-constrained client XOR-shares its input between
// a proxy (who garbles) and the main server (who evaluates), and neither
// learns the input or — in this implementation — the result. Its two
// servers run the same engine, fed by the netlist generator's stream
// instead of a compiled schedule, under one Free-XOR offset as a session's
// inference does.
package core

import (
	"bytes"
	"container/list"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// protocolHello identifies the session protocol; exactly one version is
// accepted, and it changes when the frames do. What they carry is bound
// separately: the server's architecture frame opens with its program's
// digest (netgen.Program.Digest), the client compares it with that of what
// it compiled from the same architecture, and a difference is a
// *ProgramMismatchError from NewSession before any OT. So a change to the
// netlist an architecture compiles to changes the digest and not this
// string: a peer built from another generator is refused at the handshake
// either way, never by a label that fails to authenticate mid-stream. The
// digest hashes the event stream, not its schedule, so a change to how the
// stream is levelled, which moves the table and tweak order under the same
// digest, changes this string. (The §3.3 streaming deployment compiles no
// program and has a hello of its own, outsourcedHello.)
//
// Setup, in order: client MsgHello (this string, a zero byte, the client's
// session counter cid as 8 big-endian bytes, 1 ≤ cid < 2³², then the
// 16-byte id of every pair's set-up the client holds, at most 8) and,
// behind a hello that offers none, its MsgOTBase (the base OTs' 128 P-256
// points, package ot); server MsgArch (the 32-byte program digest, the id
// of the pair's set-up the session uses — the first offered one the server
// holds, else a freshly minted one — then the public spec; or MsgBusy with
// a uvarint retry-after in ms, then close) and MsgPipeline (uvarint
// in-flight window, uvarint batch cap). That is the whole set-up of a
// repeat session. A pair's first session goes on in the same flight with
// the server's MsgOTBase (its point A) and the set-up OT, one
// chosen-message IKNP extension of W OTs, W the program's weight bits: the
// server's MsgOTExtU (exactly ot.ExtULen(W) bytes) with the weight bits as
// choices, and the client's MsgOTExtY (exactly W × 32 bytes) over the
// pairs (W_i⁰, W_i⁰ ⊕ Δ), Δ the pair's Free-XOR offset and W_i⁰ a weight
// wire's zero-label, both drawn by the client. On a resume miss the
// client's MsgOTBase answers MsgPipeline, a round trip later. How the
// extension is keyed (package ot) is part of this string: a peer keyed
// otherwise would hand the server labels that fail authentication
// mid-stream. Once the set-up OT is done the client files Δ and the
// zero-labels under the id, the server the labels it chose; the client's
// MsgOTExtY travels ahead of the first burst. (The §3.3 deployment runs
// the same set-up OT; outsourcedHello describes it.)
//
// An inference classifies B ≥ 1 samples and is one client→server burst
// answered by one frame. The burst: MsgInferBegin (uvarint B, at most the
// announced batch cap), then MsgConstLabels (the B false-labels, then the
// B true-labels) and, in schedule order, MsgInputLabels (the client's
// active input labels of one step) and MsgTables (garbled tables, chunked
// at level boundaries); an evaluator-input step sends nothing, for its
// wires carry the weight labels of the set-up OT in every sample. Every
// payload is wire-major with samples innermost; a level's tables are its
// full ANDs' (rank i, sample s at (i·B+s)·32), then its half ANDs' (rank j
// among them, sample s at (j·B+s)·16 behind). The answer is
// MsgOutputLabels. Samples are numbered across the pair in begin order: a
// session's first ordinal is (cid − 1)·2³², an inference of B samples takes
// the next B, and a session refuses its 2³²-th sample. A sample's ordinal
// goes into every tweak it is garbled under, so that no hash query repeats
// under the pair's one Δ (gc's vec.go).
//
// A client sends one burst whole before it begins the next, and up to the
// announced window of inferences may be in flight; answers come back in
// begin order, so frame order is all that ties a frame to its inference.
// After set-up no OT frame is legal in either direction. MsgEndSession
// from the client ends the session.
const protocolHello = "deepsecure/19"

// maxOTBase caps the base-OT receiver's ot-base frame, its k = 128 points of
// 65 bytes; maxOTBaseA caps the sender's, its one point A.
const maxOTBase, maxOTBaseA = 128 * 65, 65

// digestSize is the length of the program digest that opens a session's
// architecture frame.
const digestSize = len(netgen.Program{}.Digest)

// pairID names one client–server pair's set-up: what the set-up OT left
// each party. The server mints it when the OT runs; it is a name, not a
// secret: whoever presents a copied one gets the owner's weight labels
// evaluated under a garbling of its own, whose outputs fail authentication.
type pairID [16]byte

// sessionOrdinals is how many sample ordinals a session owns: client
// session cid numbers its samples from (cid − 1)·sessionOrdinals.
const sessionOrdinals = 1 << 32

const (
	// maxClientPairs is how many pairs' set-ups a Client keeps, so a hello
	// carries at most that many ids.
	maxClientPairs = 8
	// maxServerBytes bounds a server's store of weight labels, 16·W bytes
	// and an id per pair, least recently used evicted first. It is memory
	// held while idle, sized to keep a pair for each of a few thousand
	// clients of a small model and a few dozen of a paper-scale one: 3 968
	// pairs of the benchmarks' 1 056-bit MLP, 1 040 of tanh_lan's model
	// (W = 4 032), 29 of compacted B3 (W = 142 264, 2.3 MB each). An
	// evicted pair's next session is a first one again.
	maxServerBytes = 64 << 20
)

// helloFrame is the client's opening frame: the protocol version, a zero
// byte, the client's session counter (8 bytes, big-endian) and every pair
// id it holds.
func helloFrame(cid uint64, ids []pairID) []byte {
	p := binary.BigEndian.AppendUint64(append([]byte(protocolHello), 0), cid)
	for _, id := range ids {
		p = append(p, id[:]...)
	}
	return p
}

// parseHello is the server's reading of a hello frame.
func parseHello(p []byte) (cid uint64, ids []pairID, err error) {
	version, rest, terminated := bytes.Cut(p, []byte{0})
	if string(version) != protocolHello {
		return 0, nil, fmt.Errorf("core: unknown protocol %q", version)
	}
	const idLen = len(pairID{})
	if !terminated || len(rest) < 8 || (len(rest)-8)%idLen != 0 || (len(rest)-8)/idLen > maxClientPairs {
		return 0, nil, fmt.Errorf("core: malformed hello: %d bytes after the protocol version", len(rest))
	}
	if cid = binary.BigEndian.Uint64(rest); cid < 1 || cid >= sessionOrdinals {
		return 0, nil, fmt.Errorf("core: malformed hello: session counter %d", cid)
	}
	for r := rest[8:]; len(r) > 0; r = r[idLen:] {
		ids = append(ids, pairID(r))
	}
	return cid, ids, nil
}

// archHeader is what precedes the spec in the server's architecture frame:
// its program's digest and the id of the pair's set-up the session uses.
const archHeader = digestSize + len(pairID{})

func archFrame(digest [digestSize]byte, id pairID, spec []byte) []byte {
	return slices.Concat(digest[:], id[:], spec)
}

// serverPairs is a server's store of the weight labels each pair's set-up
// OT chose, by id, bounded to maxServerBytes. There is no expiry — the
// labels are as good on a pair's thousandth session as on its first — and
// nothing is persisted: a new process holds none, and its clients' offers
// are misses that cost them one set-up OT.
type serverPairs struct {
	mu    sync.Mutex
	byID  map[pairID]*list.Element
	order list.List // of serverPair, most recently used first
	bytes int       // what order's entries take, by size
}

type serverPair struct {
	id     pairID
	labels []gc.Label // read-only: every session of the pair evaluates on them
}

func (e serverPair) size() int { return len(e.id) + len(e.labels)*gc.LabelSize }

// first returns the first of the offered ids the store holds and its labels,
// marking it used, or nil labels.
func (b *serverPairs) first(offered []pairID) (pairID, []gc.Label) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range offered {
		if el, ok := b.byID[id]; ok {
			b.order.MoveToFront(el)
			return id, el.Value.(serverPair).labels
		}
	}
	return pairID{}, nil
}

// put files labels under id, evicting the least recently used entries
// until the store fits maxServerBytes again. Labels larger than the whole
// budget are not filed: every session of that pair is a first one.
func (b *serverPairs) put(id pairID, labels []gc.Label) {
	e := serverPair{id, labels}
	if e.size() > maxServerBytes {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byID == nil {
		b.byID = make(map[pairID]*list.Element)
	}
	b.byID[id] = b.order.PushFront(e)
	for b.bytes += e.size(); b.bytes > maxServerBytes; {
		old := b.order.Remove(b.order.Back()).(serverPair)
		delete(b.byID, old.id)
		b.bytes -= old.size()
	}
}

// ProgramMismatchError is returned by NewSession when the program the
// client compiled from the server's architecture is not the one the server
// evaluates — the two binaries generate different netlists for one model —
// so every label the server returned would fail authentication.
type ProgramMismatchError struct {
	Server, Client [digestSize]byte
}

func (e *ProgramMismatchError) Error() string {
	return fmt.Sprintf("deepsecure: server evaluates program %x, this client compiled %x from the same architecture", e.Server[:8], e.Client[:8])
}

// BusyError is returned by NewSession when the server sheds the session
// at admission (MsgBusy): the server is saturated and asks
// the client to come back after RetryAfter. The connection is closed by
// the server; a retry must dial fresh. Detect it with errors.As and
// back off at least RetryAfter before retrying.
type BusyError struct {
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("deepsecure: server busy, retry after %v", e.RetryAfter)
}

// Stats summarizes one secure inference — or, for session-level calls, a
// whole session of them. It is a read-out of the obs.Set the inference or
// the session records in (StatsOf): nothing is counted here.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	Duration      time.Duration
	ANDGates      int64
	FreeGates     int64
	Inferences    int64

	// Sessions that ran on their client–server pair's stored set-up, with no
	// OT, and sessions that offered stored set-ups the server held none of.
	SessionsResumed int64
	ResumeMisses    int64

	// The OT work, all of it at the set-up of a pair's first session: the
	// extension base phase and the set-up OT's time, and the OTs it ran — W,
	// one per weight bit, however many inferences and sessions follow.
	OTOfflineTime time.Duration
	OTsConsumed   int64

	// GateTime is the wall time spent inside the per-level garble/evaluate
	// kernel calls — the hash-core cost alone, transport waits and OT
	// excluded.
	GateTime time.Duration
}

// GatesPerSec returns the crypto-core throughput: gate-instances (AND +
// free) processed per second of measured kernel time, or 0 when no
// kernel time was recorded.
func (st *Stats) GatesPerSec() float64 {
	if st.GateTime <= 0 {
		return 0
	}
	return float64(st.ANDGates+st.FreeGates) / st.GateTime.Seconds()
}

// StatsOf reads a Stats out of a ledger — an inference's, a session's, a
// server's: the one place the fields are told which counter they are.
// Duration is the finished server sessions' wall time; a client session or
// inference, which is still running or was timed by its caller, overwrites
// it.
func StatsOf(s *obs.Set) *Stats {
	return &Stats{
		BytesSent:       s.BytesSent.Value(),
		BytesReceived:   s.BytesReceived.Value(),
		Duration:        time.Duration(s.SessionTime.Value()),
		ANDGates:        s.GatesAnd.Value(),
		FreeGates:       s.GatesFree.Value(),
		Inferences:      s.Inferences.Value(),
		SessionsResumed: s.SessionsResumed.Value(),
		ResumeMisses:    s.ResumeMisses.Value(),
		OTOfflineTime:   time.Duration(s.OTOfflineTime.Value()),
		OTsConsumed:     s.OTConsumed.Value(),
		GateTime:        time.Duration(s.GateTime.Value()),
	}
}

// Server hosts the private model and evaluates garbled circuits for
// clients. A Server may serve many sessions concurrently: the compiled
// netlist program is built once (lazily, or eagerly via Program) and
// shared read-only across all of them. Net and Fmt must not change after
// the first session.
type Server struct {
	Net *nn.Network
	Fmt fixed.Format
	// Rng sources protocol randomness (crypto/rand when nil). When
	// serving sessions from multiple goroutines, Rng must be nil or
	// safe for concurrent use; deterministic readers like *math/rand.Rand
	// are only for single-session tests.
	Rng io.Reader
	// Engine tunes the level-scheduled evaluation engine (worker count,
	// pipeline depth, batch cap, phase deadlines). The zero value derives
	// workers from GOMAXPROCS.
	Engine EngineConfig

	// Fixed per server, made once, shared read-only by every session: the
	// program, the marshalled spec and the weight bits, the choices of every
	// session's set-up OT.
	compileOnce sync.Once
	prog        *netgen.Program
	spec        []byte
	weightBits  []bool
	compileErr  error

	pairs serverPairs

	metrics *obs.Set // parent of every session's ledger; obs.Root when nil
}

// SetMetrics puts the ledgers of the server's sessions under parent — the
// owning network server's — instead of directly under obs.Root. Call
// before the first session.
func (s *Server) SetMetrics(parent *obs.Set) { s.metrics = parent }

func rngOrDefault(r io.Reader) io.Reader {
	if r == nil {
		return rand.Reader
	}
	return r
}

// Program returns the server's compiled netlist, compiling it on
// first use (call it ahead of the first session to compile eagerly). Safe
// to call concurrently; the result is shared by every session.
func (s *Server) Program() (*netgen.Program, error) {
	s.compileOnce.Do(func() {
		if s.prog, s.compileErr = netgen.Compile(s.Net, s.Fmt, netgen.Options{}); s.compileErr != nil {
			return
		}
		if s.spec, s.compileErr = s.Net.Spec(s.Fmt).Marshal(); s.compileErr == nil && len(s.spec) > nn.MaxSpecBytes {
			s.compileErr = fmt.Errorf("core: the model's spec is %d bytes, more than a client reads (%d)", len(s.spec), nn.MaxSpecBytes)
		}
		s.weightBits = nn.WeightBits(s.Net, s.Fmt)
	})
	return s.prog, s.compileErr
}

// Serve answers one single-inference session on conn (Fig. 3 server
// side): the protocol reveals nothing about the weights to the client
// beyond the public architecture/sparsity map, and nothing about the data
// or result to the server.
func (s *Server) Serve(conn *transport.Conn) error {
	_, err := s.ServeSession(conn)
	return err
}

// ServeSession answers inference requests on conn until the client ends
// the session (or disconnects at an inference boundary, which is treated
// as an implicit close). The handshake and netlist compilation happen once
// per session, the OT-extension base phase and the set-up OT of the weight
// labels once per client–server pair; each inference walks the compiled
// schedule with fresh evaluation state. Up to
// EngineConfig.Pipeline inferences may be begun and unanswered; they are
// evaluated one at a time, in begin order, on the calling goroutine, while
// a reader goroutine takes the next one's garbled stream off the wire and a
// writer goroutine sends the answers — so one inference's evaluation tail
// and output round-trip overlap the next one's arrival, on any path (see
// mux.go). Returns per-session
// statistics — never nil: with an error, what the session got to. On a
// torn-down session the reader and writer goroutines may survive until the
// caller closes the underlying connection.
func (s *Server) ServeSession(conn *transport.Conn) (*Stats, error) {
	start := time.Now()
	parent := s.metrics
	if parent == nil {
		parent = obs.Root
	}
	// The session's ledger: the connection, the set-up OT and the inferences
	// all record here, and the returned Stats is its read-out.
	set := obs.NewSet(parent)
	conn.SetMetrics(set)
	finish := func() *Stats {
		set.SessionTime.Add(int64(time.Since(start)))
		return StatsOf(set)
	}
	// Phase watchdog: serial setup phases (handshake, OT setup) are
	// bracketed by arm/disarm here, each under Idle when its own limit is
	// zero; the mux times each inference and each wait on the client.
	// Enforcement breaks the connection, and wd.wrap rewrites
	// the resulting I/O error into the DeadlineError that explains it.
	wd := newWatchdog(conn.Break)
	defer wd.disarm()
	fail := func(err error) (*Stats, error) { return finish(), wd.wrap(err) }
	dl := s.Engine.Deadlines

	rng := rngOrDefault(s.Rng)
	wd.arm(dl.setup("handshake", dl.Handshake))
	// Until set-up a client's frames (hello, base frame, the set-up OT's
	// answer) are each capped before they arrive, every other type at 0.
	cid, offered, points, err := readHello(conn)
	if err != nil {
		return fail(err)
	}
	prog, err := s.Program()
	if err != nil {
		return finish(), err
	}
	// The weight labels this session evaluates on: those of the first
	// offered pair this server still holds, or those the set-up OT below
	// chooses, filed under a fresh id.
	id, weights := s.pairs.first(offered)
	if weights == nil {
		if _, err := io.ReadFull(rng, id[:]); err != nil {
			return fail(fmt.Errorf("core: pair id randomness: %w", err))
		}
	}
	// A spec of directWrite bytes or more (a pruned model's carries its
	// sparsity map) is written through here, so this Send can be where the
	// handshake deadline finds a client that stopped reading.
	if err := conn.Send(transport.MsgArch, archFrame(prog.Digest, id, s.spec)); err != nil {
		return fail(err)
	}
	// In-flight window and batch-cap announcement: the server owns both
	// policies, clients clamp their own pipelining and batching to them.
	plBuf := binary.AppendUvarint(nil, uint64(s.Engine.PipelineDepth()))
	plBuf = binary.AppendUvarint(plBuf, uint64(s.Engine.MaxBatchSize()))
	if err := conn.Send(transport.MsgPipeline, plBuf); err != nil {
		return fail(err)
	}

	// The mux's reader does not flush, and a first contact's base frame is
	// read: the two frames go out here, ahead of the base phase's work.
	if err := conn.Flush(); err != nil {
		return fail(err)
	}
	if weights != nil {
		// A repeat session: its set-up is over.
		set.SessionsResumed.Inc()
	} else {
		// The pair's first session: the set-up OT, one chosen-message
		// extension with the weight bits as choices, gives the pair the
		// weight wires' labels for every sample of every inference of every
		// session; the client's answer is exactly W pairs. On a resume miss
		// its base frame answers the architecture. A leaves with U.
		wd.arm(dl.setup("ot-setup", dl.OTSetup))
		otStart := time.Now()
		if points == nil {
			set.ResumeMisses.Inc()
			if points, err = conn.Recv(transport.MsgOTBase); err != nil {
				return fail(err)
			}
		}
		ots, err := ot.AnswerBase(conn, rng, points)
		if err != nil {
			return fail(err)
		}
		conn.SetLimit(transport.MsgOTExtY, len(s.weightBits)*2*ot.MsgLen)
		if weights, err = ots.Receive(s.weightBits); err != nil {
			return fail(err)
		}
		s.pairs.put(id, weights)
		set.OTConsumed.Add(int64(len(weights)))
		set.OTOfflineTime.Add(int64(time.Since(otStart)))
	}
	wd.disarm()

	m := newSessionMux(s, conn, weights, (cid-1)*sessionOrdinals, prog.Schedule, wd, set)
	if err = m.run(); err == nil {
		evaluatorBufs.Put(m.bufs)
	}
	return fail(err)
}

// readHello reads a client's hello and, behind one that offers no pair, its
// base frame, before the server writes: a link that holds no bytes would
// park both parties, and unread data may reset a socket as it closes.
func readHello(conn *transport.Conn) (cid uint64, offered []pairID, points []byte, err error) {
	conn.ReadOnly(transport.MsgHello)
	conn.SetLimit(transport.MsgOTBase, maxOTBase)
	hello, err := conn.Recv(transport.MsgHello)
	if err == nil {
		cid, offered, err = parseHello(hello)
	}
	if err == nil && len(offered) == 0 {
		points, err = conn.Recv(transport.MsgOTBase)
	}
	return cid, offered, points, err
}

// Shed answers an unserved client MsgBusy (retryAfter in ms) after reading
// what it sends first (readHello); the caller bounds the exchange.
func Shed(conn *transport.Conn, retryAfter time.Duration) error {
	readHello(conn) //nolint:errcheck — any client is answered busy
	if err := conn.Send(transport.MsgBusy, binary.AppendUvarint(nil, uint64(retryAfter/time.Millisecond))); err != nil {
		return err
	}
	return conn.Flush()
}

// Client runs secure inferences against a server. A Client caches the
// compiled netlist program per public model spec (the eight used last), so
// repeated sessions against the same model skip generation entirely, and
// the set-up of each client–server pair (the Free-XOR offset and the weight
// zero-labels, 16·W bytes, for up to eight pairs, in memory only), so
// repeated sessions with the same server run no OT. Safe for concurrent use
// by multiple sessions, provided Rng is nil or itself safe for concurrent
// use (deterministic readers like *math/rand.Rand are only for
// single-session tests).
type Client struct {
	// Rng sources protocol randomness (crypto/rand when nil).
	Rng io.Reader
	// Engine tunes the level-scheduled garbling engine (worker count,
	// pipeline depth, batch cap, phase deadlines). The zero value derives
	// workers from GOMAXPROCS.
	Engine EngineConfig

	sessions atomic.Uint64 // cid of the latest session: what numbers its samples

	mu    sync.Mutex
	progs []*compiled   // most recently used first, at most maxClientPairs
	pairs []*clientPair // most recently used first, at most maxClientPairs
	set   *obs.Set      // the client's ledger, made on first use
}

// clientPair is the client's half of a pair's set-up: the Free-XOR offset
// every session of the pair garbles under and the weight wires' zero-labels
// under it, of which the server holds one label each.
type clientPair struct {
	id      pairID
	delta   gc.Label
	weights []gc.Label
}

// zero wipes the pair's secrets in place.
func (e *clientPair) zero() {
	e.delta = gc.Label{}
	clear(e.weights)
}

// pairIDs returns the ids of the pairs the client holds, most recently used
// first: what a hello offers.
func (c *Client) pairIDs() []pairID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]pairID, len(c.pairs))
	for i, e := range c.pairs {
		ids[i] = e.id
	}
	return ids
}

// filePair keeps a pair's set-up under the id the server minted for it,
// wiping the least recently used one beyond maxClientPairs. The entry is the
// store's own: sessions take copies of it (resume).
func (c *Client) filePair(e *clientPair) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pairs) == maxClientPairs {
		c.pairs[maxClientPairs-1].zero()
		c.pairs = c.pairs[:maxClientPairs-1]
	}
	c.pairs = slices.Insert(c.pairs, 0, e)
}

// resume copies out the set-up filed under id, marking it used — under the
// client's lock, because Close wipes it. ok is false when it is gone.
func (c *Client) resume(id pairID) (delta gc.Label, weights []gc.Label, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.pairs, func(e *clientPair) bool { return e.id == id })
	if i < 0 {
		return delta, nil, false
	}
	e := c.pairs[i]
	c.pairs = slices.Insert(slices.Delete(c.pairs, i, i+1), 0, e)
	return e.delta, slices.Clone(e.weights), true
}

// dropPair wipes and forgets the set-up filed under id, if the client still
// holds it: an output that failed authentication on a session of the pair
// may mean the server holds other labels than the client's (a Y frame
// corrupted on its way), and the pair's next session runs the set-up OT
// again.
func (c *Client) dropPair(id pairID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.IndexFunc(c.pairs, func(e *clientPair) bool { return e.id == id }); i >= 0 {
		c.pairs[i].zero()
		c.pairs = slices.Delete(c.pairs, i, i+1)
	}
}

// ledger returns the client's ledger: the parent of its sessions' ledgers.
func (c *Client) ledger() *obs.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set == nil {
		c.set = obs.NewSet(obs.Root)
	}
	return c.set
}

// Close releases the client's pairs: every Free-XOR offset and weight
// zero-label is zeroed. Open sessions keep working (they hold copies), and
// the next session with each server runs the set-up OT again.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.pairs {
		e.zero()
	}
	c.pairs = nil
}

// compiled is one spec's entry in the client's program cache: whoever gets
// there first builds the network and compiles it, everyone else waits for
// that result. Only what a session needs of the network is kept.
type compiled struct {
	spec     string // the marshalled spec, the entry's key
	once     sync.Once
	prog     *netgen.Program
	f        fixed.Format
	inputLen int
	err      error
}

func (e *compiled) build(specData []byte) error {
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return err
	}
	net, err := spec.Build()
	if err != nil {
		return err
	}
	e.f, e.inputLen = spec.Format, net.In.Len()
	e.prog, err = netgen.Compile(net, spec.Format, netgen.Options{})
	return err
}

// program returns the cache entry of the given public spec, building it
// once per distinct spec however many sessions open on it at the same time;
// a later open allocates nothing. The cache keeps the maxClientPairs specs
// used last, failed builds included, so a server that varies its spec
// cannot grow the client.
func (c *Client) program(specData []byte) (*compiled, error) {
	c.mu.Lock()
	i := 0
	for i < len(c.progs) && c.progs[i].spec != string(specData) {
		i++
	}
	var e *compiled
	if i < len(c.progs) {
		e = c.progs[i]
	} else {
		e = &compiled{spec: string(specData)}
		if i == maxClientPairs {
			i-- // the least recently used entry goes
		} else {
			c.progs = append(c.progs, nil)
		}
	}
	copy(c.progs[1:i+1], c.progs[:i])
	c.progs[0] = e
	c.mu.Unlock()
	e.once.Do(func() { e.err = e.build(specData) })
	return e, e.err
}

// Session is an open multi-inference protocol session from the client
// side. It is not safe for concurrent use; open one session per
// goroutine (pipelining overlaps inferences on the wire, not callers).
type Session struct {
	conn  *transport.Conn
	rng   io.Reader
	f     fixed.Format
	prog  *netgen.Program
	start time.Time

	// delta is the pair's Free-XOR offset and weights the weight wires'
	// zero-labels under it, both drawn at the pair's set-up, when the server
	// took one label of each pair by OT; client and pair name the store they
	// are filed in. next is the ordinal of the next sample to begin and end
	// the first the session does not own: the server numbers the samples it
	// admits alike.
	delta     gc.Label
	weights   []gc.Label
	client    *Client
	pair      pairID
	next, end uint64

	// set is the session's ledger: the connection and the set-up OT record
	// here, each inference in a child of it, and Stats is its read-out.
	set *obs.Set

	inputLen int
	closed   bool
	failed   bool // a mid-protocol error desynchronized the stream

	// Cross-inference pipelining: window is the negotiated in-flight cap
	// (min of this client's EngineConfig.Pipeline and the server's
	// MsgPipeline announcement) and inflight the garbled-but-unresolved
	// inferences, oldest first. maxBatch is the negotiated
	// batched-inference sample cap (a batch occupies one window slot).
	window   int
	maxBatch int
	inflight []*PendingInference

	// The session's garbling engine state, reused across inferences: the
	// worker pool (a view of the shared scheduler), the table chunk buffer
	// and the garbler's label array (bufs, from the process's garblerBufs),
	// the input-label payload buffer and the input bits.
	cfg      EngineConfig
	pool     *gc.Pool
	bufs     *engineBufs
	labelBuf []byte
	bitBuf   []bool
}

// engineBufs is what a session's engine grows and keeps from inference to
// inference: the garbler's table chunk (about the tables one inference
// sends) and either party's label array. A session takes one from its
// party's pool as it opens and hands it back when it ends cleanly, so a
// process that runs session after session reuses them; the garbage
// collector drains the pools, so an idle process pins none.
type engineBufs struct {
	chunk  []byte
	labels gc.Spare
}

var garblerBufs, evaluatorBufs sync.Pool

// takeBufs returns a spent engineBufs from pool, or a new one.
func takeBufs(pool *sync.Pool) *engineBufs {
	if b, ok := pool.Get().(*engineBufs); ok {
		return b
	}
	return new(engineBufs)
}

// NewSession opens a session: protocol hello, architecture download,
// pipeline-window negotiation, netlist compilation (cached per spec) and, on
// the first session with a server (or the first since the server or this
// client dropped the pair), the OT-extension base phase and the set-up OT of
// the weight labels. With
// Engine.Deadlines.Handshake set (and a breaker installed on conn), the
// whole call is bounded by that deadline: a server that accepts and then
// stalls — or trickles the setup exchanges forever — surfaces as a
// DeadlineError instead of a hang, which is what makes re-dial retry
// policies safe to drive on top.
func (c *Client) NewSession(conn *transport.Conn) (sess *Session, err error) {
	if d := c.Engine.Deadlines.Handshake; d > 0 {
		wd := newWatchdog(conn.Break)
		wd.arm("handshake", d)
		defer func() {
			wd.disarm()
			err = wd.wrap(err)
		}()
	}
	start := time.Now()
	set := obs.NewSet(c.ledger())
	conn.SetMetrics(set)
	rng := rngOrDefault(c.Rng)
	// Session number cid of this client: it owns the sample ordinals from
	// (cid − 1)·2³², which no other session of the client shares, whichever
	// pair it runs on.
	cid := c.sessions.Add(1)
	offered := c.pairIDs()
	// Every server frame is bounded before it arrives, so that a header
	// announcing more is refused unread: the architecture is its header and
	// a spec of at most nn.MaxSpecBytes, a busy answer is one uvarint, the
	// window announcement two, the base phase's A one point, the set-up
	// OT's U the size W OTs take, and an inference's answer is bounded once
	// the program and the batch cap are known. Every other type is capped at 0.
	conn.ReadOnly(transport.MsgArch, transport.MsgBusy)
	conn.SetLimit(transport.MsgArch, archHeader+nn.MaxSpecBytes)
	conn.SetLimit(transport.MsgBusy, binary.MaxVarintLen64)
	conn.SetLimit(transport.MsgOTBase, maxOTBaseA)
	if err := conn.Send(transport.MsgHello, helloFrame(cid, offered)); err != nil {
		return nil, err
	}
	// Behind a hello that offers no pair the base phase opens in one write.
	var ots *ot.ExtSender
	otStart := time.Now()
	if len(offered) == 0 {
		if ots, err = ot.NewExtSender(conn, rng); err != nil {
			return nil, err
		}
	}
	otTime := time.Since(otStart)
	mt, arch, err := conn.RecvAny(transport.MsgArch, transport.MsgBusy)
	if err != nil {
		return nil, err
	}
	if mt == transport.MsgBusy {
		ms, n := binary.Uvarint(arch)
		if n <= 0 {
			return nil, fmt.Errorf("deepsecure: malformed busy frame")
		}
		return nil, &BusyError{RetryAfter: time.Duration(ms) * time.Millisecond}
	}
	if len(arch) < archHeader {
		return nil, fmt.Errorf("core: architecture frame of %d bytes is shorter than its %d-byte header", len(arch), archHeader)
	}
	serverDigest := [digestSize]byte(arch)
	id := pairID(arch[digestSize:])
	specData := arch[archHeader:]
	conn.SetLimit(transport.MsgPipeline, 2*binary.MaxVarintLen64)
	cp, err := c.program(specData)
	if err != nil {
		return nil, err
	}
	prog := cp.prog
	plPayload, err := conn.Recv(transport.MsgPipeline)
	if err != nil {
		return nil, err
	}
	announced, n := binary.Uvarint(plPayload)
	if n <= 0 || announced < 1 {
		return nil, fmt.Errorf("core: malformed pipeline announcement (%d bytes)", len(plPayload))
	}
	announcedBatch, n2 := binary.Uvarint(plPayload[n:])
	if n2 <= 0 || n+n2 != len(plPayload) || announcedBatch < 1 {
		return nil, fmt.Errorf("core: malformed pipeline announcement (%d bytes)", len(plPayload))
	}
	if prog.Digest != serverDigest {
		return nil, &ProgramMismatchError{Server: serverDigest, Client: prog.Digest}
	}
	window := c.Engine.PipelineDepth()
	if announced < uint64(window) {
		window = int(announced)
	}
	maxBatch := c.Engine.MaxBatchSize()
	if announcedBatch < uint64(maxBatch) {
		maxBatch = int(announcedBatch)
	}
	// An answer is a label per output wire and sample.
	conn.SetLimit(transport.MsgOutputLabels, int(prog.Stats.Outputs)*maxBatch*gc.LabelSize)
	s := &Session{
		conn:     conn,
		rng:      rng,
		f:        cp.f,
		prog:     prog,
		start:    start,
		set:      set,
		client:   c,
		pair:     id,
		next:     (cid - 1) * sessionOrdinals,
		end:      cid * sessionOrdinals,
		inputLen: cp.inputLen,
		window:   window,
		maxBatch: maxBatch,
		cfg:      c.Engine,
		pool:     c.Engine.newPool(),
	}
	w, _ := inputWires(prog.Schedule, circuit.Evaluator)
	if slices.Contains(offered, id) {
		// A repeat session: the server holds the labels it chose from the
		// pair filed under id, and the set-up is over.
		var ok bool
		if s.delta, s.weights, ok = c.resume(id); !ok {
			return nil, errors.New("core: the pair's set-up was dropped while the session opened")
		}
		if len(s.weights) != w {
			return nil, fmt.Errorf("core: the pair's set-up holds %d weight labels, the program has %d weight bits", len(s.weights), w)
		}
		set.SessionsResumed.Inc()
	} else {
		// The pair's first session: the set-up OT of the pair's delta and a
		// zero-label per weight bit, the server choosing one label of each
		// pair (on a resume miss the base phase opens only now). Its U is
		// capped at what W OTs take, so a server keyed for more weight bits
		// is refused unread, and one keyed for fewer by the U length check.
		otStart = time.Now()
		if ots == nil {
			set.ResumeMisses.Inc()
			if ots, err = ot.NewExtSender(conn, rng); err != nil {
				return nil, err
			}
		}
		var pairs [][2]ot.Msg
		if s.delta, s.weights, pairs, err = weightLabels(rng, w); err != nil {
			return nil, err
		}
		conn.SetLimit(transport.MsgOTExtU, ot.ExtULen(w))
		if err := ots.Send(pairs); err != nil {
			return nil, err
		}
		c.filePair(&clientPair{id: id, delta: s.delta, weights: slices.Clone(s.weights)})
		set.OTConsumed.Add(int64(w))
		set.OTOfflineTime.Add(int64(otTime + time.Since(otStart)))
	}
	// After set-up a server sends answers alone.
	conn.ReadOnly(transport.MsgOutputLabels)
	s.bufs = takeBufs(&garblerBufs)
	return s, nil
}

// weightLabels draws a pair's Free-XOR offset and its w weight wires'
// zero-labels, with permute bit 0 so that a label's colour is its value,
// and returns the label pairs the set-up OT transfers. The zero-labels are
// drawn in place, in one read; the pairs are a buffer of their own, so that
// they are garbage once the OT has sent them while the session keeps the
// zero-labels.
func weightLabels(rng io.Reader, w int) (delta gc.Label, zero []gc.Label, pairs [][2]ot.Msg, err error) {
	if delta, err = gc.RandomDelta(rng); err != nil {
		return delta, nil, nil, err
	}
	zero = make([]gc.Label, w)
	if err := gc.RandomLabels(rng, zero); err != nil {
		return delta, nil, nil, fmt.Errorf("core: weight-label randomness: %w", err)
	}
	pairs = make([][2]ot.Msg, w)
	for i := range zero {
		zero[i][0] &^= 1
		pairs[i] = [2]ot.Msg{zero[i], zero[i].XOR(delta)}
	}
	return delta, zero, pairs, nil
}

// InputLen returns the model's expected feature count (from the public
// architecture).
func (s *Session) InputLen() int { return s.inputLen }

// Window returns the session's negotiated in-flight inference cap.
func (s *Session) Window() int { return s.window }

// MaxBatch returns the session's negotiated batched-inference sample
// cap (min of this client's EngineConfig.MaxBatch and the server's
// announcement).
func (s *Session) MaxBatch() int { return s.maxBatch }

// PendingInference is an inference whose garbled stream is on the wire
// but whose output labels may not have returned yet. Wait blocks until
// the result is in, driving the session's receive side as needed. It
// holds batch ≥ 1 samples (more than one when wrapped in a PendingBatch):
// outZero is wire-major with samples innermost.
type PendingInference struct {
	s       *Session
	batch   int
	outZero []gc.Label
	start   time.Time
	flushed time.Time // garbled stream fully on the wire; starts the output round-trip

	// set is the inference's own ledger, under the session's: its gates,
	// kernel time and latency. before is the session's read-out when the
	// inference began — the wire is the session's, so the inference's share
	// of it is what it moved while the inference was in flight.
	set    *obs.Set
	before *Stats

	done   bool
	labels []int
	st     *Stats
}

// Wait returns the inference label (which only the client learns) and
// this inference's statistics. On a pipelined session the byte deltas
// span the inference's in-flight window, so concurrent
// inferences' traffic overlaps in them; Duration likewise includes the
// overlapped wall time.
func (p *PendingInference) Wait() (int, *Stats, error) {
	if err := p.wait(); err != nil {
		return 0, nil, err
	}
	return p.labels[0], p.st, nil
}

func (p *PendingInference) wait() error {
	for !p.done {
		if p.s.failed {
			return errors.New("core: session is broken by an earlier protocol error")
		}
		if err := p.s.resolveNext(); err != nil {
			p.s.failed = true
			return err
		}
	}
	return nil
}

// Done reports whether the result is already in (Wait will not block).
func (p *PendingInference) Done() bool { return p.done }

// resolveNext reads the next frame the server sends, which can only be an
// output-label frame, and resolves the oldest in-flight inference with it.
// Callers loop until the result they wait for is in.
func (s *Session) resolveNext() error {
	payload, err := s.conn.Recv(transport.MsgOutputLabels)
	if err != nil {
		return err
	}
	return s.resolveOutput(payload)
}

// resolveOutput authenticates one output-label frame against the oldest
// in-flight inference — answers come back in begin order — and settles the
// result (§2.2.2 step iv): a tampered, corrupted or misordered evaluation
// cannot yield a silently wrong label, it fails here. All B sample labels of
// the inference resolve from its single output frame (wire-major, samples
// innermost).
func (s *Session) resolveOutput(payload []byte) error {
	if len(s.inflight) == 0 {
		return errors.New("core: output frame with no inference in flight")
	}
	p := s.inflight[0]
	if len(payload) != len(p.outZero)*gc.LabelSize {
		return fmt.Errorf("core: output-label frame has %d bytes, want %d",
			len(payload), len(p.outZero)*gc.LabelSize)
	}
	labels := make([]int, p.batch)
	outWires := len(p.outZero) / p.batch
	for i := 0; i < outWires; i++ {
		for sm := 0; sm < p.batch; sm++ {
			var l gc.Label
			copy(l[:], payload[(i*p.batch+sm)*gc.LabelSize:])
			switch l {
			case p.outZero[i*p.batch+sm]:
				// bit 0
			case p.outZero[i*p.batch+sm].XOR(s.delta):
				labels[sm] |= 1 << uint(i)
			default:
				s.client.dropPair(s.pair)
				return fmt.Errorf("core: output label %d of the oldest inference in flight (sample %d) failed authentication", i, sm)
			}
		}
	}
	s.inflight = slices.Delete(s.inflight, 0, 1)
	p.labels = labels
	p.done = true
	// The inference is complete for this party now: its latency runs from
	// the InferBatchAsync call to here.
	took := time.Since(p.start)
	p.set.InferenceSeconds.Observe(int64(took))
	p.set.Phase[obs.PhaseOutputRoundTrip].Observe(int64(time.Since(p.flushed)))
	p.set.Inferences.Add(int64(p.batch))
	if p.batch > 1 {
		p.set.Batches.Inc()
	}
	p.st = StatsOf(p.set)
	p.st.Duration = took
	now := StatsOf(s.set)
	p.st.BytesSent = now.BytesSent - p.before.BytesSent
	p.st.BytesReceived = now.BytesReceived - p.before.BytesReceived
	return nil
}

// InferAsync garbles and streams one inference without waiting for its
// result: the cross-inference pipelining entry point, InferBatchAsync of
// one sample. While the window has room it returns as soon as the garbled
// stream is flushed — the output round-trip and the server's evaluation
// tail overlap the next InferAsync's garbling. When the window is full it
// first settles the oldest in-flight result.
func (s *Session) InferAsync(x []float64) (*PendingInference, error) {
	pb, err := s.InferBatchAsync([][]float64{x})
	if err != nil {
		return nil, err
	}
	return pb.p, nil
}

// PendingBatch is an inference of several samples whose fused garbled
// stream is on the wire but whose output labels may not have returned
// yet: PendingInference with every sample's label, returned by
// InferBatchAsync.
type PendingBatch struct {
	p *PendingInference
}

// Wait returns each sample's inference label (index-aligned with the
// xs passed to InferBatchAsync) and the batch's statistics; Inferences
// counts the samples and the gate/byte counters cover the whole fused
// pass.
func (pb *PendingBatch) Wait() ([]int, *Stats, error) {
	if err := pb.p.wait(); err != nil {
		return nil, nil, err
	}
	return pb.p.labels, pb.p.st, nil
}

// Done reports whether the results are already in (Wait will not
// block).
func (pb *PendingBatch) Done() bool { return pb.p.done }

// Size returns the batch's sample count.
func (pb *PendingBatch) Size() int { return pb.p.batch }

// InferBatchAsync garbles and streams one inference of len(xs)
// independent samples as a single fused pass — one schedule walk and one
// interleaved table stream for the whole batch — without waiting for the
// results. The batch occupies one
// slot of the pipeline window whatever its size. Validation errors
// (empty batch, batch beyond the negotiated MaxBatch, wrong sample
// widths) are reported before any frame is sent and leave the session
// usable.
func (s *Session) InferBatchAsync(xs [][]float64) (*PendingBatch, error) {
	if s.closed {
		return nil, errors.New("core: session is closed")
	}
	if s.failed {
		return nil, errors.New("core: session is broken by an earlier protocol error")
	}
	b := len(xs)
	if b == 0 {
		return nil, errors.New("core: empty inference batch")
	}
	if b > s.maxBatch {
		return nil, fmt.Errorf("core: batch of %d samples exceeds the negotiated maximum %d", b, s.maxBatch)
	}
	if s.next+uint64(b) > s.end {
		return nil, fmt.Errorf("core: the session has numbered all its %d samples", uint64(sessionOrdinals))
	}
	for i, x := range xs {
		if got, want := len(x), s.inputLen; got != want {
			return nil, fmt.Errorf("core: sample %d has %d features, model wants %d", i, got, want)
		}
	}
	for len(s.inflight) >= s.window {
		if err := s.resolveNext(); err != nil {
			s.failed = true
			return nil, err
		}
	}
	bits, flat := make([][]bool, b), s.bitBuf[:0]
	for i, x := range xs {
		from := len(flat)
		for _, v := range x {
			flat = s.f.FromFloatSat(v).AppendBits(flat)
		}
		bits[i] = flat[from:]
	}
	s.bitBuf = flat

	// Any error past this point leaves the wire mid-inference: mark the
	// session broken so a retry can't desynchronize the protocol.
	fail := func(err error) (*PendingBatch, error) {
		s.failed = true
		return nil, err
	}
	p := &PendingInference{
		s:      s,
		batch:  b,
		start:  time.Now(),
		set:    obs.NewSet(s.set),
		before: StatsOf(s.set),
	}
	if err := s.conn.Send(transport.MsgInferBegin, binary.AppendUvarint(nil, uint64(b))); err != nil {
		return fail(err)
	}
	// The batch's garbler, under the pair's delta and numbered from the
	// session's next ordinal: every sample's constant-wire labels are drawn
	// now, every client input wire's labels when its step is reached.
	g, err := gc.NewSessionGarbler(s.rng, s.delta, b)
	if err != nil {
		return fail(err)
	}
	g.SetFirst(s.next)
	s.next += uint64(b)
	g.Reuse(s.bufs.labels)
	constPayload, err := g.AppendConstLabels(s.labelBuf[:0])
	if err != nil {
		return fail(err)
	}
	if err := s.conn.Send(transport.MsgConstLabels, constPayload); err != nil {
		return fail(err)
	}
	en := &garbleEngine{
		sched:     s.prog.Schedule,
		g:         g,
		pool:      s.pool,
		conn:      s.conn,
		weights:   s.weights,
		cfg:       s.cfg,
		inputBits: bits,
		labelBuf:  constPayload[:0],
		// outZero is NOT recycled across inferences here: in-flight
		// inferences hold theirs until their outputs authenticate.
		cur: s.bufs.chunk,
	}
	if err := en.run(); err != nil {
		return fail(err)
	}
	if err := s.conn.Flush(); err != nil {
		return fail(err)
	}
	p.flushed = time.Now()
	// Hand the grown buffers back for the next inference on this session.
	s.bufs.chunk = en.cur
	s.labelBuf = en.labelBuf
	// Keep only what output authentication needs — the output zero-labels:
	// the garbler's schedule-sized label array goes to the next inference
	// here, not when the outputs return. Gate-instance
	// counts derive from the schedule, walked once per sample.
	s.bufs.labels = g.Release()
	p.outZero = en.outZero
	p.set.GatesAnd.Add(s.prog.Schedule.ANDs * int64(b))
	p.set.GatesFree.Add((int64(len(s.prog.Schedule.Gates)) - s.prog.Schedule.ANDs) * int64(b))
	p.set.GateTime.Add(int64(en.gateTime))
	p.set.Phase[obs.PhaseGarbleLive].Observe(int64(en.gateTime))
	p.set.Phase[obs.PhaseTableWrite].Observe(int64(en.writeTime))
	s.inflight = append(s.inflight, p)
	return &PendingBatch{p: p}, nil
}

// InferBatch classifies a batch of samples in one fused pass and
// returns their labels (index-aligned with xs) plus the batch's
// statistics. It is synchronous — the batch's results (and any older
// in-flight inferences') are settled before it returns.
func (s *Session) InferBatch(xs [][]float64) ([]int, *Stats, error) {
	pb, err := s.InferBatchAsync(xs)
	if err != nil {
		return nil, nil, err
	}
	return pb.Wait()
}

// Infer classifies one sample on the open session and returns the
// inference label, which only the client learns, plus statistics for this
// inference alone (byte counts are deltas, not session totals). Infer is
// synchronous — it settles this inference's result (and any older
// in-flight ones) before returning, so a pure-Infer session is serial on
// the wire regardless of the window.
func (s *Session) Infer(x []float64) (int, *Stats, error) {
	p, err := s.InferAsync(x)
	if err != nil {
		return 0, nil, err
	}
	return p.Wait()
}

// Close ends the session cleanly, telling the server to stop waiting for
// further inferences. In-flight inferences are settled first, so their
// results remain retrievable through Wait after Close. The underlying
// connection stays open (and owned by the caller). Close is idempotent.
// On a session broken mid-protocol the end marker is withheld (the
// stream is desynchronized; only tearing down the connection releases
// the peer).
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	var drainErr error
	for !s.failed && len(s.inflight) > 0 {
		if err := s.resolveNext(); err != nil {
			s.failed = true
			drainErr = err
		}
	}
	s.closed = true
	if s.failed {
		return drainErr
	}
	garblerBufs.Put(s.bufs)
	s.bufs = nil
	if err := s.conn.Send(transport.MsgEndSession, nil); err != nil {
		return err
	}
	return s.conn.Flush()
}

// Stats returns cumulative statistics for the whole session so far,
// including the handshake and any OT set-up.
func (s *Session) Stats() *Stats {
	st := StatsOf(s.set)
	st.Duration = time.Since(s.start)
	return st
}

// Infer classifies one sample over a fresh single-inference session
// (Fig. 3 client side) and returns the inference label. The reported
// stats cover the whole session including handshake and any OT set-up.
func (c *Client) Infer(conn *transport.Conn, x []float64) (int, *Stats, error) {
	labels, st, err := c.InferMany(conn, [][]float64{x})
	if err != nil {
		return 0, nil, err
	}
	return labels[0], st, nil
}

// InferMany opens one session, classifies every sample on it, and closes
// the session: N inferences for one handshake, at most one OT set-up, and
// one netlist compilation — and, with a pipeline window deeper than 1,
// consecutive inferences overlapped on the wire (inference k+1 garbles
// while inference k's output round-trip and evaluation tail are still
// pending). Results stream in as they complete; the returned stats are
// session totals.
func (c *Client) InferMany(conn *transport.Conn, xs [][]float64) ([]int, *Stats, error) {
	sess, err := c.NewSession(conn)
	if err != nil {
		return nil, nil, err
	}
	ps := make([]*PendingInference, 0, len(xs))
	for _, x := range xs {
		p, err := sess.InferAsync(x)
		if err != nil {
			// Best-effort close so a server blocked at the inference
			// boundary (e.g. after a local validation error) is released
			// instead of waiting for the connection to die.
			sess.Close() //nolint:errcheck — the InferAsync error is the one to report
			return nil, nil, err
		}
		ps = append(ps, p)
	}
	labels := make([]int, 0, len(xs))
	for _, p := range ps {
		label, _, err := p.Wait()
		if err != nil {
			sess.Close() //nolint:errcheck — the Wait error is the one to report
			return nil, nil, err
		}
		labels = append(labels, label)
	}
	if err := sess.Close(); err != nil {
		return nil, nil, err
	}
	return labels, sess.Stats(), nil
}

// InferBatch opens one session, classifies every sample in a single
// fused inference, and closes the session: one handshake, at most one OT
// set-up, one schedule walk and one interleaved table
// stream for the whole batch. len(xs) must fit the
// negotiated batch cap (the min of this client's EngineConfig.MaxBatch
// and the server's announcement); for larger workloads, split into
// batches on an open
// Session (InferBatch/InferBatchAsync compose with the pipeline
// window) or fall back to InferMany. The returned stats are session
// totals.
func (c *Client) InferBatch(conn *transport.Conn, xs [][]float64) ([]int, *Stats, error) {
	sess, err := c.NewSession(conn)
	if err != nil {
		return nil, nil, err
	}
	labels, _, err := sess.InferBatch(xs)
	if err != nil {
		// Best-effort close so a server blocked at the inference
		// boundary (e.g. after a local validation error) is released.
		sess.Close() //nolint:errcheck — the InferBatch error is the one to report
		return nil, nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, nil, err
	}
	return labels, sess.Stats(), nil
}

// Package core orchestrates DeepSecure's end-to-end secure inference
// protocol (paper Fig. 2 and Fig. 3): the client (data owner) garbles the
// publicly-known DL netlist and the cloud server (model owner) evaluates
// it, with the client's data bits entering as garbler inputs, the model
// weights entering through IKNP oblivious transfer, and only the client
// learning the inference label.
//
// Sessions are multi-inference: the parties negotiate once (hello,
// architecture exchange, OT pool fill) and compile the public netlist once
// into a replayable tape (netgen.Compile); each further inference on the
// session only pays for fresh labels, garbling, and the streamed tables
// (protocolHello describes the frames). One-shot Serve/Infer remain as
// single-inference sessions. The OT-extension base phase is paid once per
// Client–Server pair: each keeps its half of the base correlation (the
// Client for 8 servers, the Server for 4096 clients, in memory), and every
// session of the pair, the first included, derives its IKNP streams from it
// under a nonce made of the two parties' own session counters.
//
// The package also implements the secure-outsourcing deployment (§3.3,
// Fig. 4) where a resource-constrained client XOR-shares its input between
// a proxy (who garbles) and the main server (who evaluates), and neither
// learns the input or — in this implementation — the result.
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
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// protocolHello identifies the session protocol; exactly one version is
// accepted, and it changes when the frames do. What they carry is bound
// separately: the server's architecture frame opens with its program's
// digest (netgen.Program.Digest), the client compares it with that of what
// it compiled from the same architecture, and a difference is a
// *ProgramMismatchError from NewSession before the OT base phase. So a
// change to the netlist an architecture compiles to changes the digest and
// not this string: a peer built from another generator is refused at the
// handshake either way, never by a label that fails to authenticate
// mid-stream. (The §3.3 streaming deployment compiles no tape; its peers
// agree on this string alone.)
//
// Setup, in order: client MsgHello (this string, a zero byte, the client's
// session counter cid as 8 big-endian bytes, then the 16-byte id of every
// OT base correlation the client holds, at most 8); server MsgArch (the
// 32-byte program digest, the id of the base correlation the session
// extends — the first offered one the server holds, else a freshly minted
// one — the server's session counter sid as 8 big-endian bytes, then the
// public spec; or MsgBusy with a uvarint retry-after in ms, then close) and
// MsgPipeline (uvarint in-flight window, uvarint batch cap); the
// OT-extension base phase (MsgOTBase) unless the id is one the client
// offered, each party filing its half under the id afterwards; the server's
// pool announcement MsgOTRefill (uvarint capacity ≥ 1; uvarint W, the
// evaluator-input bits per sample) and its initial fill — MsgOTRefill
// (uvarint n) and MsgOTExtU from the server, MsgOTExtY back. Fresh or
// repeat, the session's IKNP streams are the base's derivation under the
// nonce cid ‖ sid, so a repeat session's set-up is the hello, one server
// flight and the client's Y, which the first inference's burst follows
// without a read in between. (The §3.3 streaming deployment sends the bare
// string as its hello and runs its own base phase per connection.)
//
// An inference classifies B ≥ 1 samples and is one client→server burst
// answered by one frame. The burst: MsgInferBegin (uvarint B, at most the
// announced batch cap), then MsgConstLabels (the B false-labels, then the
// B true-labels) and, in schedule order, MsgInputLabels (the client's
// active input labels of one step), MsgOTMasked (one evaluator-input
// step: per wire and sample the label pair masked with the inference's
// next two pool halves) and MsgTables (garbled tables, chunked at level
// boundaries). Every payload is wire-major with samples innermost; a
// level's tables are its full ANDs' (rank i, sample s at (i·B+s)·32),
// then its half ANDs' (rank j among them, sample s at (j·B+s)·16 behind).
// The answer is MsgOutputLabels. An inference owns B·W pool entries,
// sample s's bit c at q0 + s·W + c; ranges are handed out in begin order.
//
// A client sends one burst whole before it begins the next, and up to the
// announced window of inferences may be in flight; answers come back in
// begin order, so frame order is all that ties a frame to its inference.
// Between bursts the server may announce a pool refill (MsgOTRefill n,
// MsgOTExtU), which the client answers (MsgOTExtY) when it next reads; that
// is the only OT traffic after setup. MsgEndSession from the client ends
// the session.
const protocolHello = "deepsecure/13"

// digestSize is the length of the program digest that opens a session's
// architecture frame.
const digestSize = len(netgen.Program{}.Digest)

// baseID names one OT base correlation between a client and a server. The
// server mints it when the base phase runs; it is a name, not a secret:
// whoever presents a copied one gets a session keyed to seeds it does not
// have. A Client keeps maxClientBases correlations (so a hello carries at
// most that many ids) and a Server maxServerBases — 4 KiB of seeds each,
// 16 MiB in all — both dropping the least recently used first.
type baseID [16]byte

const (
	maxClientBases = 8
	maxServerBases = 4096
)

// helloFrame is the client's opening frame: the protocol version, a zero
// byte, the client's session counter (8 bytes, big-endian) and every base
// id it holds.
func helloFrame(cid uint64, ids []baseID) []byte {
	p := binary.BigEndian.AppendUint64(append([]byte(protocolHello), 0), cid)
	for _, id := range ids {
		p = append(p, id[:]...)
	}
	return p
}

// parseHello is the server's reading of a hello frame.
func parseHello(p []byte) (cid uint64, ids []baseID, err error) {
	version, rest, terminated := bytes.Cut(p, []byte{0})
	if string(version) != protocolHello {
		return 0, nil, fmt.Errorf("core: unknown protocol %q", version)
	}
	const idLen = len(baseID{})
	if !terminated || len(rest) < 8 || (len(rest)-8)%idLen != 0 || (len(rest)-8)/idLen > maxClientBases {
		return 0, nil, fmt.Errorf("core: malformed hello: %d bytes after the protocol version", len(rest))
	}
	for r := rest[8:]; len(r) > 0; r = r[idLen:] {
		ids = append(ids, baseID(r))
	}
	return binary.BigEndian.Uint64(rest), ids, nil
}

// archHeader is what precedes the spec in the server's architecture frame:
// its program's digest, the id of the base correlation the session extends
// and the server's session counter (8 bytes, big-endian).
const archHeader = digestSize + len(baseID{}) + 8

func archFrame(digest [digestSize]byte, id baseID, sid uint64, spec []byte) []byte {
	return slices.Concat(digest[:], id[:], binary.BigEndian.AppendUint64(nil, sid), spec)
}

// receiverBases is a server's store of base correlations, by id. There is
// no expiry — a base is as good on its thousandth session as on its first —
// and nothing is persisted: a new process holds none, and its clients'
// offers are misses that cost them one base phase.
type receiverBases struct {
	mu    sync.Mutex
	byID  map[baseID]*list.Element
	order list.List // of receiverBaseEntry, most recently used first
}

type receiverBaseEntry struct {
	id   baseID
	base *ot.ReceiverBase
}

// first returns the first of the offered bases the store holds, marking it
// used, or a nil base.
func (b *receiverBases) first(offered []baseID) (baseID, *ot.ReceiverBase) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range offered {
		if el, ok := b.byID[id]; ok {
			b.order.MoveToFront(el)
			return id, el.Value.(receiverBaseEntry).base
		}
	}
	return baseID{}, nil
}

func (b *receiverBases) put(id baseID, base *ot.ReceiverBase) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byID == nil {
		b.byID = make(map[baseID]*list.Element)
	}
	b.byID[id] = b.order.PushFront(receiverBaseEntry{id, base})
	for b.order.Len() > maxServerBases {
		delete(b.byID, b.order.Remove(b.order.Back()).(receiverBaseEntry).id)
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

// PoolMismatchError is returned by NewSession when the server keyed its OT
// pool for a different number of evaluator-input bits than the client's
// compiled schedule transfers per sample: the two would disagree on every
// inference's pool range, so the session is refused at setup.
type PoolMismatchError struct {
	Announced int // W in the server's pool announcement
	Compiled  int // evaluator-input wires in the client's schedule
}

func (e *PoolMismatchError) Error() string {
	return fmt.Sprintf("deepsecure: server transfers %d weight bits per sample, this client's netlist takes %d", e.Announced, e.Compiled)
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

	// Sessions that extended a stored OT base correlation instead of running
	// the base phase, and sessions that offered some the server held none of.
	SessionsResumed int64
	ResumeMisses    int64

	// Offline/online OT split: offline covers the extension base phase and
	// OT pool fills — crypto paid at session setup and in refill gaps —
	// while online is the OT work left on the inference critical path
	// (per-step masking and unmasking).
	OTOfflineTime time.Duration
	OTOnlineTime  time.Duration
	OTsPooled     int64 // OTs bulk-generated into the pool
	OTsConsumed   int64 // pooled OTs spent on input steps
	OTRefills     int64 // pool fill exchanges, the initial fill included
	OTBatches     int64 // online OT transfers (one per input step)

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
// server's: the one place the fields are told which counter they are. An
// input step is one observation of the ot_derand phase, so that histogram
// holds the online OT figures. Duration is the finished server sessions' wall
// time; a client session or inference, which is still running or was timed
// by its caller, overwrites it.
func StatsOf(s *obs.Set) *Stats {
	derand := s.Phase[obs.PhaseOTDerand]
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
		OTOnlineTime:    time.Duration(derand.Sum()),
		OTsPooled:       s.OTPooled.Value(),
		OTsConsumed:     s.OTConsumed.Value(),
		OTRefills:       s.OTRefills.Value(),
		OTBatches:       derand.Count(),
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
	// table chunking). The zero value derives workers from GOMAXPROCS.
	Engine EngineConfig
	// OTPool sizes the offline OT pool each session precomputes at setup,
	// keyed to the model's weight bits, and refills between inferences
	// (the server owns the policy; clients follow whatever it announces).
	// The zero value sizes it from the program: W weight bits × the
	// announced in-flight window (precomp.PoolConfig.Sized).
	OTPool precomp.PoolConfig

	// Fixed per server, made once, shared read-only by every session: the
	// program, the marshalled spec and the weight bits that key the OT pools.
	compileOnce sync.Once
	prog        *netgen.Program
	spec        []byte
	weightBits  []bool
	compileErr  error

	sessions atomic.Uint64 // sid of the latest session: this server's half of every nonce
	bases    receiverBases

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

// Program returns the server's compiled netlist tape, compiling it on
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
// as an implicit close). The handshake, OT-extension base phase, and
// netlist compilation happen once; each inference replays the compiled
// tape with fresh evaluation state. Up to EngineConfig.Pipeline inferences
// may be begun and unanswered; they are evaluated one at a time, in begin
// order, on the calling goroutine, while a reader goroutine takes the next
// one's garbled stream off the wire and a writer goroutine sends the answers
// — so one inference's evaluation tail and output round-trip overlap the
// next one's arrival, on any path (see mux.go). Returns per-session
// statistics — never nil: with an error, what the session got to. On a
// torn-down session the reader and writer goroutines may survive until the
// caller closes the underlying connection.
func (s *Server) ServeSession(conn *transport.Conn) (*Stats, error) {
	start := time.Now()
	parent := s.metrics
	if parent == nil {
		parent = obs.Root
	}
	// The session's ledger: the connection, the OT pool and the inferences
	// all record here, and the returned Stats is its read-out.
	set := obs.NewSet(parent)
	conn.SetMetrics(set)
	finish := func() *Stats {
		set.SessionTime.Add(int64(time.Since(start)))
		return StatsOf(set)
	}
	// Phase watchdog: serial setup phases (handshake, OT setup) are
	// bracketed by arm/disarm here; the mux times each inference.
	// Enforcement breaks the connection, and wd.wrap rewrites
	// the resulting I/O error into the DeadlineError that explains it.
	wd := newWatchdog(conn.Break)
	defer wd.disarm()
	fail := func(err error) (*Stats, error) { return finish(), wd.wrap(err) }

	rng := rngOrDefault(s.Rng)
	wd.arm("handshake", s.Engine.Deadlines.Handshake)
	hello, err := conn.Recv(transport.MsgHello)
	if err != nil {
		return fail(err)
	}
	cid, offered, err := parseHello(hello)
	if err != nil {
		return finish(), err
	}
	prog, err := s.Program()
	if err != nil {
		return finish(), err
	}
	// The base correlation this session extends: the first offered one this
	// server still holds, or one the base phase below makes, under a fresh
	// id. The session is number sid of this server, whatever the client
	// says its own number is.
	sid := s.sessions.Add(1)
	id, base := s.bases.first(offered)
	if base == nil {
		if _, err := io.ReadFull(rng, id[:]); err != nil {
			return fail(fmt.Errorf("core: base id randomness: %w", err))
		}
	}
	// A spec of directWrite bytes or more (a pruned model's carries its
	// sparsity map) is written through here, so this Send can be where the
	// handshake deadline finds a client that stopped reading.
	if err := conn.Send(transport.MsgArch, archFrame(prog.Digest, id, sid, s.spec)); err != nil {
		return fail(err)
	}
	// In-flight window and batch-cap announcement: the server owns both
	// policies, clients clamp their own pipelining and batching to them.
	plBuf := binary.AppendUvarint(nil, uint64(s.Engine.PipelineDepth()))
	plBuf = binary.AppendUvarint(plBuf, uint64(s.Engine.MaxBatchSize()))
	if err := conn.Send(transport.MsgPipeline, plBuf); err != nil {
		return fail(err)
	}
	wd.arm("ot-setup", s.Engine.Deadlines.OTSetup)

	// OT-extension base phase: once per client–server pair, amortized over
	// every weight transfer of every session the pair runs. A repeat
	// session skips it — no MsgOTBase frame, no public-key operation — and
	// differs in nothing else: fresh or repeat, the session is the base's
	// derivation under its own nonce. Base-phase and pool-fill time are the
	// protocol's offline OT cost.
	baseStart := time.Now()
	if base != nil {
		set.SessionsResumed.Inc()
	} else {
		if len(offered) > 0 {
			set.ResumeMisses.Inc()
		}
		if base, err = ot.NewReceiverBase(conn, rng); err != nil {
			return fail(err)
		}
		s.bases.put(id, base)
	}
	ots := base.Session(conn, ot.SessionNonce(cid, sid))
	set.OTOfflineTime.Add(int64(time.Since(baseStart)))

	// OT pool: announce the server's policy and bulk-fill at setup with the
	// weight bits as choices, so an inference's input steps only unmask.
	otp := precomp.NewReceiverPool(conn, ots, rng, s.OTPool.Sized(len(s.weightBits), s.Engine.PipelineDepth()))
	otp.SetKey(s.weightBits)
	otp.SetMetrics(set)
	if err := otp.Announce(); err != nil {
		return fail(err)
	}
	wd.disarm()

	return fail(newSessionMux(s, conn, otp, prog.Schedule, wd, set).run())
}

// Client runs secure inferences against a server. A Client caches the
// compiled netlist program per public model spec, so repeated sessions
// against the same model skip generation entirely, and the OT base
// correlation per server (up to eight 4 KiB sets of seeds, in memory only),
// so repeated sessions with the same server skip the base phase. Safe for
// concurrent use by multiple sessions, provided Rng is nil or itself safe
// for concurrent use (deterministic readers like *math/rand.Rand are only
// for single-session tests).
type Client struct {
	// Rng sources protocol randomness (crypto/rand when nil).
	Rng io.Reader
	// Engine tunes the level-scheduled garbling engine (worker count,
	// table chunking). The zero value derives workers from GOMAXPROCS.
	Engine EngineConfig

	sessions atomic.Uint64 // cid of the latest session: this client's half of every nonce

	mu    sync.Mutex
	progs map[string]*compiled
	bases []senderBaseEntry // most recently used first, at most maxClientBases
	set   *obs.Set          // the client's ledger, made on first use
}

type senderBaseEntry struct {
	id   baseID
	base *ot.SenderBase
}

// baseIDs returns the ids of the base correlations the client holds, most
// recently used first: what a hello offers.
func (c *Client) baseIDs() []baseID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]baseID, len(c.bases))
	for i, e := range c.bases {
		ids[i] = e.id
	}
	return ids
}

// fileBase keeps a base correlation under the id the server minted for it,
// wiping the least recently used one beyond maxClientBases.
func (c *Client) fileBase(id baseID, base *ot.SenderBase) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bases) == maxClientBases {
		c.bases[maxClientBases-1].base.Zero()
		c.bases = c.bases[:maxClientBases-1]
	}
	c.bases = slices.Insert(c.bases, 0, senderBaseEntry{id, base})
}

// resume derives the extension sender of session nonce from the base filed
// under id, marking it used — under the client's lock, because Close wipes
// the seeds the derivation reads. It returns nil when the base is gone.
func (c *Client) resume(id baseID, conn transport.FrameConn, nonce ot.Nonce) *ot.ExtSender {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.bases, func(e senderBaseEntry) bool { return e.id == id })
	if i < 0 {
		return nil
	}
	e := c.bases[i]
	c.bases = slices.Insert(slices.Delete(c.bases, i, i+1), 0, e)
	return e.base.Session(conn, nonce)
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

// Close releases the client's OT base correlations: every base seed is
// zeroed. Open sessions keep working, and the next session with each server
// pays the base phase again.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.bases {
		e.base.Zero()
	}
	c.bases = nil
}

// compiled is one spec's entry in the client's program cache: whoever gets
// there first builds the network and compiles it, everyone else waits for
// that result. Only what a session needs of the network is kept.
type compiled struct {
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
// a later open allocates nothing.
func (c *Client) program(specData []byte) (*compiled, error) {
	c.mu.Lock()
	e := c.progs[string(specData)]
	if e == nil {
		if c.progs == nil {
			c.progs = make(map[string]*compiled)
		}
		e = new(compiled)
		c.progs[string(specData)] = e
	}
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
	ots   *precomp.SenderPool
	start time.Time

	// set is the session's ledger: the connection and the OT pool record
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
	// and the label payload buffer (input labels and masked weight-label
	// pairs alike).
	cfg      EngineConfig
	pool     *gc.Pool
	chunkBuf []byte
	labelBuf []byte
}

// clientOTConn is the client session's face for the OT stack and the
// garbling engine: a passthrough to the connection that additionally
// resolves output-label frames of earlier in-flight inferences arriving
// ahead of the refill the OT stack is reading for.
type clientOTConn struct{ s *Session }

// SetLimit lets the OT pool pin the size of the refill frame it expects.
func (v clientOTConn) SetLimit(t transport.MsgType, n int) { v.s.conn.SetLimit(t, n) }

func (v clientOTConn) Send(t transport.MsgType, payload []byte) error {
	return v.s.conn.Send(t, payload)
}

func (v clientOTConn) Flush() error { return v.s.conn.Flush() }

func (v clientOTConn) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := v.RecvAny(want)
	return p, err
}

func (v clientOTConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	// Stack-allocated want set for the per-step hot path (the pools ask
	// for at most three types).
	var buf [4]transport.MsgType
	wants := append(append(buf[:0], want...), transport.MsgOutputLabels)
	for {
		typ, p, err := v.s.conn.RecvAny(wants...)
		if err != nil {
			return 0, nil, err
		}
		if typ == transport.MsgOutputLabels {
			if err := v.s.resolveOutput(p); err != nil {
				return 0, nil, err
			}
			continue
		}
		return typ, p, nil
	}
}

// NewSession opens a session: protocol hello, architecture download,
// pipeline-window negotiation, netlist compilation (cached per spec), the
// OT-extension base phase (on the first visit to a server; a repeat visit
// extends the stored base) and the pool fill. With Engine.Deadlines.Handshake set
// (and a breaker installed on conn), the whole call is bounded by that
// deadline: a server that accepts and then stalls — or trickles the
// setup exchanges forever — surfaces as a DeadlineError instead of a
// hang, which is what makes re-dial retry policies safe to drive on top.
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
	// Session number cid of this client, whatever the server numbers it: the
	// half of the OT nonce that is the client's to keep from repeating.
	cid := c.sessions.Add(1)
	offered := c.baseIDs()
	// Every server frame is bounded before it arrives, so that a header
	// announcing more is refused unread: the architecture is its header and
	// a spec of at most nn.MaxSpecBytes, a busy answer is one uvarint, the
	// window announcement two, and an inference's answer is bounded once the
	// program and the batch cap are known (the OT pool bounds its own
	// ot-ext-u frames).
	conn.SetLimit(transport.MsgArch, archHeader+nn.MaxSpecBytes)
	conn.SetLimit(transport.MsgBusy, binary.MaxVarintLen64)
	if err := conn.Send(transport.MsgHello, helloFrame(cid, offered)); err != nil {
		return nil, err
	}
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
	id := baseID(arch[digestSize:])
	sid := binary.BigEndian.Uint64(arch[archHeader-8:])
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
		inputLen: cp.inputLen,
		window:   window,
		maxBatch: maxBatch,
		cfg:      c.Engine,
		pool:     c.Engine.newPool(),
	}
	// The session's extension sender: derived from the base the server
	// named if this client offered it — no base phase — and otherwise from
	// the one the phase makes now, filed under the server's id for it.
	baseStart := time.Now()
	nonce := ot.SessionNonce(cid, sid)
	var ots *ot.ExtSender
	if slices.Contains(offered, id) {
		if ots = c.resume(id, clientOTConn{s}, nonce); ots == nil {
			return nil, errors.New("core: client closed while the session opened")
		}
		set.SessionsResumed.Inc()
	} else {
		if len(offered) > 0 {
			set.ResumeMisses.Inc()
		}
		base, err := ot.NewSenderBase(clientOTConn{s}, rng)
		if err != nil {
			return nil, err
		}
		c.fileBase(id, base)
		ots = base.Session(clientOTConn{s}, nonce)
	}
	set.OTOfflineTime.Add(int64(time.Since(baseStart)))
	// Pool announcement: the server says how many OTs this session
	// precomputes and how many it transfers per sample; the initial bulk
	// fill happens here, as part of session setup.
	otp := precomp.NewSenderPool(clientOTConn{s}, ots, rng)
	otp.SetMetrics(set)
	if err := otp.HandleAnnounce(); err != nil {
		return nil, err
	}
	if compiled, _ := inputWires(prog.Schedule, circuit.Evaluator); otp.Width() != compiled {
		return nil, &PoolMismatchError{Announced: otp.Width(), Compiled: compiled}
	}
	s.ots = otp
	return s, nil
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
// outZero is wire-major with samples innermost and deltas holds each
// sample's Free-XOR offset.
type PendingInference struct {
	s       *Session
	batch   int
	deltas  []gc.Label
	outZero []gc.Label
	start   time.Time
	flushed time.Time // garbled stream fully on the wire; starts the output round-trip

	// set is the inference's own ledger, under the session's: its gates,
	// kernel time and latency. before is the session's
	// read-out when the inference began — the wire and the OT pool are the
	// session's, so the inference's share of them is what they moved while
	// it was in flight.
	set    *obs.Set
	before *Stats

	done   bool
	labels []int
	st     *Stats
}

// Wait returns the inference label (which only the client learns) and
// this inference's statistics. On a pipelined session the byte and OT
// deltas span the inference's in-flight window, so concurrent
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

// resolveNext reads the next frame the server sends between bursts: an
// output-label frame, which resolves the oldest in-flight inference, or a
// pool refill announcement, which is answered on the spot; an
// extension request that no refill announced is handed to the pool too,
// which refuses it. Callers loop until the result they wait for is in.
func (s *Session) resolveNext() error {
	typ, payload, err := s.conn.RecvAny(transport.MsgOutputLabels, transport.MsgOTRefill, transport.MsgOTExtU)
	if err != nil {
		return err
	}
	if typ == transport.MsgOutputLabels {
		return s.resolveOutput(payload)
	}
	return s.ots.HandleRefill(typ, payload)
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
			case p.outZero[i*p.batch+sm].XOR(p.deltas[sm]):
				labels[sm] |= 1 << uint(i)
			default:
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
	p.st.OTOfflineTime = now.OTOfflineTime - p.before.OTOfflineTime
	p.st.OTOnlineTime = now.OTOnlineTime - p.before.OTOnlineTime
	p.st.OTsPooled = now.OTsPooled - p.before.OTsPooled
	p.st.OTsConsumed = now.OTsConsumed - p.before.OTsConsumed
	p.st.OTRefills = now.OTRefills - p.before.OTRefills
	p.st.OTBatches = now.OTBatches - p.before.OTBatches
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
// independent samples as a single fused pass — one schedule walk, one
// interleaved table stream, and one OT transfer per input step for the
// whole batch — without waiting for the results. The batch occupies one
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
	bits := make([][]bool, b)
	for i, x := range xs {
		bits[i] = make([]bool, 0, len(x)*s.f.Bits())
		for _, v := range x {
			bits[i] = append(bits[i], s.f.FromFloatSat(v).Bits()...)
		}
	}

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
	// The inference's pool entries: the next b samples' worth, with refills
	// answered until the pool covers them. On a warm pool this reads nothing.
	otr := s.ots.Reserve(b)
	err := s.ots.Cover(otr)
	if err != nil {
		return fail(err)
	}
	// The batch's garbler: every sample's delta and constant-wire labels are
	// drawn now, every input wire's labels when its step is reached.
	g, err := gc.NewBatchGarbler(s.rng, b)
	if err != nil {
		return fail(err)
	}
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
		conn:      clientOTConn{s},
		ots:       s.ots,
		otr:       otr,
		cfg:       s.cfg,
		inputBits: bits,
		labelBuf:  constPayload[:0],
		// outZero is NOT recycled across inferences here: in-flight
		// inferences hold theirs until their outputs authenticate.
		cur: s.chunkBuf,
	}
	if err := en.run(); err != nil {
		return fail(err)
	}
	if err := s.conn.Flush(); err != nil {
		return fail(err)
	}
	p.flushed = time.Now()
	// Hand the grown buffers back for the next inference on this session.
	s.chunkBuf = en.cur
	s.labelBuf = en.labelBuf
	// Keep only what output authentication needs — the deltas and the
	// output zero-labels: the garbler's schedule-sized label array is
	// released here, not when the outputs return. Gate-instance counts
	// derive from the schedule, walked once per sample.
	p.deltas = g.R
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
	if err := s.conn.Send(transport.MsgEndSession, nil); err != nil {
		return err
	}
	return s.conn.Flush()
}

// Stats returns cumulative statistics for the whole session so far,
// including the handshake and OT base phase.
func (s *Session) Stats() *Stats {
	st := StatsOf(s.set)
	st.Duration = time.Since(s.start)
	return st
}

// Infer classifies one sample over a fresh single-inference session
// (Fig. 3 client side) and returns the inference label. The reported
// stats cover the whole session including handshake and OT base phase.
func (c *Client) Infer(conn *transport.Conn, x []float64) (int, *Stats, error) {
	labels, st, err := c.InferMany(conn, [][]float64{x})
	if err != nil {
		return 0, nil, err
	}
	return labels[0], st, nil
}

// InferMany opens one session, classifies every sample on it, and closes
// the session: N inferences for one handshake, one OT base phase, and
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
// fused inference, and closes the session: one handshake, one OT base
// phase, one schedule walk, one interleaved table stream, and one OT
// transfer per input step for the whole batch. len(xs) must fit the
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

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// This file is the server side of a session: one reader goroutine
// demultiplexes the connection's tagged frames into per-inference
// evaluation contexts, so the server can evaluate inference k while the
// client is already streaming inference k+1. The pieces:
//
//	reader ──▶ per-inference inbox ──▶ evalCtx goroutine (evalEngine)
//	       └─▶ OT pool (refill answers, banked in wire order)
//	evalCtx ──▶ muxConn (mutex-serialized writes) ──▶ conn
//
// The in-flight window (transport.Window, depth = EngineConfig.Pipeline)
// bounds concurrent contexts. Each context owns a disjoint range of the
// session's OT pool, reserved by the reader when the begin frame arrives,
// so contexts never wait on each other. Writes from contexts interleave
// at frame granularity; at depth 1 a single context exists at a time, so
// the wire stream is byte-identical to a strictly serial run of the
// engines (pinned by TestPipelineDepth1Conformance).
//
// An inference is one client→server burst answered by one output frame,
// and nothing here can turn that into a deadlock:
//
//   - The reader never waits on a writer. It writes nothing itself, and a
//     context writes only where no frame of its own can be pending behind
//     it: the refills its range depends on before its first receive (the
//     client is then blocked reading for exactly those, see
//     precomp.ReceiverPool.Cover), everything else after its last. So a
//     full inbox always drains and the client's burst always lands.
//   - The client never waits on a write the server is not reading: it
//     reads only between bursts, or for a refill its begin frame (flushed
//     by that read) made the reader decide.

// frame is one routed protocol frame, its inference tag already stripped
// and its type mapped back to the logical (untagged) protocol type.
type frame struct {
	typ     transport.MsgType
	payload []byte
}

// errSessionTorn marks errors that are consequences of session teardown
// (closed routing channels, aborted pool turns) rather than root causes:
// the main loop prefers the reader's protocol error or another context's
// hard error over these.
var errSessionTorn = errors.New("core: session torn down")

// routeStallTimeout bounds how long the demux reader will wait to route
// a frame into a context's inbox: far beyond any legitimate
// backpressure pause (consuming one inbox slot means evaluating at most
// a few gate levels), it exists so a hostile client flooding frames a
// context cannot legally consume wedges the session with an error
// instead of pinning the reader forever.
const routeStallTimeout = 5 * time.Minute

// muxConn is the shared half of a demultiplexed session connection: the
// connection with its writes serialized, for concurrent contexts. Session
// setup (base OT phase, pool announcement and fill) also receives through
// it; once the reader starts, the reader alone reads and a muxConn only
// writes.
type muxConn struct {
	*transport.Conn
	wmu sync.Mutex
}

func (m *muxConn) Send(t transport.MsgType, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.Conn.Send(t, payload)
}

func (m *muxConn) SendTagged(t transport.MsgType, id uint64, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.Conn.SendTagged(t, id, payload)
}

func (m *muxConn) Flush() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.Conn.Flush()
}

// evalCtx is one in-flight inference on the server: its routed frame
// inbox and its death marker (closed when the context goroutine exits,
// so the reader stops routing to it). batch is the sub-stream's sample
// count B ≥ 1 from its begin frame.
type evalCtx struct {
	id    uint64
	batch int
	otr   precomp.Range // the inference's OT-pool entries
	start time.Time     // admission time, for the per-inference latency histogram
	inbox chan frame
	dead  chan struct{}
	// deadline is this inference's independent watchdog timer (nil when
	// no per-inference deadline is configured); runCtx stops it when the
	// context settles.
	deadline *time.Timer
}

// ctxConn is an evalCtx's view of the session connection: receives come
// from the context's routed inbox, sends are tagged with the inference
// id and serialized through the muxConn.
type ctxConn struct {
	m *sessionMux
	c *evalCtx
}

func (v *ctxConn) Send(t transport.MsgType, payload []byte) error {
	if t == transport.MsgOutputLabels {
		return v.m.mc.SendTagged(transport.MsgInferOutputs, v.c.id, payload)
	}
	return v.m.mc.Send(t, payload)
}

func (v *ctxConn) Flush() error { return v.m.mc.Flush() }

func (v *ctxConn) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := v.RecvAny(want)
	return p, err
}

// RecvAny takes the context's next routed frame, failing fast with a
// teardown-tagged error when the reader or the session is gone. It flushes
// pending writes first: refills the awaited frame depends on may still be
// buffered.
func (v *ctxConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	if err := v.m.mc.Flush(); err != nil {
		return 0, nil, err
	}
	select {
	case f, ok := <-v.c.inbox:
		if !ok {
			return 0, nil, fmt.Errorf("core: session ended mid-inference %d: %w", v.c.id, errSessionTorn)
		}
		for _, w := range want {
			if f.typ == w {
				return f.typ, f.payload, nil
			}
		}
		return 0, nil, fmt.Errorf("core: protocol desync mid-inference %d: got %v frame, want %v", v.c.id, f.typ, want)
	case <-v.m.stop:
		return 0, nil, fmt.Errorf("core: teardown mid-inference %d: %w", v.c.id, errSessionTorn)
	}
}

// muxEvent is a completion notification to the session's main loop.
type muxEvent struct {
	readerDone bool
	err        error
}

// sessionMux runs one demultiplexed session on the server: its
// inference sub-streams share the window, the routing, the OT pool and
// one worker pool (a shared-scheduler gc.Pool carries no per-call state,
// so concurrent contexts' level runs all land on the process-wide worker
// set).
type sessionMux struct {
	srv   *Server
	conn  *transport.Conn
	mc    *muxConn
	otp   *precomp.ReceiverPool
	pool  *gc.Pool
	win   *transport.Window
	sched *circuit.Schedule
	cfg   EngineConfig

	weightBits []bool
	wd         *watchdog // session phase watchdog (nil = no deadlines armed)
	set        *obs.Set  // the session's ledger

	events  chan muxEvent
	stop    chan struct{}
	ctxs    map[uint64]*evalCtx
	spawned int // reader-owned until readerDone, then main-owned

	// In-flight tracking: the ledger gets the peak and, interval by
	// interval, the time with ≥2 inferences active — the session's measured
	// overlap. overlapSince is zero while no such interval is open.
	statMu       sync.Mutex
	inFlight     int
	overlapSince time.Time
}

func newSessionMux(srv *Server, conn *transport.Conn, mc *muxConn, otp *precomp.ReceiverPool, sched *circuit.Schedule, weightBits []bool) *sessionMux {
	// Bound every frame a client sends outside the table stream before the
	// first arrives, so that a header announcing more is refused unread: an
	// input frame carries one step of every sample (a label per garbler
	// wire, a masked pair per evaluator wire), so the widest step at the
	// batch cap bounds it; each after the inference tag.
	const tag = binary.MaxVarintLen64
	labels := gc.LabelSize * srv.Engine.MaxBatchSize()
	_, widestG := inputWires(sched, circuit.Garbler)
	_, widestE := inputWires(sched, circuit.Evaluator)
	conn.SetLimit(transport.MsgInferBegin, tag+binary.MaxVarintLen64)
	conn.SetLimit(transport.MsgInferConst, tag+2*labels)
	conn.SetLimit(transport.MsgInferInputs, tag+widestG*labels)
	conn.SetLimit(transport.MsgInferMasked, tag+widestE*2*labels)
	conn.SetLimit(transport.MsgEndSession, 0)
	depth := srv.Engine.PipelineDepth()
	return &sessionMux{
		srv:        srv,
		conn:       conn,
		mc:         mc,
		otp:        otp,
		pool:       srv.Engine.newPool(),
		win:        transport.NewWindow(depth),
		sched:      sched,
		cfg:        srv.Engine,
		weightBits: weightBits,
		events:     make(chan muxEvent, 1),
		stop:       make(chan struct{}),
		ctxs:       make(map[uint64]*evalCtx, depth),
	}
}

// run serves the session until the client ends it, disconnects at an
// inference boundary, or an error tears it down. Error priority: a context's
// own protocol error (bad frame contents, failed evaluation) returns
// immediately; teardown-consequence errors (closed routing channels)
// only surface if no root cause — the reader's protocol error, or a
// boundary-clean disconnect — explains them.
func (m *sessionMux) run() error {
	go m.readLoop()
	defer m.otp.Abort()
	defer close(m.stop)
	defer func() {
		m.statMu.Lock()
		m.closeOverlap()
		m.statMu.Unlock()
	}()

	done := 0
	readerDone := false
	var readerErr error
	var tornErr error
	for {
		ev := <-m.events
		if ev.readerDone {
			readerDone = true
			readerErr = ev.err
		} else {
			done++
			switch {
			case ev.err == nil:
			case errors.Is(ev.err, errSessionTorn):
				if tornErr == nil {
					tornErr = ev.err
				}
			default:
				return ev.err
			}
		}
		if readerDone && done == m.spawned {
			break
		}
	}
	switch {
	case readerErr == nil:
		// Clean end marker; torn contexts can only mean the client ended
		// the session with inferences still open.
		return tornErr
	case errors.Is(readerErr, io.EOF) && tornErr == nil:
		// A disconnect with every inference settled is a valid way to
		// end a session.
		return nil
	default:
		return readerErr
	}
}

func (m *sessionMux) emit(ev muxEvent) {
	select {
	case m.events <- ev:
	case <-m.stop:
	}
}

// readLoop drains the connection, validating inference tags against the
// window and routing frames to their contexts (tagged per-inference
// frames) or to the session's OT pool (the untagged refill answers). It
// exits on end-of-session, disconnect, or a
// protocol violation, then closes every routing channel so blocked
// contexts fail fast instead of hanging.
func (m *sessionMux) readLoop() {
	var err error
	// Contain reader panics: the reader owns the routing channels, and an
	// escaped panic would kill the process before the deferred closes run,
	// wedging every context blocked on a routed receive.
	defer func() {
		if v := recover(); v != nil {
			if err == nil {
				err = obs.Panicked("core: session reader", v)
			}
		}
		// Unblock everything still waiting on routed frames. Only the
		// reader sends on these channels, so closing here is safe.
		for _, c := range m.ctxs {
			close(c.inbox)
		}
		m.emit(muxEvent{readerDone: true, err: err})
	}()
	end := false
	for !end && err == nil {
		var typ transport.MsgType
		var payload []byte
		typ, payload, err = m.conn.ReadFrame()
		if err != nil {
			break
		}
		switch typ {
		case transport.MsgEndSession:
			end = true
		case transport.MsgInferBegin:
			// Refused here, before anything is reserved: a malformed
			// payload, B < 1, B past the announced cap.
			id, rest, tagErr := transport.SplitTag(payload)
			bsz, n := binary.Uvarint(rest)
			if tagErr != nil || n <= 0 || n != len(rest) || bsz < 1 {
				err = fmt.Errorf("core: malformed infer-begin payload (%d bytes)", len(payload))
				break
			}
			if max := uint64(m.cfg.MaxBatchSize()); bsz > max {
				err = fmt.Errorf("core: batch of %d samples exceeds the announced maximum %d", bsz, max)
				break
			}
			err = m.beginCtx(id, int(bsz))
		case transport.MsgInferConst, transport.MsgInferInputs, transport.MsgInferMasked, transport.MsgInferTables:
			var id uint64
			var content []byte
			id, content, err = transport.SplitTag(payload)
			if err != nil {
				break
			}
			if err = m.win.Check(id); err != nil {
				break
			}
			c := m.ctxs[id]
			if c == nil {
				err = fmt.Errorf("core: no context for in-window inference %d", id)
				break
			}
			f := frame{logicalType(typ), content}
			select {
			case c.inbox <- f: // common case: room in the inbox, no timer
			default:
				// A full inbox is normal backpressure (the evaluator
				// paces the garbler, preserving bounded memory), so this
				// send blocks — but with a generous backstop: a context
				// that cannot consume for this long is wedged by a
				// protocol violation (e.g. a client flooding frames a
				// context cannot legally receive yet), and without the
				// backstop the reader would hang with no read pending
				// for the idle timeout to reap.
				stall := time.NewTimer(routeStallTimeout)
				select {
				case c.inbox <- f:
				case <-c.dead:
					// The context died; its error reaches the main loop.
					// Drop the frame and keep draining so the reader
					// never wedges behind a dead context's full inbox.
				case <-stall.C:
					err = fmt.Errorf("core: frame routing to inference %d stalled for %v", id, routeStallTimeout)
				case <-m.stop:
					stall.Stop()
					return
				}
				stall.Stop()
			}
		case transport.MsgOTExtY:
			// A refill answer. Banking it here, in wire order, is what lets
			// contexts use the new entries without waiting: the masked
			// frames that need them are behind it on the wire.
			err = m.otp.FinishRefill(payload)
		default:
			err = fmt.Errorf("core: unexpected %v frame on a session", typ)
		}
	}
}

// beginCtx admits a new inference sub-stream of batch samples and spawns
// its context.
func (m *sessionMux) beginCtx(id uint64, batch int) error {
	if err := m.win.Begin(id); err != nil {
		return err
	}
	m.beginInFlight()
	c := &evalCtx{id: id, batch: batch, start: time.Now(), inbox: make(chan frame, 4), dead: make(chan struct{})}
	// Ranges go out in begin order, which is the order the client
	// reserved them in.
	c.otr = m.otp.Reserve(batch)
	if d := m.cfg.Deadlines.Inference; d > 0 && m.wd != nil {
		c.deadline = m.wd.after("inference", d)
	}
	m.pruneCtxs()
	m.ctxs[id] = c
	m.spawned++
	go m.runCtx(c)
	return nil
}

// logicalType maps a tagged frame type to the logical protocol type the
// engines were written against (the inverse of garbleConn.Send).
func logicalType(t transport.MsgType) transport.MsgType {
	switch t {
	case transport.MsgInferConst:
		return transport.MsgConstLabels
	case transport.MsgInferInputs:
		return transport.MsgInputLabels
	case transport.MsgInferMasked:
		return transport.MsgOTMasked
	case transport.MsgInferTables:
		return transport.MsgTables
	default:
		return t
	}
}

// pruneCtxs drops routing entries for contexts that have exited; at most
// window-depth contexts are live, so the map stays bounded over a
// session of any length.
func (m *sessionMux) pruneCtxs() {
	for id, c := range m.ctxs {
		select {
		case <-c.dead:
			delete(m.ctxs, id)
		default:
		}
	}
}

func (m *sessionMux) beginInFlight() {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	m.inFlight++
	m.set.InFlightPeak.Raise(int64(m.inFlight))
	if m.inFlight == 2 {
		m.overlapSince = time.Now()
	}
}

func (m *sessionMux) endInFlight() {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	m.inFlight--
	if m.inFlight < 2 {
		m.closeOverlap()
	}
}

// closeOverlap books the open overlap interval, if there is one: when the
// session drops below two inferences in flight, and at teardown, whatever
// is still running. The caller holds statMu.
func (m *sessionMux) closeOverlap() {
	if !m.overlapSince.IsZero() {
		m.set.OverlapTime.Add(int64(time.Since(m.overlapSince)))
		m.overlapSince = time.Time{}
	}
}

// runCtx executes one inference's evaluation to completion and reports
// the outcome to the session's main loop.
func (m *sessionMux) runCtx(c *evalCtx) {
	err := func() (err error) {
		// Contain evaluation panics to this inference: the error tears
		// down this session through the normal event path while every
		// other session in the process keeps serving.
		defer func() {
			if v := recover(); v != nil {
				err = obs.Panicked(fmt.Sprintf("core: inference %d", c.id), v)
			}
		}()
		return m.serveInference(c)
	}()
	if c.deadline != nil {
		c.deadline.Stop()
	}
	m.endInFlight()
	if err == nil {
		m.set.InferenceSeconds.Observe(int64(time.Since(c.start)))
		m.set.Inferences.Add(int64(c.batch))
		if c.batch > 1 {
			m.set.Batches.Inc()
		}
	}
	close(c.dead)
	m.emit(muxEvent{err: err})
}

// evalPanicHook, when set by a test, runs at the top of every
// serveInference call — the seam the panic-containment pin uses to
// detonate inside one session's evaluation goroutine.
var evalPanicHook func(id uint64, batch int)

// serveInference is the per-context body: it runs the evaluation engine
// over the context's routed frames and answers with the output labels.
func (m *sessionMux) serveInference(c *evalCtx) error {
	if evalPanicHook != nil {
		evalPanicHook(c.id, c.batch)
	}
	view := &ctxConn{m: m, c: c}
	// Before the first receive: a client whose pool is short of this range
	// sends nothing more until the refills that cover it arrive.
	if err := m.otp.Cover(c.otr); err != nil {
		return err
	}
	// Const labels arrive wire-major like every frame: the B
	// false-labels, then the B true-labels.
	constLabels, err := view.Recv(transport.MsgConstLabels)
	if err != nil {
		return err
	}
	if len(constLabels) != 2*c.batch*gc.LabelSize {
		return fmt.Errorf("core: const-label frame has %d bytes, want %d", len(constLabels), 2*c.batch*gc.LabelSize)
	}
	e, err := gc.NewBatchEvaluator(c.batch)
	if err != nil {
		return err
	}
	for s := 0; s < c.batch; s++ {
		var lf, lt gc.Label
		copy(lf[:], constLabels[s*gc.LabelSize:])
		copy(lt[:], constLabels[(c.batch+s)*gc.LabelSize:])
		e.SetLabel(circuit.WFalse, s, lf)
		e.SetLabel(circuit.WTrue, s, lt)
	}
	en := &evalEngine{
		sched:     m.sched,
		e:         e,
		pool:      m.pool,
		conn:      view,
		ots:       m.otp,
		otr:       c.otr,
		inputBits: m.weightBits,
		progress:  &m.conn.Progress,
		recycle:   m.conn.Recycle,
	}
	if err := en.run(); err != nil {
		return err
	}
	// The crypto-core figures: gate-instance counts derive from the
	// schedule (every context walks it once per sample), kernel time from
	// the engine's measurement.
	m.set.GatesAnd.Add(m.sched.ANDs * int64(c.batch))
	m.set.GatesFree.Add((int64(len(m.sched.Gates)) - m.sched.ANDs) * int64(c.batch))
	m.set.GateTime.Add(int64(en.gateTime))
	m.set.Phase[obs.PhaseEval].Observe(int64(en.gateTime))
	m.set.Phase[obs.PhaseTableRead].Observe(int64(en.readTime))
	payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
	for _, l := range en.outLabels {
		payload = append(payload, l[:]...)
	}
	// Every frame of this inference is consumed, so writing cannot hold the
	// reader up: announce what the pool policy decided meanwhile. Ahead of
	// the outputs, so the client has answered by the time it sees them and
	// a session's transcript does not depend on scheduling.
	if err := m.otp.SendRefills(); err != nil {
		return err
	}
	// Retire the window slot BEFORE the output labels can reach the
	// client: its next begin may arrive the instant the flush lands (and
	// another context's send can flush our buffered outputs even
	// earlier), so closing after the send races the reader's
	// window-admission check and could reject a conforming client.
	// Closing first is safe — the client sends nothing further for this
	// inference, and a begin can only follow the outputs it hasn't
	// received yet.
	if err := m.win.Close(c.id); err != nil {
		return err
	}
	if err := view.Send(transport.MsgOutputLabels, payload); err != nil {
		return err
	}
	return view.Flush()
}

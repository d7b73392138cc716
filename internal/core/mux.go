package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// This file is the server side of a session, and a session is a FIFO: one
// reader goroutine drains the connection into one bounded channel, the
// goroutine that called ServeSession pops it, evaluating the session's
// inferences one after the other in the order their begin frames arrived,
// and one writer goroutine puts what they answer on the wire in that order —
// three goroutines, whatever the window.
//
//	reader ──▶ fifo (ringFrames) ──▶ session goroutine (evalEngine) ──▶ out ──▶ writer
//	       └─▶ OT pool (refill answers, banked in wire order)
//
// A client garbles an inference to completion and flushes before it begins
// the next, so frames of two inferences never interleave and frame order is
// all that ties a frame to its inference: the frames after a begin are that
// inference's, and a frame that arrives when no inference is open is a
// protocol error. What the in-flight window (EngineConfig.Pipeline) buys is
// the round trip and the evaluation tail — through the ring, inference k+1's
// burst arrives while k's last levels are evaluated and its outputs travel
// back. The window is one integer, the count of begun-but-unanswered
// inferences. More cores are reached inside an inference (level fan-out on
// internal/sched) and through more sessions, never by a second evaluator on
// this one. What the server writes is a function of what it read, up to
// which answer a decided refill rides ahead of (whether begin k+1 was read
// before answer k was written).
//
// An inference is one client→server burst answered by one output frame, and
// nothing here can turn that into a deadlock, however little the path holds:
//
//   - The reader never waits on a writer. It writes nothing and waits on
//     nothing but the ring. The session goroutine, the ring's one consumer,
//     waits on nothing but the ring either: what an inference wants written
//     — before its first receive the refills its pool range depends on
//     (precomp.ReceiverPool.Cover), after its last the refills decided
//     meanwhile and its outputs — it queues on out, which always has room
//     (see send), and a frame it cannot legally take ends the session the
//     moment it is popped. So a full ring always drains and the client's
//     burst always lands, while the writer (after set-up the connection's
//     only one: the pool's background helper prepares a refill, it never
//     sends one) may be parked in a 1 MiB refill U that the client reads
//     once its burst is out.
//   - The client never waits on a write the server is not reading: it
//     reads only between bursts, or for a refill its begin frame (flushed
//     by that read) made the reader decide.

// ringFrames is the FIFO's capacity: the one bounded ring of table frames
// an evaluator holds (§3.5). Four keeps the reader a frame or two ahead of
// the level kernel, which is all the overlap one evaluator can use; a slot
// is a frame of up to the table cap set in newSessionMux, so a deeper ring
// would only raise the session's memory bound (README, "Pipelined
// sessions").
const ringFrames = 4

// frame is one entry of the FIFO: an admitted begin, or one of the frames
// that follow it.
type frame struct {
	typ     transport.MsgType
	payload []byte
	begin   *inference // the admitted inference, on a MsgInferBegin entry
}

// inference is one begun inference of batch ≥ 1 samples: what the reader
// fixed when its begin frame arrived.
type inference struct {
	batch int
	otr   precomp.Range // its OT-pool entries
	start time.Time     // arrival of its begin frame: latency and deadline run from here
}

// answer is one entry of the writer's queue: what inference inf wants on the
// wire, in queue order. Before its first receive that is cover, the refills
// its pool range depends on; after its last, the refills decided meanwhile
// and then its output labels.
type answer struct {
	inf     *inference
	cover   bool
	outputs []byte
}

// errRingClosed is what a pop reports once the reader has ended; the
// reader's own error, when it has one, is the cause.
var errRingClosed = errors.New("core: session ended")

// ctxConn is the evaluation engine's view of the session connection while
// an inference is being evaluated: a receive pops the FIFO, and it sends
// nothing (what an inference writes goes through the writer's queue).
type ctxConn struct{ m *sessionMux }

func (v ctxConn) Send(t transport.MsgType, _ []byte) error {
	return fmt.Errorf("core: evaluator sent a %v frame mid-inference", t)
}

func (v ctxConn) Flush() error { return nil }

func (v ctxConn) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := v.RecvAny(want)
	return p, err
}

func (v ctxConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	f, err := v.m.pop()
	if err != nil {
		return 0, nil, fmt.Errorf("%w mid-inference", err)
	}
	for _, w := range want {
		if f.typ == w {
			return f.typ, f.payload, nil
		}
	}
	return 0, nil, fmt.Errorf("core: protocol desync mid-inference: got %v frame, want %v", f.typ, want)
}

// sessionMux runs one session on the server: the reader, the FIFO, the
// window, the writer, the OT pool and one worker pool (a view of the
// process-wide scheduler, on which an inference's levels fan out).
type sessionMux struct {
	conn  *transport.Conn
	otp   *precomp.ReceiverPool
	pool  *gc.Pool
	sched *circuit.Schedule
	cfg   EngineConfig

	weightBits []bool
	wd         *watchdog // the session's phase watchdog
	set        *obs.Set  // the session's ledger

	fifo chan frame
	stop chan struct{} // closed when run returns: a reader parked on a full ring leaves
	// readErr is why the reader ended (nil after end-session). The reader
	// writes it before it closes fifo, run reads it after.
	readErr error

	open atomic.Int32 // begun and not yet answered: what the window bounds

	out  chan answer // the writer's queue, two entries per window slot (see send)
	werr chan error  // the writer's verdict, sent once as it ends: early means it failed
}

func newSessionMux(srv *Server, conn *transport.Conn, otp *precomp.ReceiverPool, sched *circuit.Schedule, wd *watchdog, set *obs.Set) *sessionMux {
	// Bound every frame a client sends before the first arrives, so that a
	// header announcing more is refused unread: an input frame carries one
	// step of every sample (a label per garbler wire, a masked pair per
	// evaluator wire), so the widest step at the batch cap bounds it; a table
	// frame never spans two level runs (garbleEngine.doLevels sends at every
	// run's end, whatever its chunk size), so the largest run does.
	batch := srv.Engine.MaxBatchSize()
	labels := gc.LabelSize * batch
	_, widestG := inputWires(sched, circuit.Garbler)
	_, widestE := inputWires(sched, circuit.Evaluator)
	largestRun := 0
	for i := range sched.Steps {
		if st := &sched.Steps[i]; st.Kind == circuit.StepLevels {
			largestRun = max(largestRun, st.TableBytes)
		}
	}
	conn.SetLimit(transport.MsgInferBegin, binary.MaxVarintLen64)
	conn.SetLimit(transport.MsgConstLabels, 2*labels)
	conn.SetLimit(transport.MsgInputLabels, widestG*labels)
	conn.SetLimit(transport.MsgOTMasked, widestE*2*labels)
	conn.SetLimit(transport.MsgTables, min(transport.MaxFrame, largestRun*batch))
	conn.SetLimit(transport.MsgEndSession, 0)
	return &sessionMux{
		conn:       conn,
		otp:        otp,
		pool:       srv.Engine.newPool(),
		sched:      sched,
		cfg:        srv.Engine,
		weightBits: srv.weightBits,
		wd:         wd,
		set:        set,
		fifo:       make(chan frame, ringFrames),
		stop:       make(chan struct{}),
		out:        make(chan answer, 2*srv.Engine.PipelineDepth()),
		werr:       make(chan error, 1),
	}
}

// run serves the session until the client ends it, disconnects at an
// inference boundary, or an error tears it down. An inference's own error is
// the session's; one that only saw the ring close under it yields to the
// reader's, which is the cause. After an error the reader may be parked in a
// read and the writer in a write: both leave when the caller closes the
// connection.
func (m *sessionMux) run() (err error) {
	go m.readLoop()
	go m.writeLoop()
	defer m.otp.Abort()
	defer close(m.stop)
	defer func() {
		close(m.out)
		if err == nil { // a clean end: see the queued answers out
			err = <-m.werr
		}
	}()
	for {
		f, perr := m.pop()
		switch {
		case errors.Is(perr, errRingClosed) && errors.Is(m.readErr, io.EOF):
			return nil // a disconnect with nothing open is a valid end, like the end marker
		case errors.Is(perr, errRingClosed):
			return m.readErr
		case perr != nil:
			return perr
		case f.begin == nil:
			return fmt.Errorf("core: protocol desync: %v frame between inferences", f.typ)
		}
		if err := m.evaluate(f.begin); errors.Is(err, errRingClosed) && m.readErr != nil {
			return m.readErr
		} else if err != nil {
			return err
		}
	}
}

// pop takes the next frame off the ring. It is the one place the session
// goroutine waits, and a writer that failed ends the wait.
func (m *sessionMux) pop() (frame, error) {
	select {
	case f, ok := <-m.fifo:
		if !ok {
			return f, errRingClosed
		}
		return f, nil
	case err := <-m.werr:
		return frame{}, err
	}
}

// send queues a for the writer without waiting. An inference queues a cover
// and an answer, and its window slot is retired only when the writer has
// taken the answer, so behind the at most depth−1 inferences ahead of it
// the queue always has room for both.
func (m *sessionMux) send(a answer) error {
	select {
	case m.out <- a:
		return nil
	case err := <-m.werr:
		return err
	}
}

// writeLoop puts the queued answers on the wire, in order. It ends with the
// queue, or on the first error, which the session goroutine then finds at
// its next pop or send.
func (m *sessionMux) writeLoop() {
	var err error
	defer func() {
		if v := recover(); v != nil {
			err = obs.Panicked("core: session writer", v)
		}
		m.werr <- err
	}()
	for a := range m.out {
		if err = m.write(a); err != nil {
			return
		}
	}
}

// write is the writer's half of an inference, under the inference's
// deadline like the evaluation before it (the wait in between is behind an
// older inference's write, which that one's deadline bounds).
func (m *sessionMux) write(a answer) error {
	defer m.wd.after("inference", m.cfg.Deadlines.Inference, a.inf.start)()
	if a.cover {
		// A client whose pool is short of this range sends nothing more
		// until the refills that cover it arrive.
		return m.otp.Cover(a.inf.otr)
	}
	// What the pool policy decided meanwhile goes ahead of the outputs, so
	// the client has answered it by the time it sees them.
	if err := m.otp.SendRefills(); err != nil {
		return err
	}
	// Retire the window slot BEFORE the outputs can reach the client: its
	// next begin may arrive the instant the flush lands, and the reader's
	// admission check must not refuse it. The client sends nothing further
	// for this inference, so retiring first is safe.
	m.open.Add(-1)
	if err := m.conn.Send(transport.MsgOutputLabels, a.outputs); err != nil {
		return err
	}
	if err := m.conn.Flush(); err != nil {
		return err
	}
	m.set.InferenceSeconds.Observe(int64(time.Since(a.inf.start)))
	m.set.Inferences.Add(int64(a.inf.batch))
	if a.inf.batch > 1 {
		m.set.Batches.Inc()
	}
	return nil
}

// readLoop drains the connection into the FIFO: begins are admitted against
// the window and get their pool range here, in begin order; the frames of an
// inference's burst are queued behind its begin as they come; refill answers
// go to the OT pool. It exits on end-of-session, disconnect or a protocol
// violation and closes the FIFO, so a blocked evaluation fails fast instead
// of hanging (a reader panic included, which would otherwise take the
// process down).
func (m *sessionMux) readLoop() {
	defer func() {
		if v := recover(); v != nil {
			m.readErr = obs.Panicked("core: session reader", v)
		}
		close(m.fifo)
	}()
	for {
		typ, payload, err := m.conn.ReadFrame()
		if err != nil {
			m.readErr = err
			return
		}
		f := frame{typ: typ, payload: payload}
		switch typ {
		case transport.MsgEndSession:
			return
		case transport.MsgInferBegin:
			f.begin, err = m.admit(payload)
		case transport.MsgConstLabels, transport.MsgInputLabels, transport.MsgOTMasked, transport.MsgTables:
			// The open inference's, or a protocol error when run pops it
			// with none open.
		case transport.MsgOTExtY:
			// A refill answer, banked in wire order: the masked frames that
			// need the new entries are behind it on the wire.
			if err = m.otp.FinishRefill(payload); err == nil {
				continue
			}
		default:
			err = fmt.Errorf("core: unexpected %v frame on a session", typ)
		}
		if err != nil {
			m.readErr = err
			return
		}
		// A full ring is back-pressure: the evaluator paces the garbler, which
		// is what keeps the session's memory bounded.
		select {
		case m.fifo <- f:
		case <-m.stop:
			return
		}
	}
}

// admit checks a begin frame — a well-formed B within the announced cap,
// room in the window — and reserves the inference's pool range: ranges go
// out in begin order, which is the order the client reserved them in.
func (m *sessionMux) admit(payload []byte) (*inference, error) {
	bsz, n := binary.Uvarint(payload)
	depth := m.cfg.PipelineDepth()
	switch limit := uint64(m.cfg.MaxBatchSize()); {
	case n <= 0 || n != len(payload) || bsz < 1:
		return nil, fmt.Errorf("core: malformed infer-begin payload (%d bytes)", len(payload))
	case bsz > limit:
		return nil, fmt.Errorf("core: batch of %d samples exceeds the announced maximum %d", bsz, limit)
	case int(m.open.Load()) >= depth:
		return nil, fmt.Errorf("core: infer-begin exceeds the in-flight window (depth %d)", depth)
	}
	m.open.Add(1)
	return &inference{batch: int(bsz), otr: m.otp.Reserve(int(bsz)), start: time.Now()}, nil
}

// evalPanicHook, when set by a test, runs at the top of every evaluate
// call — the seam the panic-containment pin uses to detonate inside one
// session's evaluation.
var evalPanicHook func(batch int)

// evaluate runs the evaluation engine over one inference's frames and
// queues the output labels, under the inference's deadline.
func (m *sessionMux) evaluate(inf *inference) (err error) {
	defer m.wd.after("inference", m.cfg.Deadlines.Inference, inf.start)()
	// Contain evaluation panics to this session: the error tears it down
	// through the normal path while every other session keeps serving.
	defer func() {
		if v := recover(); v != nil {
			err = obs.Panicked("core: inference", v)
		}
	}()
	if evalPanicHook != nil {
		evalPanicHook(inf.batch)
	}
	view := ctxConn{m}
	// Before the first receive: the refills this range depends on.
	if err := m.send(answer{inf: inf, cover: true}); err != nil {
		return err
	}
	// Const labels arrive wire-major: B false-labels, then B true-labels.
	constLabels, err := view.Recv(transport.MsgConstLabels)
	if err != nil {
		return err
	}
	if len(constLabels) != 2*inf.batch*gc.LabelSize {
		return fmt.Errorf("core: const-label frame has %d bytes, want %d", len(constLabels), 2*inf.batch*gc.LabelSize)
	}
	e, err := gc.NewBatchEvaluator(inf.batch)
	if err != nil {
		return err
	}
	for s := 0; s < inf.batch; s++ {
		var lf, lt gc.Label
		copy(lf[:], constLabels[s*gc.LabelSize:])
		copy(lt[:], constLabels[(inf.batch+s)*gc.LabelSize:])
		e.SetLabel(circuit.WFalse, s, lf)
		e.SetLabel(circuit.WTrue, s, lt)
	}
	en := &evalEngine{
		sched:     m.sched,
		e:         e,
		pool:      m.pool,
		conn:      view,
		ots:       m.otp,
		otr:       inf.otr,
		inputBits: m.weightBits,
		progress:  &m.conn.Progress,
		recycle:   m.conn.Recycle,
	}
	if err := en.run(); err != nil {
		return err
	}
	// The crypto-core figures: gate counts from the schedule (walked once
	// per sample), kernel time from the engine's measurement.
	m.set.GatesAnd.Add(m.sched.ANDs * int64(inf.batch))
	m.set.GatesFree.Add((int64(len(m.sched.Gates)) - m.sched.ANDs) * int64(inf.batch))
	m.set.GateTime.Add(int64(en.gateTime))
	m.set.Phase[obs.PhaseEval].Observe(int64(en.gateTime))
	m.set.Phase[obs.PhaseTableRead].Observe(int64(en.readTime))
	payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
	for _, l := range en.outLabels {
		payload = append(payload, l[:]...)
	}
	return m.send(answer{inf: inf, outputs: payload})
}

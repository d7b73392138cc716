package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/sched"
	"deepsecure/internal/transport"
)

// This file is the level-scheduled execution engine every session
// inference runs on. Where the sinks in sinks.go drive the GC core one
// gate at a time on the transport goroutine (the §3.3 outsourced path,
// which never materialises its netlist), the engine executes the compiled
// circuit.Schedule as a staged pipeline:
//
//	garbler:   [garble workers] → chunk buffer → conn
//	evaluator: conn → table cursor → [eval workers]
//
// There is one garble-side walk and one eval-side walk, both over a batch
// of B ≥ 1 independent samples (a lone inference is B=1): the schedule is
// walked ONCE for the whole batch, samples iterate innermost inside every
// gate (gc.BatchGarbler/BatchEvaluator), all B samples of an input step
// share one OT transfer, and a level's tables interleave gate-major with
// samples innermost, the full ANDs' region before the half ANDs' (rank i,
// sample s at i*B+s tables into its region; gc/vec.go). Each
// sample keeps its own delta and fresh labels, so the security argument
// is that of B separate inferences — only the schedule walk, the framing
// and the OT round-trips amortize. DeepSecure garbles every inference
// online: the garbling engine holds a fresh gc.BatchGarbler and garbles
// each level on a gc.Pool, as the evaluating engine holds a
// gc.BatchEvaluator; the only offline work is the OT pool.
//
// The garbling goroutine sends each completed table chunk itself and
// garbles the next level into the same buffer once the transport has taken
// it, so a garbling session keeps one chunk resident; on the evaluator
// the session's reader keeps the session's FIFO — one bounded ring of table
// frames — ahead of the worker pool, so transport latency does not idle the
// level kernel. Input, OT, and output steps are barriers executed on the
// engine's goroutine, exactly where the tape recorded them.
//
// Determinism: hash tweaks and table offsets come from the schedule
// (GIDBase + in-level rank), and chunk flushing depends only on the
// schedule, B and the chunk size — so the byte stream is identical for any
// worker count, which is what the conformance tests pin.

// EngineConfig tunes the level-scheduled execution engine.
type EngineConfig struct {
	// Workers is the garble/evaluate worker-pool size. 0 (the default)
	// derives it from runtime.GOMAXPROCS; 1 selects the fully sequential
	// in-line mode.
	Workers int
	// Pipeline bounds how many inferences may be in flight — begun and
	// not yet answered — on one session at once (cross-inference
	// pipelining): with depth d > 1 the client garbles inference k+1
	// while inference k's output round-trip and evaluation tail are still
	// pending. The server evaluates them one at a time, in begin order;
	// what overlaps an evaluation is the next burst's arrival. 0 defaults
	// to DefaultPipelineDepth; 1 disables overlap (inferences run
	// serially). On a server this is also the announced window clients are
	// validated against; a client's effective window is min(its own
	// depth, the server's announcement).
	Pipeline int
	// MaxBatch bounds how many samples one inference (InferBatch) may
	// fuse into a single schedule walk. A batch occupies one
	// pipeline-window slot but needs B× the label and table memory of a
	// one-sample inference, so the server owns a policy cap announced
	// alongside the window; a client's effective maximum is min(its own
	// MaxBatch, the announcement). 0 defaults to DefaultMaxBatch; values
	// clamp to [1, 256].
	MaxBatch int
	// Deadlines bounds the protocol's phases (handshake, OT setup,
	// per-inference) by wall time, complementing the transport-level
	// idle timeout: the idle timeout catches peers that stop moving
	// bytes, the phase deadlines catch peers that keep trickling them.
	// Zero fields disable that phase's deadline. Enforcement needs a
	// breaker on the session's transport.Conn — the server installs one
	// per accepted connection; see DeadlineConfig.
	Deadlines DeadlineConfig

	// chunkBytes is the garbled-table streaming chunk size: the garbler
	// sends its table buffer as one frame whenever it grows past this
	// threshold, at a level boundary, so every frame carries whole levels
	// and the evaluator refuses one that does not. 0 means tableChunk
	// (1 MiB), which is all production runs; this package's tests set it to
	// force chunk boundaries.
	chunkBytes int
}

// DefaultPipelineDepth is the in-flight window applied when
// EngineConfig.Pipeline is zero: one inference garbling ahead of the one
// in its output round-trip.
const DefaultPipelineDepth = 2

// maxPipelineDepth caps the window a server announces: an OT pool sized
// from the model grows with it.
const maxPipelineDepth = 32

func (c EngineConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// newPool builds this configuration's gc.Pool: a view of the
// process-wide shared scheduler (internal/sched) fanning out at most
// workers() ways, so S concurrent sessions share GOMAXPROCS workers
// instead of spawning S×Workers goroutines. Such a pool keeps no per-call
// state, so one instance serves concurrent level runs.
func (c EngineConfig) newPool() *gc.Pool {
	return gc.NewSharedPool(sched.Default(), c.workers())
}

// PipelineDepth returns the effective in-flight window this
// configuration resolves to (defaults applied, clamped to [1, 32]) —
// what a server announces and enforces.
func (c EngineConfig) PipelineDepth() int {
	d := c.Pipeline
	if d == 0 {
		d = DefaultPipelineDepth
	}
	return min(max(d, 1), maxPipelineDepth)
}

// DefaultMaxBatch is the batched-inference sample cap applied when
// EngineConfig.MaxBatch is zero.
const DefaultMaxBatch = 32

// maxBatchCap bounds the negotiable batch size so a misconfigured or
// hostile peer cannot demand unbounded per-batch server state (labels
// and tables scale linearly with B).
const maxBatchCap = 256

// MaxBatchSize returns the effective batched-inference sample cap this
// configuration resolves to (defaults applied, clamped to [1, 256]) —
// what a server announces and enforces.
func (c EngineConfig) MaxBatchSize() int {
	b := c.MaxBatch
	if b == 0 {
		b = DefaultMaxBatch
	}
	return min(max(b, 1), maxBatchCap)
}

// garbleEngine runs the garbler's side of one inference of b = g.B()
// samples over a compiled schedule; the session reuses its buffers across
// inferences.
type garbleEngine struct {
	sched *circuit.Schedule
	g     *gc.BatchGarbler
	pool  *gc.Pool
	conn  transport.FrameConn
	ots   *precomp.SenderPool
	otr   precomp.Range // the inference's OT-pool entries, b samples wide
	cfg   EngineConfig

	// inputBits holds each of the b samples' input bit stream; all samples
	// share the schedule's cursor (they walk the same wire sequence).
	inputBits [][]bool
	cursor    int
	evalBit   int // evaluator-input bits transferred so far

	labelBuf []byte
	outZero  []gc.Label // wire-major, samples innermost
	cur      []byte     // the table chunk being filled

	// gateTime accumulates the wall time of the per-level GarbleLevel
	// calls — the hash-core cost this inference paid, transport excluded.
	gateTime time.Duration
	// writeTime accumulates wall time pushing table chunks into the
	// transport (the table_write phase).
	writeTime time.Duration
}

func (en *garbleEngine) run() error {
	en.g.Grow(en.sched.NumWires)
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepOutputs:
			err = en.doOutputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// doInputs draws the step's zero-labels — an evaluator step's with permute
// bit 0, the colour = value convention half ANDs rest on — and sends the
// client's active labels, or the evaluator's label pairs through the pool.
func (en *garbleEngine) doInputs(st *circuit.Step) error {
	if err := en.g.AssignInputs(st.Wires, st.Party == circuit.Evaluator); err != nil {
		return err
	}
	if st.Party == circuit.Garbler {
		payload := en.labelBuf[:0]
		for _, w := range st.Wires {
			if en.cursor >= len(en.inputBits[0]) {
				return fmt.Errorf("core: garbler input underrun at wire %d", w)
			}
			for s, bits := range en.inputBits {
				l, err := en.g.ActiveLabel(w, s, bits[en.cursor])
				if err != nil {
					return err
				}
				payload = append(payload, l[:]...)
			}
			en.cursor++
		}
		en.labelBuf = payload[:0] // keep the (possibly grown) buffer
		return en.conn.Send(transport.MsgInputLabels, payload)
	}
	// Evaluator inputs travel by OT — ONE transfer for all b samples of
	// the step (wire-major, samples innermost), masked with the
	// inference's pool entries.
	var err error
	en.labelBuf, err = en.ots.SendStep(en.conn, en.otr, en.evalBit, len(st.Wires), en.labelBuf,
		func(i, s int) (ot.Msg, ot.Msg, error) {
			l0, err := en.g.ZeroLabel(st.Wires[i], s)
			return ot.Msg(l0), ot.Msg(en.g.R[s]), err
		})
	en.evalBit += len(st.Wires)
	return err
}

func (en *garbleEngine) doOutputs(st *circuit.Step) error {
	for _, w := range st.Wires {
		for s := 0; s < en.g.B(); s++ {
			z, err := en.g.ZeroLabel(w, s)
			if err != nil {
				return err
			}
			en.outZero = append(en.outZero, z)
		}
	}
	return nil
}

// doLevels garbles one run of gate levels for the whole batch, sending a
// table chunk whenever the buffer grows past the chunk size and at the run's
// end; each level contributes b times its TableBytes. One buffer serves every
// chunk: transport.Conn has written or copied a payload by the time Send
// returns.
func (en *garbleEngine) doLevels(st *circuit.Step) error {
	for _, w := range st.PreDrops {
		en.g.Drop(w)
	}
	b := en.g.B()
	chunk := en.cfg.chunkBytes
	if chunk <= 0 {
		chunk = tableChunk
	}
	cur := en.cur[:0]
	if cur == nil {
		// A session's first run: one buffer of the run's size (a chunk's at
		// most) instead of a doubling ladder up to it, which a session of
		// one inference would climb and throw away every time.
		cur = make([]byte, 0, min(st.TableBytes*b, chunk+chunk/4))
	}
	end := st.First + st.N
	for li := st.First; li < end; li++ {
		lv := &en.sched.Levels[li]
		ands, frees := en.sched.LevelGates(lv)
		need := lv.TableBytes() * b
		off := len(cur)
		for cap(cur) < off+need {
			cur = append(cur[:cap(cur)], 0)
		}
		cur = cur[:off+need]
		t0 := time.Now()
		err := en.g.GarbleLevel(ands, frees, lv.GIDBase, cur[off:], en.pool)
		en.gateTime += time.Since(t0)
		if err != nil {
			return err
		}
		for _, w := range lv.Drops {
			en.g.Drop(w)
		}
		if len(cur) >= chunk || li == end-1 && len(cur) > 0 {
			t0 := time.Now()
			err := en.conn.Send(transport.MsgTables, cur)
			en.writeTime += time.Since(t0)
			if err != nil {
				return err
			}
			cur = cur[:0]
		}
	}
	en.cur = cur
	return nil
}

// evalEngine runs the evaluator's side of one inference of b = e.B()
// samples over a compiled schedule.
type evalEngine struct {
	sched *circuit.Schedule
	e     *gc.BatchEvaluator
	pool  *gc.Pool
	conn  transport.FrameConn
	ots   *precomp.ReceiverPool
	otr   precomp.Range // the inference's OT-pool entries, b samples wide

	// inputBits is the evaluator's bit stream (the model's weight bits)
	// — identical for every sample; only the labels differ per sample.
	inputBits []bool
	cursor    int

	// progress, when set, is bumped once per evaluated level so
	// idle-timeout transport wrappers can tell "quiet because the
	// evaluation tail is still computing" from a stalled peer.
	progress *atomic.Int64

	recycle   func([]byte) // takes spent table frames back, may be nil
	outLabels []gc.Label   // wire-major, samples innermost

	// gateTime accumulates the wall time of the per-level EvaluateLevel
	// calls (table waits excluded — tr.level blocks outside the window).
	gateTime time.Duration
	// readTime accumulates wall time blocked on table frames from the
	// wire (the table_read phase).
	readTime time.Duration
}

func (en *evalEngine) run() error {
	en.e.Grow(en.sched.NumWires)
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepOutputs:
			err = en.doOutputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (en *evalEngine) doInputs(st *circuit.Step) error {
	if st.Party == circuit.Garbler {
		payload, err := en.conn.Recv(transport.MsgInputLabels)
		if err != nil {
			return err
		}
		b := en.e.B()
		if len(payload) != len(st.Wires)*b*gc.LabelSize {
			return fmt.Errorf("core: input-label frame has %d bytes, want %d",
				len(payload), len(st.Wires)*b*gc.LabelSize)
		}
		for i, w := range st.Wires {
			for s := 0; s < b; s++ {
				var l gc.Label
				copy(l[:], payload[(i*b+s)*gc.LabelSize:])
				en.e.SetLabel(w, s, l)
			}
		}
		return nil
	}
	// One OT transfer covers all b samples of the step: every sample
	// selects with the same weight bit, each receiving its own label.
	bits, err := evalStepBits(en.inputBits, en.cursor, st)
	if err != nil {
		return err
	}
	err = en.ots.RecvStep(en.conn, en.otr, en.cursor, bits, func(i, s int, m ot.Msg) {
		en.e.SetLabel(st.Wires[i], s, gc.Label(m))
	})
	en.cursor += len(bits)
	return err
}

// inputWires counts one party's input wires in a schedule — for the
// evaluator W, the weight bits one sample transfers by OT — and the widest
// single step.
func inputWires(sched *circuit.Schedule, party circuit.Party) (total, widest int) {
	for i := range sched.Steps {
		if st := &sched.Steps[i]; st.Kind == circuit.StepInputs && st.Party == party {
			total += len(st.Wires)
			widest = max(widest, len(st.Wires))
		}
	}
	return total, widest
}

// evalStepBits returns the evaluator's input bits for one of its input
// steps: the next len(st.Wires) bits of its stream.
func evalStepBits(inputBits []bool, cursor int, st *circuit.Step) ([]bool, error) {
	end := cursor + len(st.Wires)
	if end > len(inputBits) {
		return nil, fmt.Errorf("core: evaluator input underrun at wire %d", st.Wires[len(inputBits)-cursor])
	}
	return inputBits[cursor:end], nil
}

func (en *evalEngine) doOutputs(st *circuit.Step) error {
	for _, w := range st.Wires {
		for s := 0; s < en.e.B(); s++ {
			l, err := en.e.Label(w, s)
			if err != nil {
				return err
			}
			en.outLabels = append(en.outLabels, l)
		}
	}
	return nil
}

// doLevels evaluates one run of gate levels for the whole batch, drawing
// each level's table block from a tableRun; the run's table budget is the
// schedule's, scaled by b.
func (en *evalEngine) doLevels(st *circuit.Step) error {
	for _, w := range st.PreDrops {
		en.e.Drop(w)
	}
	b := en.e.B()
	tr := startTableRun(en.conn, st.TableBytes*b, en.recycle)
	var err error
	for li := st.First; li < st.First+st.N && err == nil; li++ {
		lv := &en.sched.Levels[li]
		ands, frees := en.sched.LevelGates(lv)
		var block []byte
		if block, err = tr.level(lv.TableBytes() * b); err != nil {
			break
		}
		t0 := time.Now()
		err = en.e.EvaluateLevel(ands, frees, lv.GIDBase, block, en.pool)
		en.gateTime += time.Since(t0)
		if err != nil {
			break
		}
		if en.progress != nil {
			en.progress.Add(1)
		}
		for _, w := range lv.Drops {
			en.e.Drop(w)
		}
	}
	err = tr.finish(err)
	en.readTime += tr.readTime
	return err
}

// tableRun streams one level run's garbled tables to an evaluation
// engine: constructed per StepLevels step with the run's total byte
// budget (the schedule's TableBytes, scaled by the batch size), it hands
// back exactly the requested bytes per level. It is a cursor over the
// frames its connection hands it and starts no goroutine: on a session the
// connection is the session's FIFO, which the reader fills ahead of
// the evaluate pool — the one bounded ring of table frames a session
// holds (§3.5) — and anywhere else a blocking Recv is all a
// cursor needs. A level is evaluated where its frame lies: the garbler cuts
// frames at level boundaries, so a level that spans two frames is refused,
// and no frame is ever copied. Each frame goes back to the connection's free
// list once drawn dry.
type tableRun struct {
	conn    transport.FrameConn
	total   int
	whole   []byte       // the frame being drawn from, as received
	rest    []byte       // its bytes not handed out yet
	recycle func([]byte) // takes spent frames back, may be nil
	got     int

	// readTime accumulates wall time blocked in fetch waiting for frames —
	// what the evaluator actually spent on the table stream (a frame
	// already in the ring costs ~nothing; a dry one charges the wire wait
	// here).
	readTime time.Duration
}

func startTableRun(conn transport.FrameConn, total int, recycle func([]byte)) *tableRun {
	return &tableRun{conn: conn, total: total, recycle: recycle}
}

// fetch makes the following frame the one being drawn from; the previous
// one is spent.
func (tr *tableRun) fetch() error {
	if tr.recycle != nil && tr.whole != nil {
		tr.recycle(tr.whole)
	}
	tr.whole, tr.rest = nil, nil
	t0 := time.Now()
	p, err := tr.conn.Recv(transport.MsgTables)
	tr.readTime += time.Since(t0)
	if err != nil {
		return err
	}
	if tr.got += len(p); tr.got > tr.total {
		return fmt.Errorf("core: garbled-table overrun (%d surplus bytes in run)", tr.got-tr.total)
	}
	tr.whole, tr.rest = p, p
	return nil
}

// level returns the next need bytes of the run's table stream, valid until
// the next call: the rest of the current frame's, or the next frame's once
// the current one is drawn dry.
func (tr *tableRun) level(need int) ([]byte, error) {
	if len(tr.rest) == 0 && need > 0 {
		if err := tr.fetch(); err != nil {
			return nil, err
		}
	}
	if len(tr.rest) < need {
		return nil, fmt.Errorf("core: level of %d table bytes spans a frame boundary", need)
	}
	block := tr.rest[:need]
	tr.rest = tr.rest[need:]
	return block, nil
}

// finish validates the run's stream accounting and hands the last frame
// back; err is the level loop's verdict. It returns the run's final error.
func (tr *tableRun) finish(err error) error {
	if err == nil && len(tr.rest) != 0 {
		err = fmt.Errorf("core: %d unconsumed garbled-table bytes at run boundary", len(tr.rest))
	}
	if tr.recycle != nil && tr.whole != nil {
		tr.recycle(tr.whole)
	}
	return err
}

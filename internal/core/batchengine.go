package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// This file is the batched (protocol v5) execution path: one fused pass
// garbles or evaluates B independent sample instances of the compiled
// schedule. The engines mirror garbleEngine/evalEngine step for step —
// same barriers, same chunk streaming, same prefetch ring — but walk the
// schedule ONCE for the whole batch, iterate samples innermost inside
// every gate (gc.BatchGarbler/BatchEvaluator), batch all B samples of an
// input step into a single OT transfer, and interleave
// all B samples of a level's tables into one chunk stream (gate rank i,
// sample s at (i*B+s)*TableSize). Per-sample labels stay independent and
// fresh, so the security argument is unchanged — only the schedule walk,
// the framing, and the OT round-trips amortize. At B=1 the frame
// contents are byte-identical to the single-inference sub-stream (pinned
// by TestBatchSize1Conformance).

// batchGarbleEngine runs the garbler's side of one batched inference
// over a compiled schedule; the session reuses its buffers across
// inferences, batched or not.
type batchGarbleEngine struct {
	sched *circuit.Schedule
	g     *gc.BatchGarbler
	pool  *gc.Pool
	conn  transport.FrameConn
	ots   *precomp.SenderPool
	otr   precomp.Range // the batch's OT-pool entries, b samples wide
	cfg   EngineConfig
	b     int

	// inputBits holds each sample's input bit stream; all samples share
	// the schedule's cursor (they walk the same wire sequence).
	inputBits [][]bool
	cursor    int
	evalBit   int // evaluator-input bits transferred so far

	labelBuf []byte
	outZero  []gc.Label // wire-major, samples innermost

	cur  []byte      // table chunk being filled
	free chan []byte // recycled chunk buffers

	// gateTime accumulates the wall time of the per-level GarbleLevel
	// calls — the hash-core cost of the whole fused batch.
	gateTime time.Duration
	// writeTime accumulates wall time pushing table chunks into the
	// transport (the table_write phase).
	writeTime time.Duration
}

func (en *batchGarbleEngine) run() error {
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

func (en *batchGarbleEngine) doInputs(st *circuit.Step) error {
	if st.Party == circuit.Garbler {
		payload := en.labelBuf[:0]
		for _, w := range st.Wires {
			if err := en.g.AssignInput(w); err != nil {
				return err
			}
			if en.cursor >= len(en.inputBits[0]) {
				return fmt.Errorf("core: garbler input underrun at wire %d", w)
			}
			for s := 0; s < en.b; s++ {
				l, err := en.g.ActiveLabel(w, s, en.inputBits[s][en.cursor])
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
	// Evaluator inputs travel by OT — ONE transfer for all B samples of
	// the step (wire-major, samples innermost).
	var err error
	en.labelBuf, err = en.ots.SendStep(en.conn, en.otr, en.evalBit, len(st.Wires), en.labelBuf,
		func(i, s int) (ot.Msg, ot.Msg, error) {
			if s == 0 {
				if err := en.g.AssignInput(st.Wires[i]); err != nil {
					return ot.Msg{}, ot.Msg{}, err
				}
			}
			l0, err := en.g.ZeroLabel(st.Wires[i], s)
			return ot.Msg(l0), ot.Msg(en.g.R[s]), err
		})
	en.evalBit += len(st.Wires)
	return err
}

func (en *batchGarbleEngine) doOutputs(st *circuit.Step) error {
	for _, w := range st.Wires {
		for s := 0; s < en.b; s++ {
			l, err := en.g.ZeroLabel(w, s)
			if err != nil {
				return err
			}
			en.outZero = append(en.outZero, l)
		}
	}
	return nil
}

// doLevels executes one run of gate levels for the whole batch,
// streaming table chunks through the writer goroutine while subsequent
// levels garble — the same chunking policy as the single engine, with
// each level contributing ANDs×B tables.
func (en *batchGarbleEngine) doLevels(st *circuit.Step) (err error) {
	for _, w := range st.PreDrops {
		en.g.Drop(w)
	}
	chunk := en.cfg.chunkBytes()
	async := en.pool.Workers() > 1
	var wr *tableWriter
	if async {
		wr = startTableWriter(en.conn, en.free)
	}
	emit := func(buf []byte) error {
		if async {
			wr.ch <- buf
			return nil
		}
		t0 := time.Now()
		err := en.conn.Send(transport.MsgTables, buf)
		en.writeTime += time.Since(t0)
		select {
		case en.free <- buf[:0]:
		default:
		}
		return err
	}
	cur := en.cur[:0]
	for li := st.First; li < st.First+st.N && err == nil; li++ {
		lv := &en.sched.Levels[li]
		ands, frees := en.sched.LevelGates(lv)
		need := lv.ANDs * en.b * gc.TableSize
		off := len(cur)
		for cap(cur) < off+need {
			cur = append(cur[:cap(cur)], 0)
		}
		cur = cur[:off+need]
		t0 := time.Now()
		err = en.g.GarbleLevel(ands, frees, lv.GIDBase, cur[off:off+need], en.pool)
		en.gateTime += time.Since(t0)
		if err != nil {
			break
		}
		for _, w := range lv.Drops {
			en.g.Drop(w)
		}
		if len(cur) >= chunk {
			if err = emit(cur); err != nil {
				break
			}
			cur = grabChunk(en.free, chunk)
		}
	}
	if err == nil && len(cur) > 0 {
		err = emit(cur)
		cur = nil
	}
	if async {
		// Always drain the writer, even on error, so it never outlives
		// the inference or races the main goroutine for the connection.
		werr := wr.finish()
		en.writeTime += wr.elapsed
		if err == nil {
			err = werr
		}
	}
	en.cur = grabChunk(en.free, chunk)
	return err
}

// batchEvalEngine runs the evaluator's side of one batched inference
// over a compiled schedule: the fused-batch counterpart of evalEngine.
type batchEvalEngine struct {
	sched *circuit.Schedule
	e     *gc.BatchEvaluator
	pool  *gc.Pool
	conn  transport.FrameConn
	ots   *precomp.ReceiverPool
	otr   precomp.Range // the batch's OT-pool entries, b samples wide
	cfg   EngineConfig
	b     int

	// inputBits is the evaluator's bit stream (the model's weight bits)
	// — identical for every sample; only the labels differ per sample.
	inputBits []bool
	cursor    int

	progress *atomic.Int64

	recycle   func([]byte) // takes spent table frames back, may be nil
	outLabels []gc.Label   // wire-major, samples innermost

	// gateTime accumulates the wall time of the per-level EvaluateLevel
	// calls (table waits excluded).
	gateTime time.Duration
	// readTime accumulates wall time blocked on table frames from the
	// wire (the table_read phase).
	readTime time.Duration
}

func (en *batchEvalEngine) run() error {
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

func (en *batchEvalEngine) doInputs(st *circuit.Step) error {
	if st.Party == circuit.Garbler {
		payload, err := en.conn.Recv(transport.MsgInputLabels)
		if err != nil {
			return err
		}
		if len(payload) != len(st.Wires)*en.b*gc.LabelSize {
			return fmt.Errorf("core: batch input-label frame has %d bytes, want %d",
				len(payload), len(st.Wires)*en.b*gc.LabelSize)
		}
		for i, w := range st.Wires {
			for s := 0; s < en.b; s++ {
				var l gc.Label
				copy(l[:], payload[(i*en.b+s)*gc.LabelSize:])
				en.e.SetLabel(w, s, l)
			}
		}
		return nil
	}
	// One OT transfer covers all B samples of the step: every sample
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

func (en *batchEvalEngine) doOutputs(st *circuit.Step) error {
	for _, w := range st.Wires {
		for s := 0; s < en.b; s++ {
			l, err := en.e.Label(w, s)
			if err != nil {
				return err
			}
			en.outLabels = append(en.outLabels, l)
		}
	}
	return nil
}

// doLevels evaluates one run of gate levels for the whole batch; the
// run's table budget is the schedule's, scaled by B.
func (en *batchEvalEngine) doLevels(st *circuit.Step) error {
	for _, w := range st.PreDrops {
		en.e.Drop(w)
	}
	tr := startTableRun(en.conn, en.pool.Workers() > 1, st.TableBytes*en.b, en.recycle)
	var err error
	for li := st.First; li < st.First+st.N && err == nil; li++ {
		lv := &en.sched.Levels[li]
		ands, frees := en.sched.LevelGates(lv)
		var block []byte
		if block, err = tr.level(lv.ANDs * en.b * gc.TableSize); err != nil {
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

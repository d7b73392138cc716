package core

import (
	"fmt"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// This file is the banked (garble-ahead) client execution path: when the
// session's bank holds a pre-garbled execution, the online walk does no
// garbling at all — input steps select labels by XOR from the banked
// zero-labels, and table steps stream the banked bytes zero-copy with
// the exact chunking policy of the live engine. The evaluator cannot
// tell the difference: for the same rng state a banked sub-stream is
// byte- and frame-identical to live garbling (the bank's fill walk
// draws randomness in the live engine's order; pinned by
// TestBankStreamConformance). Batched inferences assemble their fused
// wire format from B single banked executions — each sample keeps its
// own delta and labels, exactly as gc.BatchGarbler would have drawn
// them, only the draw order differs from the live batch path (so the
// batch conformance is at label level, not transcript level).

// bankStreamEngine streams one banked execution as a single-inference
// sub-stream: garbleEngine's walk with every garbling call replaced by
// a lookup.
type bankStreamEngine struct {
	sched *circuit.Schedule
	ex    *bank.Execution
	conn  transport.FrameConn
	ots   *precomp.SenderPool
	otr   precomp.Range // the inference's OT-pool entries
	cfg   EngineConfig

	inputBits []bool
	cursor    int
	evalBit   int // evaluator-input bits transferred so far

	labelBuf []byte
	inOrd    int
	tabOrd   int
}

func (en *bankStreamEngine) run() error {
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		// StepOutputs draws nothing online: the banked OutZero already
		// holds what output authentication needs.
		if err != nil {
			return err
		}
	}
	return nil
}

func (en *bankStreamEngine) doInputs(st *circuit.Step) error {
	zs := en.ex.InputZero[en.inOrd]
	en.inOrd++
	if st.Party == circuit.Garbler {
		payload := en.labelBuf[:0]
		for i := range st.Wires {
			if en.cursor >= len(en.inputBits) {
				return fmt.Errorf("core: garbler input underrun at wire %d", st.Wires[i])
			}
			l := zs[i]
			if en.inputBits[en.cursor] {
				l = l.XOR(en.ex.R)
			}
			en.cursor++
			payload = append(payload, l[:]...)
		}
		en.labelBuf = payload[:0] // keep the (possibly grown) buffer
		return en.conn.Send(transport.MsgInputLabels, payload)
	}
	var err error
	en.labelBuf, err = en.ots.SendStep(en.conn, en.otr, en.evalBit, len(st.Wires), en.labelBuf,
		func(i, _ int) (ot.Msg, ot.Msg, error) { return ot.Msg(zs[i]), ot.Msg(en.ex.R), nil })
	en.evalBit += len(st.Wires)
	return err
}

// doLevels streams the banked run zero-copy, cutting frames exactly
// where the live engine's chunk policy would: accumulate whole levels,
// emit once the accumulated tail passes ChunkBytes, flush the remainder
// at the run boundary.
func (en *bankStreamEngine) doLevels(st *circuit.Step) error {
	tb := en.ex.Tables[en.tabOrd]
	en.tabOrd++
	chunk := en.cfg.chunkBytes()
	start, off := 0, 0
	for li := st.First; li < st.First+st.N; li++ {
		off += en.sched.Levels[li].ANDs * gc.TableSize
		if off-start >= chunk {
			if err := en.conn.Send(transport.MsgTables, tb[start:off]); err != nil {
				return err
			}
			start = off
		}
	}
	if off != len(tb) {
		return fmt.Errorf("core: banked run holds %d table bytes, schedule wants %d", len(tb), off)
	}
	if off > start {
		return en.conn.Send(transport.MsgTables, tb[start:off])
	}
	return nil
}

// bankBatchEngine streams B banked executions as one fused batched
// sub-stream: batchGarbleEngine's wire format (wire-major labels with
// samples innermost, per-level gate-major table interleave) assembled
// from single executions, each sample carrying its own execution's
// delta and labels.
type bankBatchEngine struct {
	sched *circuit.Schedule
	exs   []*bank.Execution
	conn  transport.FrameConn
	ots   *precomp.SenderPool
	otr   precomp.Range // the batch's OT-pool entries, b samples wide
	cfg   EngineConfig
	b     int

	inputBits [][]bool
	cursor    int
	evalBit   int // evaluator-input bits transferred so far

	labelBuf []byte
	inOrd    int
	tabOrd   int

	cur  []byte      // table chunk being filled
	free chan []byte // recycled chunk buffers
}

func (en *bankBatchEngine) run() error {
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (en *bankBatchEngine) doInputs(st *circuit.Step) error {
	ord := en.inOrd
	en.inOrd++
	if st.Party == circuit.Garbler {
		payload := en.labelBuf[:0]
		for i := range st.Wires {
			if en.cursor >= len(en.inputBits[0]) {
				return fmt.Errorf("core: garbler input underrun at wire %d", st.Wires[i])
			}
			for s := 0; s < en.b; s++ {
				l := en.exs[s].InputZero[ord][i]
				if en.inputBits[s][en.cursor] {
					l = l.XOR(en.exs[s].R)
				}
				payload = append(payload, l[:]...)
			}
			en.cursor++
		}
		en.labelBuf = payload[:0]
		return en.conn.Send(transport.MsgInputLabels, payload)
	}
	var err error
	en.labelBuf, err = en.ots.SendStep(en.conn, en.otr, en.evalBit, len(st.Wires), en.labelBuf,
		func(i, s int) (ot.Msg, ot.Msg, error) {
			return ot.Msg(en.exs[s].InputZero[ord][i]), ot.Msg(en.exs[s].R), nil
		})
	en.evalBit += len(st.Wires)
	return err
}

// doLevels interleaves the B banked runs into the fused batch stream:
// level by level, gate rank i / sample s lands at (i*B+s)*TableSize —
// the copy is the whole online table cost of a banked batch.
func (en *bankBatchEngine) doLevels(st *circuit.Step) error {
	chunk := en.cfg.chunkBytes()
	cur := en.cur[:0]
	lvOff := 0 // byte offset of the current level inside each single run
	for li := st.First; li < st.First+st.N; li++ {
		lv := &en.sched.Levels[li]
		width := lv.ANDs * gc.TableSize
		need := width * en.b
		off := len(cur)
		for cap(cur) < off+need {
			cur = append(cur[:cap(cur)], 0)
		}
		cur = cur[:off+need]
		for s := 0; s < en.b; s++ {
			run := en.exs[s].Tables[en.tabOrd]
			if lvOff+width > len(run) {
				return fmt.Errorf("core: banked run %d holds %d table bytes, batch level wants %d", s, len(run), lvOff+width)
			}
			src := run[lvOff : lvOff+width]
			dstBase := off + s*gc.TableSize
			for i := 0; i < lv.ANDs; i++ {
				copy(cur[dstBase+i*en.b*gc.TableSize:], src[i*gc.TableSize:(i+1)*gc.TableSize])
			}
		}
		lvOff += width
		if len(cur) >= chunk {
			if err := en.conn.Send(transport.MsgTables, cur); err != nil {
				return err
			}
			select {
			case en.free <- cur[:0]:
			default:
			}
			cur = grabChunk(en.free, chunk)
			cur = cur[:0]
		}
	}
	en.tabOrd++
	if len(cur) > 0 {
		err := en.conn.Send(transport.MsgTables, cur)
		select {
		case en.free <- cur[:0]:
		default:
		}
		if err != nil {
			return err
		}
		cur = nil
	}
	en.cur = grabChunk(en.free, chunk)
	return nil
}

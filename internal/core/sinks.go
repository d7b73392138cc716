package core

import (
	"fmt"
	"io"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// tableChunk is the garbled-table flush threshold: tables stream to the
// evaluator in frames of roughly this size so neither party ever holds a
// whole netlist's tables in memory (§3.5).
const tableChunk = 1 << 20

// garblerSink drives the GC garbler from the netlist event stream (live
// generation or tape replay): it assigns input labels (sending its own,
// obliviously transferring the evaluator's), streams garbled tables, and
// captures the output decode information. One sink serves one inference;
// its buffers may be recycled into the next sink by the session.
type garblerSink struct {
	g    *gc.Garbler
	conn *transport.Conn
	ots  *ot.ExtSender

	inputBits []bool // the garbler's own private input bits, in order
	cursor    int

	tables   []byte
	labelBuf []byte     // reused payload buffer for input-label batches
	outZero  []gc.Label // zero-labels of output wires, in output order
}

func (s *garblerSink) flushTables() error {
	if len(s.tables) == 0 {
		return nil
	}
	if err := s.conn.Send(transport.MsgTables, s.tables); err != nil {
		return err
	}
	s.tables = s.tables[:0]
	return nil
}

// OnInputs implements circuit.Sink.
func (s *garblerSink) OnInputs(p circuit.Party, ws []uint32) error {
	if err := s.flushTables(); err != nil {
		return err
	}
	if p == circuit.Garbler {
		payload := s.labelBuf[:0]
		for _, w := range ws {
			if _, err := s.g.AssignInput(w); err != nil {
				return err
			}
			if s.cursor >= len(s.inputBits) {
				return fmt.Errorf("core: garbler input underrun at wire %d", w)
			}
			l, err := s.g.ActiveLabel(w, s.inputBits[s.cursor])
			if err != nil {
				return err
			}
			s.cursor++
			payload = append(payload, l[:]...)
		}
		s.labelBuf = payload[:0] // keep the (possibly grown) buffer
		return s.conn.Send(transport.MsgInputLabels, payload)
	}
	// Evaluator inputs travel by OT extension: one batch per declaration.
	// Their zero-labels carry permute bit 0 (colour = value), which the
	// netlist's half ANDs rest on.
	pairs := make([][2]ot.Msg, len(ws))
	for i, w := range ws {
		l0, err := s.g.AssignEvaluatorInput(w)
		if err != nil {
			return err
		}
		l1 := l0.XOR(s.g.R)
		pairs[i] = [2]ot.Msg{ot.Msg(l0), ot.Msg(l1)}
	}
	return s.ots.Send(pairs)
}

// OnGate implements circuit.Sink.
func (s *garblerSink) OnGate(g circuit.Gate) error {
	var err error
	s.tables, err = s.g.Garble(g, s.tables)
	if err != nil {
		return err
	}
	if len(s.tables) >= tableChunk {
		return s.flushTables()
	}
	return nil
}

// OnOutputs implements circuit.Sink.
func (s *garblerSink) OnOutputs(ws []uint32) error {
	if err := s.flushTables(); err != nil {
		return err
	}
	for _, w := range ws {
		l, err := s.g.ZeroLabel(w)
		if err != nil {
			return err
		}
		s.outZero = append(s.outZero, l)
	}
	return nil
}

// OnDrop implements circuit.Sink.
func (s *garblerSink) OnDrop(w uint32) error {
	s.g.Drop(w)
	return nil
}

// decodeBits returns the point-and-permute decode vector (LSB of each
// output zero-label) — the "output mapping" of §2.2.2 step iv.
func (s *garblerSink) decodeBits() []bool {
	out := make([]bool, len(s.outZero))
	for i, l := range s.outZero {
		out[i] = l.LSB()
	}
	return out
}

// newGarblerSink builds a self-contained single-inference garbler sink:
// fresh garbler, const labels on the wire, and its own OT base phase.
// The session path instead shares one ExtSender across inferences; this
// constructor remains for the one-shot outsourced deployment.
func newGarblerSink(conn *transport.Conn, rng io.Reader, inputBits []bool) (*garblerSink, error) {
	g, err := gc.NewGarbler(rng)
	if err != nil {
		return nil, err
	}
	lf, lt, err := g.ConstLabels()
	if err != nil {
		return nil, err
	}
	payload := append(append([]byte{}, lf[:]...), lt[:]...)
	if err := conn.Send(transport.MsgConstLabels, payload); err != nil {
		return nil, err
	}
	ots, err := ot.NewExtSender(conn, rng)
	if err != nil {
		return nil, err
	}
	return &garblerSink{g: g, conn: conn, ots: ots, inputBits: inputBits}, nil
}

// evaluatorSink drives the GC evaluator: it receives input labels (its own
// via OT), consumes streamed garbled tables, and collects output labels.
// One sink serves a whole session; beginInference resets it for the next
// garbled execution while keeping the shared OT extension state.
type evaluatorSink struct {
	e    *gc.Evaluator
	conn *transport.Conn
	ots  *ot.ExtReceiver

	inputBits []bool // the evaluator's own private input bits, in order
	cursor    int

	pending   []byte
	outLabels []gc.Label
}

// beginInference receives the fresh constant labels that open one garbled
// execution and resets the per-inference evaluation state.
func (s *evaluatorSink) beginInference() error {
	constLabels, err := s.conn.Recv(transport.MsgConstLabels)
	if err != nil {
		return err
	}
	if len(constLabels) != 2*gc.LabelSize {
		return fmt.Errorf("core: const-label frame has %d bytes", len(constLabels))
	}
	e := gc.NewEvaluator()
	var lf, lt gc.Label
	copy(lf[:], constLabels[:gc.LabelSize])
	copy(lt[:], constLabels[gc.LabelSize:])
	e.SetLabel(circuit.WFalse, lf)
	e.SetLabel(circuit.WTrue, lt)
	s.e = e
	s.cursor = 0
	s.pending = s.pending[:0]
	s.outLabels = s.outLabels[:0]
	return nil
}

// OnInputs implements circuit.Sink.
func (s *evaluatorSink) OnInputs(p circuit.Party, ws []uint32) error {
	if p == circuit.Garbler {
		payload, err := s.conn.Recv(transport.MsgInputLabels)
		if err != nil {
			return err
		}
		if len(payload) != len(ws)*gc.LabelSize {
			return fmt.Errorf("core: input-label frame has %d bytes, want %d", len(payload), len(ws)*gc.LabelSize)
		}
		for i, w := range ws {
			var l gc.Label
			copy(l[:], payload[i*gc.LabelSize:])
			s.e.SetLabel(w, l)
		}
		return nil
	}
	choices := make([]bool, len(ws))
	for i := range ws {
		if s.cursor >= len(s.inputBits) {
			return fmt.Errorf("core: evaluator input underrun at wire %d", ws[i])
		}
		choices[i] = s.inputBits[s.cursor]
		s.cursor++
	}
	msgs, err := s.ots.Receive(choices)
	if err != nil {
		return err
	}
	for i, w := range ws {
		s.e.SetLabel(w, gc.Label(msgs[i]))
	}
	return nil
}

// OnGate implements circuit.Sink.
func (s *evaluatorSink) OnGate(g circuit.Gate) error {
	if len(s.pending) < g.Op.TableBytes() {
		chunk, err := s.conn.Recv(transport.MsgTables)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, chunk...)
	}
	var err error
	s.pending, err = s.e.Eval(g, s.pending)
	return err
}

// OnOutputs implements circuit.Sink.
func (s *evaluatorSink) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		l, err := s.e.Label(w)
		if err != nil {
			return err
		}
		s.outLabels = append(s.outLabels, l)
	}
	return nil
}

// OnDrop implements circuit.Sink.
func (s *evaluatorSink) OnDrop(w uint32) error {
	s.e.Drop(w)
	return nil
}

// newEvaluatorSink builds a self-contained single-inference evaluator
// sink with its own OT base phase, for the one-shot outsourced
// deployment; session serving shares one ExtReceiver instead.
func newEvaluatorSink(conn *transport.Conn, rng io.Reader, inputBits []bool) (*evaluatorSink, error) {
	sink := &evaluatorSink{conn: conn, inputBits: inputBits}
	if err := sink.beginInference(); err != nil {
		return nil, err
	}
	ots, err := ot.NewExtReceiver(conn, rng)
	if err != nil {
		return nil, err
	}
	sink.ots = ots
	return sink, nil
}

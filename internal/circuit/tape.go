package circuit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Tape is a compact recording of a netlist's event stream. It implements
// Sink, so a Builder (or any other producer) can write into it once; the
// recording can then be replayed any number of times with Replay.
//
// The netlist of a DeepSecure inference is a public, deterministic
// function of the (architecture, fixed-point format) pair, yet a garbled
// execution needs fresh labels per inference. A Tape separates the two
// costs: generation (layer traversal, constant folding, wire recycling,
// scope bookkeeping) runs once, while the per-inference cryptography
// consumes the recorded stream directly. Replay is read-only and
// allocation-free, so one Tape can drive any number of concurrent
// sessions.
//
// Events are packed into a stream of uint32 words:
//
//	opXOR/opAND/opHalfAND  a b out
//	opINV                  a out
//	opInputsG/E  n w0 ... w{n-1}
//	opOutputs    n w0 ... w{n-1}
//	opDrop       w
//
// The stream is recorded in chunks of chunkWords words, each allocated once
// at its full size: no recorded word is copied again. An event that does not
// fit in what is left of the last chunk starts the next, so none straddles
// two, and a batch longer than a chunk gets a chunk of exactly its size. The
// slack is the last chunk's tail and, in each earlier one, under one event.
//
// Input/output wire batches are handed to sinks as sub-slices of the
// stream itself (zero copy); sinks must not mutate or retain them across
// calls, which matches the Sink contract for Builder-driven events.
type Tape struct {
	chunks [][]uint32
	drops  int    // drop events recorded
	wires  uint32 // one past the largest wire id defined: the constants, then events
	stats  Stats
}

// chunkWords is the size of a tape chunk in words (256 KiB).
const chunkWords = 1 << 16

// Tape event opcodes. Gate opcodes deliberately mirror Op values so the
// hot replay path converts without a lookup.
const (
	opXOR     uint32 = uint32(XOR)     // a b out
	opAND     uint32 = uint32(AND)     // a b out
	opINV     uint32 = uint32(INV)     // a out
	opHalfAND uint32 = uint32(HalfAND) // a b out
	opInputsG uint32 = 4               // n wires...
	opInputsE uint32 = 5               // n wires...
	opOutputs uint32 = 6               // n wires...
	opDrop    uint32 = 7               // w
)

// NewTape returns an empty recording.
func NewTape() *Tape { return &Tape{wires: 2} }

// Stats returns the gate statistics of the recorded netlist.
func (t *Tape) Stats() Stats { return t.stats }

// Digest returns the sha256 of the recorded event stream, every word
// little-endian in recording order: two tapes with one digest replay the
// same netlist.
func (t *Tape) Digest() [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 4*chunkWords)
	for _, code := range t.chunks {
		buf = buf[:0]
		for _, w := range code {
			buf = binary.LittleEndian.AppendUint32(buf, w)
		}
		h.Write(buf)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// event returns room for an n-word event at the end of the stream.
func (t *Tape) event(n int) []uint32 {
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < n {
		t.chunks = append(t.chunks, make([]uint32, 0, max(n, chunkWords)))
		last++
	}
	code := t.chunks[last]
	t.chunks[last] = code[:len(code)+n]
	return code[len(code) : len(code)+n]
}

// OnInputs implements Sink.
func (t *Tape) OnInputs(p Party, ws []uint32) error {
	op := opInputsG
	if p == Evaluator {
		op = opInputsE
		t.stats.EvaluatorInputs += int64(len(ws))
	} else {
		t.stats.GarblerInputs += int64(len(ws))
	}
	ev := t.event(2 + len(ws))
	ev[0], ev[1] = op, uint32(len(ws))
	copy(ev[2:], ws)
	for _, w := range ws {
		t.wires = max(t.wires, w+1)
	}
	return nil
}

// OnGate implements Sink.
func (t *Tape) OnGate(g Gate) error {
	switch g.Op {
	case XOR, AND, HalfAND:
		ev := t.event(4)
		ev[0], ev[1], ev[2], ev[3] = uint32(g.Op), g.A, g.B, g.Out
	case INV:
		ev := t.event(3)
		ev[0], ev[1], ev[2] = opINV, g.A, g.Out
	default:
		return fmt.Errorf("circuit: tape cannot record op %v", g.Op)
	}
	t.wires = max(t.wires, g.Out+1)
	t.stats.count(g.Op)
	return nil
}

// OnOutputs implements Sink.
func (t *Tape) OnOutputs(ws []uint32) error {
	t.stats.Outputs += int64(len(ws))
	ev := t.event(2 + len(ws))
	ev[0], ev[1] = opOutputs, uint32(len(ws))
	copy(ev[2:], ws)
	return nil
}

// OnDrop implements Sink.
func (t *Tape) OnDrop(w uint32) error {
	ev := t.event(2)
	ev[0], ev[1] = opDrop, w
	t.drops++
	return nil
}

// Replay drives sink through the recorded event stream, in recording
// order. It is safe to call concurrently from multiple goroutines (each
// with its own sink): the tape is never mutated.
func (t *Tape) Replay(sink Sink) error {
	for _, code := range t.chunks {
		for i := 0; i < len(code); {
			switch code[i] {
			case opXOR, opAND, opHalfAND:
				if err := sink.OnGate(Gate{Op: Op(code[i]), A: code[i+1], B: code[i+2], Out: code[i+3]}); err != nil {
					return err
				}
				i += 4
			case opINV:
				if err := sink.OnGate(Gate{Op: INV, A: code[i+1], Out: code[i+2]}); err != nil {
					return err
				}
				i += 3
			case opInputsG, opInputsE:
				p := Garbler
				if code[i] == opInputsE {
					p = Evaluator
				}
				n := int(code[i+1])
				if err := sink.OnInputs(p, code[i+2:i+2+n]); err != nil {
					return err
				}
				i += 2 + n
			case opOutputs:
				n := int(code[i+1])
				if err := sink.OnOutputs(code[i+2 : i+2+n]); err != nil {
					return err
				}
				i += 2 + n
			case opDrop:
				if err := sink.OnDrop(code[i+1]); err != nil {
					return err
				}
				i += 2
			default:
				return fmt.Errorf("circuit: corrupt tape opcode %d", code[i])
			}
		}
	}
	return nil
}

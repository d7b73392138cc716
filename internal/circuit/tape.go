package circuit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
	"unsafe"
)

// Tape is a netlist's event stream, replayable any number of times: a
// recording (NewTape), which is the Sink a producer writes it into, or a
// generator run again on each Replay (Regenerate).
//
// The netlist of a DeepSecure inference is a public, deterministic
// function of the (architecture, fixed-point format) pair, so a compile
// records nothing: Compile levels the generator's events as they arrive
// and hashes them as Digest hashes a recording of them, and a compiled
// program's tape regenerates. A recording is for tests and for timing
// generation on its own. Replay never mutates the tape, so one Tape can
// drive any number of concurrent sinks.
//
// Events are packed into a stream of uint32 words (Digest hashes them):
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
	h      hash.Hash        // newDigest's: what the chunks are hashed into
	gen    func(Sink) error // a regenerating tape's generator
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
func NewTape() *Tape { return &Tape{} }

// Regenerate returns a tape that records nothing: Replay runs gen, which
// must emit the same events on every call and may be called concurrently.
// s counts what gen emits (NewSchedule sizes its tables from it).
func Regenerate(gen func(Sink) error, s Stats) *Tape { return &Tape{gen: gen, stats: s} }

// Stats returns the gate statistics of the tape's netlist.
func (t *Tape) Stats() Stats { return t.stats }

// Digest returns the sha256 of the tape's event stream, every word
// little-endian in order, and the error that stopped the replay, if any:
// two tapes with one digest replay the same netlist. It replays the tape
// into the digest Compile computes as it levels, so one encoder defines both.
func (t *Tape) Digest() ([sha256.Size]byte, error) {
	d := newDigest()
	err := t.Replay(d)
	return d.sum(), err
}

// newDigest returns a tape that hashes the events it is handed instead of
// recording them: its one chunk is hashed, and emptied, whenever the next
// event does not fit.
func newDigest() *Tape { return &Tape{h: sha256.New(), chunks: make([][]uint32, 1)} }

// littleEndian reports whether a word's memory holds the bytes Digest
// hashes for it.
var littleEndian = binary.NativeEndian.Uint32([]byte{1, 0, 0, 0}) == 1

// sum hashes a digest's chunk, empties it and returns the hash so far.
func (t *Tape) sum() [sha256.Size]byte {
	code := t.chunks[0]
	if !littleEndian {
		for i, w := range code {
			code[i] = bits.ReverseBytes32(w)
		}
	}
	t.h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(code))), 4*len(code)))
	t.chunks[0] = code[:0]
	return [sha256.Size]byte(t.h.Sum(nil))
}

// event returns room for an n-word event at the end of the stream.
func (t *Tape) event(n int) []uint32 {
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < n {
		if t.h != nil { // a digest keeps one chunk
			if t.sum(); cap(t.chunks[0]) < n {
				t.chunks[0] = make([]uint32, 0, max(n, chunkWords))
			}
		} else {
			t.chunks = append(t.chunks, make([]uint32, 0, max(n, chunkWords)))
			last++
		}
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
	return nil
}

// Replay drives sink through the tape's event stream, in order. It is
// safe to call concurrently from multiple goroutines (each with its own
// sink): the tape is never mutated.
func (t *Tape) Replay(sink Sink) error {
	if t.gen != nil {
		return t.gen(sink)
	}
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

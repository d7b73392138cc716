package core

import (
	"fmt"

	"deepsecure/internal/circuit"
)

// This file runs the engine of engine.go on a netlist no party compiles:
// the §3.3 outsourced deployment, whose proxy and main server each feed the
// generator's event stream (netgen.Generate into a recycling
// circuit.Builder) straight into the engine, so neither materialises the
// program and memory stays bounded by the live wires and one table chunk
// (§3.5). Each input or output declaration becomes a circuit.Step for the
// engine's doInputs/doOutputs; gates are grouped greedily into levels,
// which run through GarbleLevel/EvaluateLevel as a schedule's do.
//
// No schedule was checked for such a stream, so the stream keeps its own
// circuit.Live and holds every gate to its rule as the gate arrives. A
// gate joins the pending level unless it reads a wire the level writes,
// writes a wire the level reads or writes (a recycled id), or the level
// holds maxStreamLevel gates; otherwise the pending level runs first. Both
// parties generate the same stream, so they cut the same levels, number the
// same ANDs and agree on every tweak and table offset.

// tableChunk is the garbled-table flush threshold: tables stream to the
// evaluator in frames of roughly this size so neither party ever holds a
// whole netlist's tables in memory (§3.5).
const tableChunk = 1 << 20

// maxStreamLevel caps the gates of one streamed level: a level this size
// is wide enough for the pool to fan out, and small enough that the
// pending gates and a level's tables stay a few hundred KiB.
const maxStreamLevel = 1 << 12

// maxStreamTables bounds a streamed table frame: the garbler sends once
// its buffer reaches tableChunk, so a frame is less than that plus one
// level's tables.
const maxStreamTables = tableChunk + maxStreamLevel*2*circuit.CiphertextSize

// streamParty is one party's engine (garbleEngine or evalEngine) behind a
// stream.
type streamParty interface {
	// grow sizes the label store for wires [0, n).
	grow(n uint32)
	// level runs one level: ands (full, then half) numbered from gidBase,
	// whose tables take need bytes, and frees.
	level(ands, frees []circuit.Gate, gidBase uint64, need int) error
	// step runs an input or output declaration.
	step(st *circuit.Step) error
	// finish ends the stream once its last level has run.
	finish() error
}

// stream is the circuit.Sink that levels a gate stream for a streamParty.
type stream struct {
	party streamParty
	live  circuit.Live

	// pending holds the pending level's full ANDs, half ANDs and free
	// gates, n of each kind: arrays, so that taking a gate writes no
	// pointer.
	pending [3][maxStreamLevel]circuit.Gate
	n       [3]int
	// mark[w] is epoch<<1 when the pending level reads w, epoch<<1|1 when
	// it writes w; running a level moves epoch on.
	mark  []uint32
	epoch uint32
	gid   uint64 // the ANDs run so far
	out   uint32 // the largest output wire so far
	grown uint32 // the wires the party's store holds
}

// runStream feeds the event stream emit produces into party, level by
// level, and finishes it.
func runStream(party streamParty, emit func(circuit.Sink) error) error {
	s := &stream{party: party, epoch: 1}
	s.live.Set(circuit.WFalse)
	s.live.Set(circuit.WTrue)
	if err := emit(s); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	return party.finish()
}

// touched returns w's mark in the pending level: 0 for none, 1 for a
// read, 2 for a write.
func (s *stream) touched(w uint32) uint32 {
	if int(w) >= len(s.mark) || s.mark[w]>>1 != s.epoch {
		return 0
	}
	return 1 + s.mark[w]&1
}

func (s *stream) note(w uint32, write uint32) {
	if n := int(w) + 1; n > len(s.mark) {
		s.mark = append(s.mark, make([]uint32, n-len(s.mark))...)
	}
	s.mark[w] = s.epoch<<1 | write
}

// OnGate implements circuit.Sink.
func (s *stream) OnGate(g circuit.Gate) error {
	var kind int // the gate's row of pending
	switch g.Op {
	case circuit.AND:
	case circuit.HalfAND:
		kind = 1
	case circuit.XOR, circuit.INV:
		kind = 2
	default:
		return fmt.Errorf("core: cannot run op %v", g.Op)
	}
	if err := s.live.Admit(&g); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	unary := g.Op == circuit.INV
	if s.n[0]+s.n[1]+s.n[2] == maxStreamLevel || s.touched(g.A) == 2 ||
		!unary && s.touched(g.B) == 2 || s.touched(g.Out) != 0 {
		if err := s.flush(); err != nil {
			return err
		}
	}
	s.live.Set(g.Out)
	s.note(g.A, 0)
	if !unary {
		s.note(g.B, 0)
	}
	s.note(g.Out, 1)
	s.out = max(s.out, g.Out)
	s.pending[kind][s.n[kind]] = g
	s.n[kind]++
	return nil
}

// flush runs the pending level, if any, growing the party's store
// geometrically past its outputs first.
func (s *stream) flush() error {
	full, half, frees := s.n[0], s.n[1], s.n[2]
	if full+half+frees == 0 {
		return nil
	}
	if s.out >= s.grown {
		s.grown = max(s.out+1, 2*s.grown)
		s.party.grow(s.grown)
	}
	ands := append(s.pending[0][:full], s.pending[1][:half]...) // in place: the row holds both
	need := full*circuit.AND.TableBytes() + half*circuit.HalfAND.TableBytes()
	if err := s.party.level(ands, s.pending[2][:frees], s.gid, need); err != nil {
		return err
	}
	s.gid += uint64(len(ands))
	s.n = [3]int{}
	if s.epoch++; s.epoch == 1<<31 {
		clear(s.mark)
		s.epoch = 1
	}
	return nil
}

// OnInputs implements circuit.Sink: the wires are fresh, and the pending
// level runs before they are set.
func (s *stream) OnInputs(p circuit.Party, ws []uint32) error {
	if err := s.flush(); err != nil {
		return err
	}
	for _, w := range ws {
		if s.live.Has(w) {
			return fmt.Errorf("core: input declares live wire %d", w)
		}
		s.live.Set(w)
	}
	return s.party.step(&circuit.Step{Kind: circuit.StepInputs, Party: p, Wires: ws})
}

// OnOutputs implements circuit.Sink.
func (s *stream) OnOutputs(ws []uint32) error {
	if err := s.flush(); err != nil {
		return err
	}
	for _, w := range ws {
		if !s.live.Has(w) {
			return fmt.Errorf("core: output reads dead wire %d", w)
		}
	}
	return s.party.step(&circuit.Step{Kind: circuit.StepOutputs, Wires: ws})
}

// OnDrop implements circuit.Sink.
func (s *stream) OnDrop(w uint32) error {
	s.live.Clear(w)
	return nil
}

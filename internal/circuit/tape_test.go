package circuit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// eventLog records every sink callback verbatim, for comparing a live
// builder stream against its tape replay.
type eventLog struct {
	events []string
	gates  []Gate
	inputs [][]uint32
	outs   [][]uint32
	drops  []uint32
}

func (l *eventLog) OnInputs(p Party, ws []uint32) error {
	l.events = append(l.events, "inputs:"+p.String())
	l.inputs = append(l.inputs, append([]uint32(nil), ws...))
	return nil
}

func (l *eventLog) OnGate(g Gate) error {
	l.events = append(l.events, "gate")
	l.gates = append(l.gates, g)
	return nil
}

func (l *eventLog) OnOutputs(ws []uint32) error {
	l.events = append(l.events, "outputs")
	l.outs = append(l.outs, append([]uint32(nil), ws...))
	return nil
}

func (l *eventLog) OnDrop(w uint32) error {
	l.events = append(l.events, "drop")
	l.drops = append(l.drops, w)
	return nil
}

// tee fans one event stream out to several sinks.
type tee []Sink

func (t tee) OnInputs(p Party, ws []uint32) error {
	for _, s := range t {
		if err := s.OnInputs(p, ws); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) OnGate(g Gate) error {
	for _, s := range t {
		if err := s.OnGate(g); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) OnOutputs(ws []uint32) error {
	for _, s := range t {
		if err := s.OnOutputs(ws); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) OnDrop(w uint32) error {
	for _, s := range t {
		if err := s.OnDrop(w); err != nil {
			return err
		}
	}
	return nil
}

// buildSample emits a small netlist exercising every event kind,
// including scope-driven drops and wire recycling.
func buildSample(b *Builder) {
	xs := b.Inputs(Garbler, 3)
	ys := b.Inputs(Evaluator, 2)
	b.BeginScope()
	t0 := b.AND(xs[0], ys[0])
	t1 := b.XOR(t0, xs[1])
	t2 := b.INV(t1)
	out := b.OR(t2, ys[1])
	b.EndScope(out)
	b.Drop(xs...)
	b.Drop(ys...)
	b.Outputs(out)
}

func TestTapeReplayMatchesLiveStream(t *testing.T) {
	live := &eventLog{}
	tape := NewTape()
	b := NewBuilder(tee{tape, live}, WithRecycling())
	buildSample(b)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	replayed := &eventLog{}
	if err := tape.Replay(replayed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.events, replayed.events) {
		t.Fatalf("event order differs:\nlive:   %v\nreplay: %v", live.events, replayed.events)
	}
	if !reflect.DeepEqual(live.gates, replayed.gates) {
		t.Fatalf("gates differ:\nlive:   %v\nreplay: %v", live.gates, replayed.gates)
	}
	if !reflect.DeepEqual(live.inputs, replayed.inputs) {
		t.Fatalf("input batches differ: %v vs %v", live.inputs, replayed.inputs)
	}
	if !reflect.DeepEqual(live.outs, replayed.outs) {
		t.Fatalf("output batches differ: %v vs %v", live.outs, replayed.outs)
	}
	if !reflect.DeepEqual(live.drops, replayed.drops) {
		t.Fatalf("drops differ: %v vs %v", live.drops, replayed.drops)
	}

	// Replay is repeatable: a second pass produces the identical stream.
	again := &eventLog{}
	if err := tape.Replay(again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.events, again.events) || !reflect.DeepEqual(replayed.gates, again.gates) {
		t.Fatal("second replay differs from first")
	}
}

func TestTapeStats(t *testing.T) {
	tape := NewTape()
	b := NewBuilder(tape, WithRecycling())
	buildSample(b)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	got, want := tape.Stats(), b.Stats()
	// The builder additionally tracks MaxLive, which a tape cannot know.
	want.MaxLive = 0
	if got != want {
		t.Fatalf("tape stats %+v, builder stats %+v", got, want)
	}
	if got.AND == 0 || got.GarblerInputs != 3 || got.EvaluatorInputs != 2 || got.Outputs != 1 {
		t.Fatalf("implausible stats: %+v", got)
	}
}

func TestTapeReplayEvaluatesCorrectly(t *testing.T) {
	// Record with a recycling builder, replay into a materializing Graph,
	// and check the replayed circuit computes the same function as a
	// directly materialized one. Outputs are declared last, so recycled
	// wire ids cannot clobber them.
	tape := NewTape()
	b := NewBuilder(tape, WithRecycling())
	buildSample(b)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	if err := tape.Replay(g); err != nil {
		t.Fatal(err)
	}
	viaTape := g.Circuit()

	direct, err := Build(func(b *Builder) { buildSample(b) })
	if err != nil {
		t.Fatal(err)
	}

	for mask := 0; mask < 32; mask++ {
		gb := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		eb := []bool{mask&8 != 0, mask&16 != 0}
		a, err := viaTape.Eval(gb, eb)
		if err != nil {
			t.Fatal(err)
		}
		d, err := direct.Eval(gb, eb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, d) {
			t.Fatalf("mask %05b: tape circuit %v, direct circuit %v", mask, a, d)
		}
	}
}

// TestTapeReplaysAcrossChunks records a synthetic stream that meets the
// tape's chunking every way it can: gates that end exactly on a chunk
// boundary, an input batch longer than one chunk, an output batch that does
// not fit in what is left of a chunk, and a long tail of mixed events.
// Replay must hand back the stream as recorded, and Digest must hash its
// words little-endian in recording order, wherever the chunks fall.
func TestTapeReplaysAcrossChunks(t *testing.T) {
	tape := NewTape()
	live := &eventLog{}
	sink := tee{tape, live}
	var words []uint32 // the stream as the tape's encoding defines it
	inputs := func(p Party, n int) {
		ws := make([]uint32, n)
		for i := range ws {
			ws[i] = uint32(2 + i)
		}
		op := opInputsG
		if p == Evaluator {
			op = opInputsE
		}
		words = append(append(words, op, uint32(n)), ws...)
		if err := sink.OnInputs(p, ws); err != nil {
			t.Fatal(err)
		}
	}
	outputs := func(n int) {
		ws := make([]uint32, n)
		for i := range ws {
			ws[i] = uint32(7 + i)
		}
		words = append(append(words, opOutputs, uint32(n)), ws...)
		if err := sink.OnOutputs(ws); err != nil {
			t.Fatal(err)
		}
	}
	gate := func(op Op, a, b, out uint32) {
		if op == INV {
			words = append(words, opINV, a, out)
		} else {
			words = append(words, uint32(op), a, b, out)
		}
		if err := sink.OnGate(Gate{Op: op, A: a, B: b, Out: out}); err != nil {
			t.Fatal(err)
		}
	}
	drop := func(w uint32) {
		words = append(words, opDrop, w)
		if err := sink.OnDrop(w); err != nil {
			t.Fatal(err)
		}
	}

	// A 4-word input batch and 4-word gates end exactly on the boundary.
	inputs(Garbler, 2)
	for i := 0; i < (chunkWords-4)/4; i++ {
		gate(XOR, 2, 3, uint32(4+i%9))
	}
	if len(words) != chunkWords {
		t.Fatalf("setup: %d words before the boundary, want %d", len(words), chunkWords)
	}
	drop(2)
	inputs(Evaluator, chunkWords+5) // longer than a chunk
	gate(INV, 5, 0, 6)
	gate(HalfAND, 6, 5, 9)
	outputs(chunkWords - 4) // does not fit in what is left
	// A long mixed tail. Where the words recorded so far leave 2–4 words to a
	// multiple of the chunk size, an event of exactly that size is recorded.
	r := rand.New(rand.NewSource(1))
	for len(words) < 6*chunkWords {
		switch left, k := chunkWords-len(words)%chunkWords, r.Intn(8); {
		case left == 4:
			gate(AND, 2, 3, 4)
		case left == 3:
			gate(INV, 3, 0, 4)
		case left == 2:
			drop(uint32(r.Intn(50)))
		case k == 0:
			inputs(Party(r.Intn(2)), r.Intn(3*chunkWords/2))
		case k == 1:
			outputs(r.Intn(2000))
		case k == 2:
			drop(uint32(r.Intn(50)))
		case k == 3:
			gate(INV, uint32(r.Intn(50)), 0, uint32(r.Intn(50)))
		default:
			gate([]Op{XOR, AND, HalfAND}[r.Intn(3)], uint32(r.Intn(50)), uint32(r.Intn(50)), uint32(r.Intn(50)))
		}
	}
	replayed := &eventLog{}
	if err := tape.Replay(replayed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay differs from the recorded stream (%d events recorded, %d replayed)", len(live.events), len(replayed.events))
	}
	h := sha256.New()
	for _, w := range words {
		h.Write(binary.LittleEndian.AppendUint32(nil, w))
	}
	got, err := tape.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:], h.Sum(nil)) {
		t.Fatal("Digest is not the sha256 of the recorded words, little-endian in order")
	}
}

package circuit

import (
	"math/rand"
	"testing"
)

// tapePlainSink evaluates a tape's event stream on plaintext bits with
// the same register-machine semantics the sequential GC sinks use.
type tapePlainSink struct {
	vals map[uint32]bool
	gb   []bool
	eb   []bool
	out  []bool
}

func (s *tapePlainSink) OnInputs(p Party, ws []uint32) error {
	src := &s.gb
	if p == Evaluator {
		src = &s.eb
	}
	for _, w := range ws {
		s.vals[w] = (*src)[0]
		*src = (*src)[1:]
	}
	return nil
}

func (s *tapePlainSink) OnGate(g Gate) error {
	switch g.Op {
	case XOR:
		s.vals[g.Out] = s.vals[g.A] != s.vals[g.B]
	case AND, HalfAND:
		s.vals[g.Out] = s.vals[g.A] && s.vals[g.B]
	case INV:
		s.vals[g.Out] = !s.vals[g.A]
	}
	return nil
}

func (s *tapePlainSink) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		s.out = append(s.out, s.vals[w])
	}
	return nil
}

func (s *tapePlainSink) OnDrop(w uint32) error {
	delete(s.vals, w)
	return nil
}

func tapePlainEval(t *testing.T, tape *Tape, gb, eb []bool) []bool {
	t.Helper()
	sink := &tapePlainSink{vals: map[uint32]bool{WFalse: false, WTrue: true}}
	sink.gb = append(sink.gb, gb...)
	sink.eb = append(sink.eb, eb...)
	if err := tape.Replay(sink); err != nil {
		t.Fatalf("tape replay: %v", err)
	}
	return sink.out
}

// schedPlainEval executes the schedule step by step, enforcing the
// engine's contract as it goes: a value must be present when read, levels
// must not read a wire written in the same level nor write one twice,
// drops must not kill values that are still needed, a level's half ANDs
// trail its full ones, and a half AND's B still holds what an evaluator
// input step put there.
func schedPlainEval(t *testing.T, s *Schedule, gb, eb []bool) []bool {
	t.Helper()
	vals := make([]bool, s.NumWires)
	have := make([]bool, s.NumWires)
	evalIn := make([]bool, s.NumWires) // holds a raw evaluator input
	vals[WTrue] = true
	have[WFalse] = true
	have[WTrue] = true
	read := func(w uint32, where string) bool {
		if w >= s.NumWires {
			t.Fatalf("%s reads wire %d outside namespace %d", where, w, s.NumWires)
		}
		if !have[w] {
			t.Fatalf("%s reads dead/undefined wire %d", where, w)
		}
		return vals[w]
	}
	drop := func(ws []uint32) {
		for _, w := range ws {
			if !have[w] {
				t.Fatalf("drop of wire %d which is not live", w)
			}
			have[w] = false
		}
	}
	var out []bool
	gid := uint64(0)
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			src := &gb
			if st.Party == Evaluator {
				src = &eb
			}
			for _, w := range st.Wires {
				if len(*src) == 0 {
					t.Fatalf("input underrun at wire %d", w)
				}
				vals[w] = (*src)[0]
				have[w] = true
				evalIn[w] = st.Party == Evaluator
				*src = (*src)[1:]
			}
		case StepOutputs:
			for _, w := range st.Wires {
				out = append(out, read(w, "output step"))
			}
		case StepLevels:
			drop(st.PreDrops)
			tableBytes := 0
			for li := st.First; li < st.First+st.N; li++ {
				lv := &s.Levels[li]
				if lv.GIDBase != gid {
					t.Fatalf("level %d has GIDBase %d, want %d", li, lv.GIDBase, gid)
				}
				gid += uint64(lv.ANDs)
				tableBytes += lv.TableBytes()
				ands, frees := s.LevelGates(lv)
				levelBytes := 0
				for i, g := range ands {
					levelBytes += g.Op.TableBytes()
					if want := map[bool]Op{false: AND, true: HalfAND}[i >= lv.ANDs-lv.Halves]; g.Op != want {
						t.Fatalf("level %d: AND rank %d of %d (%d half) is a %v", li, i, lv.ANDs, lv.Halves, g.Op)
					}
					if g.Op == HalfAND && !evalIn[g.B] {
						t.Fatalf("level %d: half AND reads wire %d in slot B, not an evaluator input", li, g.B)
					}
				}
				if levelBytes != lv.TableBytes() {
					t.Fatalf("level %d reports %d table bytes, its gates sum to %d", li, lv.TableBytes(), levelBytes)
				}
				written := make(map[uint32]bool, len(ands)+len(frees))
				// Read phase: all operands against pre-level state.
				results := make([]bool, 0, len(ands)+len(frees))
				checkOperand := func(w uint32) {
					if written[w] {
						t.Fatalf("level %d reads wire %d written in the same level", li, w)
					}
				}
				for _, g := range append(append([]Gate{}, ands...), frees...) {
					checkOperand(g.A)
					var v bool
					switch g.Op {
					case AND, HalfAND:
						checkOperand(g.B)
						v = read(g.A, "gate") && read(g.B, "gate")
					case XOR:
						checkOperand(g.B)
						v = read(g.A, "gate") != read(g.B, "gate")
					case INV:
						v = !read(g.A, "gate")
					default:
						t.Fatalf("level %d has op %v", li, g.Op)
					}
					results = append(results, v)
					if written[g.Out] {
						t.Fatalf("level %d writes wire %d twice", li, g.Out)
					}
					written[g.Out] = true
				}
				// Write phase.
				i := 0
				for _, g := range append(append([]Gate{}, ands...), frees...) {
					vals[g.Out] = results[i]
					have[g.Out] = true
					evalIn[g.Out] = false
					i++
				}
				drop(lv.Drops)
			}
			if tableBytes != st.TableBytes {
				t.Fatalf("step %d reports %d table bytes, levels sum to %d", si, st.TableBytes, tableBytes)
			}
		}
	}
	if want := int64(gid); want != s.ANDs {
		t.Fatalf("schedule reports %d ANDs, levels carry %d", s.ANDs, want)
	}
	if want := 16 * (2*s.ANDs - s.Halves); s.TableBytes() != want {
		t.Fatalf("schedule reports %d table bytes, want 16 per ciphertext = %d", s.TableBytes(), want)
	}
	return out
}

// buildRandomTape drives a recycling Builder through a random circuit:
// input batches for both parties (some mid-stream), a mix of raw and
// derived gates, aggressive drops, and a random output selection. It
// returns the tape plus the input sizes.
func buildRandomTape(r *rand.Rand) (tape *Tape, nG, nE, nOut int) {
	tape = NewTape()
	b := NewBuilder(tape, WithRecycling())
	var live []uint32
	inLive := make(map[uint32]bool)
	// Folding can hand back an existing wire (XOR(x, false) = x) or a
	// constant; only genuinely fresh wires enter the live set, or the
	// generator would emit use-after-drop streams no real producer would.
	add := func(w uint32) {
		if w == WFalse || w == WTrue || inLive[w] {
			return
		}
		inLive[w] = true
		live = append(live, w)
	}
	addInputs := func(p Party, n int) {
		for _, w := range b.Inputs(p, n) {
			add(w)
		}
	}
	nG = 2 + r.Intn(6)
	nE = 1 + r.Intn(6)
	addInputs(Garbler, nG)
	addInputs(Evaluator, nE)
	pick := func() uint32 { return live[r.Intn(len(live))] }
	steps := 40 + r.Intn(200)
	for i := 0; i < steps; i++ {
		switch op := r.Intn(12); {
		case op < 3:
			add(b.XOR(pick(), pick()))
		case op < 6:
			add(b.AND(pick(), pick()))
		case op < 7:
			add(b.INV(pick()))
		case op < 8:
			add(b.OR(pick(), pick()))
		case op < 9:
			add(b.MUX(pick(), pick(), pick()))
		case op < 10:
			// Constant operands exercise the builder's folding.
			add(b.XOR(pick(), b.Const(r.Intn(2) == 1)))
		case op < 11 && len(live) > 6:
			// Retire a random live wire; its id may be recycled.
			j := r.Intn(len(live))
			b.Drop(live[j])
			delete(inLive, live[j])
			live = append(live[:j], live[j+1:]...)
		default:
			// Mid-stream input batches split the schedule into several
			// level runs, like per-layer weight declarations do.
			n := 1 + r.Intn(3)
			if r.Intn(2) == 0 {
				addInputs(Garbler, n)
				nG += n
			} else {
				addInputs(Evaluator, n)
				nE += n
			}
		}
	}
	nOut = 1 + r.Intn(len(live))
	outs := make([]uint32, nOut)
	for i := range outs {
		outs[i] = live[r.Intn(len(live))]
	}
	b.Outputs(outs...)
	return tape, nG, nE, nOut
}

func randomBits(r *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Intn(2) == 1
	}
	return out
}

// TestScheduleMatchesTape is the core schedule property: for random
// recycled tapes, level-parallel execution produces exactly the results
// of sequential replay, under the structural invariants the batch engine
// relies on (checked inside schedPlainEval).
func TestScheduleMatchesTape(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 20
	}
	var halves int64
	defer func() {
		if halves == 0 && !t.Failed() {
			t.Error("no random tape held a half AND: the kind went untested")
		}
	}()
	for it := 0; it < iters; it++ {
		r := rand.New(rand.NewSource(int64(7000 + it)))
		tape, nG, nE, _ := buildRandomTape(r)
		sched, err := NewSchedule(tape)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		// The schedule must carry every gate exactly once.
		st := tape.Stats()
		if got := int64(len(sched.Gates)); got != st.Total() {
			t.Fatalf("iter %d: schedule has %d gates, tape has %d", it, got, st.Total())
		}
		if sched.ANDs != st.AND || sched.Halves != st.HalfAND {
			t.Fatalf("iter %d: schedule has %d ANDs (%d half), tape has %d (%d)", it, sched.ANDs, sched.Halves, st.AND, st.HalfAND)
		}
		halves += st.HalfAND
		for trial := 0; trial < 4; trial++ {
			gb := randomBits(r, nG)
			eb := randomBits(r, nE)
			want := tapePlainEval(t, tape, gb, eb)
			got := schedPlainEval(t, sched, append([]bool{}, gb...), append([]bool{}, eb...))
			if len(got) != len(want) {
				t.Fatalf("iter %d: got %d outputs, want %d", it, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("iter %d trial %d: output %d = %v, want %v", it, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScheduleUndoesRecycling pins the reason the scheduler exists: a
// recycled tape chains independent gates through reused wire ids, and the
// SSA incarnation split must recover the parallelism. 32 independent AND
// gates whose outputs are dropped immediately reuse one or two wire ids
// in the tape, yet they must all land in a single level.
func TestScheduleUndoesRecycling(t *testing.T) {
	tape := NewTape()
	b := NewBuilder(tape, WithRecycling())
	in := b.Inputs(Garbler, 2)
	acc := b.Inputs(Evaluator, 1)[0]
	// Sequential generation with immediate drops: wire ids recycle hard.
	for i := 0; i < 32; i++ {
		w := b.AND(in[0], in[1])
		x := b.XOR(w, acc)
		b.Drop(w)
		b.Drop(x)
	}
	out := b.AND(in[0], in[1])
	b.Outputs(out)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	// All 33 ANDs are mutually independent: one level must hold them all.
	if sched.MaxLevelANDs != 33 {
		t.Fatalf("MaxLevelANDs = %d, want 33 (schedule: %v)", sched.MaxLevelANDs, sched)
	}
	// The renamed namespace must stay small: values die per level, so the
	// allocator reuses slots instead of materializing the SSA namespace.
	if sched.NumWires > 80 {
		t.Fatalf("renamed namespace has %d wires, want bounded reuse (schedule: %v)", sched.NumWires, sched)
	}
}

// TestScheduleTableBytes pins the schedule's byte accounting to the paper's
// unit: 16 bytes per ciphertext, two for a full AND and one for a half AND.
func TestScheduleTableBytes(t *testing.T) {
	tape := NewTape()
	b := NewBuilder(tape, WithRecycling())
	in := b.Inputs(Garbler, 2)
	w := b.Inputs(Evaluator, 1)
	b.Outputs(b.AND(in[0], in[1]), b.AND(in[0], w[0]))
	sched, err := NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := range sched.Steps {
		total += sched.Steps[i].TableBytes
	}
	st := tape.Stats()
	if st.AND != 2 || st.HalfAND != 1 || st.Ciphertexts() != 3 {
		t.Fatalf("tape stats %+v, want 2 ANDs of which 1 half = 3 ciphertexts", st)
	}
	if want := 16 * int(st.Ciphertexts()); total != want || sched.TableBytes() != int64(want) {
		t.Fatalf("a full and a half AND yield %d step bytes, %d schedule bytes, want %d", total, sched.TableBytes(), want)
	}
	if lv := &sched.Levels[0]; lv.ANDs != 2 || lv.Halves != 1 || lv.TableBytes() != 48 {
		t.Fatalf("level %+v, want 2 ANDs, 1 half, 48 bytes", lv)
	}
	if ands, _ := sched.LevelGates(&sched.Levels[0]); ands[0].Op != AND || ands[1].Op != HalfAND {
		t.Fatalf("level gates %+v, want the full AND before the half AND", ands)
	}
}

// TestScheduleRefusesHalfANDOffInput: colour = value is arranged for
// evaluator-input wires alone, so a hand-built tape whose half AND names
// anything else in slot B must not compile.
func TestScheduleRefusesHalfANDOffInput(t *testing.T) {
	for name, gate := range map[string]func(g, e []uint32, x uint32) Gate{
		"garbler input": func(g, e []uint32, x uint32) Gate { return Gate{Op: HalfAND, A: e[0], B: g[0], Out: 40} },
		"gate output":   func(g, e []uint32, x uint32) Gate { return Gate{Op: HalfAND, A: g[0], B: x, Out: 40} },
		"constant":      func(g, e []uint32, x uint32) Gate { return Gate{Op: HalfAND, A: g[0], B: WTrue, Out: 40} },
		"recycled id":   nil,
	} {
		tape := NewTape()
		b := NewBuilder(tape, WithRecycling())
		g := b.Inputs(Garbler, 2)
		e := b.Inputs(Evaluator, 1)
		x := b.XOR(g[0], e[0])
		bad := Gate{Op: HalfAND, A: g[1], B: e[0], Out: 40}
		if gate != nil {
			bad = gate(g, e, x)
		} else {
			// The evaluator's wire dies and its id comes back as a gate's.
			b.Drop(e[0])
			if y := b.XOR(g[0], g[1]); y != e[0] {
				t.Fatalf("%s: recycling handed out wire %d, want %d", name, y, e[0])
			}
		}
		if err := tape.OnGate(bad); err != nil {
			t.Fatal(err)
		}
		tape.OnOutputs([]uint32{40})
		if _, err := NewSchedule(tape); err == nil {
			t.Errorf("%s: NewSchedule accepted half AND %+v", name, bad)
		}
	}
	// The same shape with the evaluator's wire in B compiles.
	tape := NewTape()
	b := NewBuilder(tape, WithRecycling())
	g := b.Inputs(Garbler, 1)
	e := b.Inputs(Evaluator, 1)
	tape.OnGate(Gate{Op: HalfAND, A: g[0], B: e[0], Out: 40})
	tape.OnOutputs([]uint32{40})
	if _, err := NewSchedule(tape); err != nil {
		t.Errorf("half AND on an evaluator input: %v", err)
	}
}

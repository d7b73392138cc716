package circuit

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// engine's contract as it goes (plainRun.fragment).
func schedPlainEval(t *testing.T, s *Schedule, gb, eb []bool) []bool {
	t.Helper()
	r := newPlainRun(gb, eb)
	r.fragment(t, s)
	return r.out
}

// plainRun executes a schedule, or a stream's fragments in order, on
// plaintext bits, carrying the wires' values and the AND count from one
// fragment to the next.
type plainRun struct {
	vals, have []bool
	evalIn     []bool // holds a raw evaluator input
	gb, eb     []bool // the inputs not consumed yet
	out        []bool
	gid        uint64
}

func newPlainRun(gb, eb []bool) *plainRun {
	return &plainRun{vals: []bool{false, true}, have: []bool{true, true}, evalIn: make([]bool, 2), gb: gb, eb: eb}
}

// fragment executes s, enforcing the engine's contract as it goes: a value
// must be present when read, levels must not read a wire written in the
// same level nor write one twice, drops must not kill values that are
// still needed, a level's half ANDs trail its full ones, and a half AND's B
// still holds what an evaluator input step put there.
func (r *plainRun) fragment(t *testing.T, s *Schedule) {
	t.Helper()
	for n := int(s.NumWires); len(r.vals) < n; {
		r.vals, r.have, r.evalIn = append(r.vals, false), append(r.have, false), append(r.evalIn, false)
	}
	vals, have, evalIn := r.vals, r.have, r.evalIn
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
	gid := r.gid
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			src := &r.gb
			if st.Party == Evaluator {
				src = &r.eb
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
				r.out = append(r.out, read(w, "output step"))
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
	if want := int64(gid - r.gid); want != s.ANDs {
		t.Fatalf("schedule reports %d ANDs, levels carry %d", s.ANDs, want)
	}
	if want := 16 * (2*s.ANDs - s.Halves); s.TableBytes() != want {
		t.Fatalf("schedule reports %d table bytes, want 16 per ciphertext = %d", s.TableBytes(), want)
	}
	r.gid = gid
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

// TestCompileMatchesTape: Compile levels a stream in one pass, recording
// nothing, into the schedule NewSchedule levels from its recording, and
// returns the recording's Digest, whether or not its hint covers the
// stream. A regenerating tape schedules and hashes as the recording does.
func TestCompileMatchesTape(t *testing.T) {
	for it := 0; it < 20; it++ {
		tape, _, _, _ := buildRandomTape(rand.New(rand.NewSource(int64(9000 + it))))
		want, err := NewSchedule(tape)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, err := tape.Digest()
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []Stats{tape.Stats(), {}} {
			s, sum, err := Compile(tape.Replay, hint)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, want) || sum != wantSum {
				t.Fatalf("iter %d, hint %+v: Compile's schedule or digest differs from the recorded tape's", it, hint)
			}
		}
		regen := Regenerate(tape.Replay, tape.Stats())
		s, err := NewSchedule(regen)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := regen.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, want) || sum != wantSum {
			t.Fatalf("iter %d: a regenerating tape's schedule or digest differs from the recording's", it)
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

// TestScheduleBoundsLevelWidth: independent gates fill a level up to
// maxLevelGates and spill into the next level with room, in tape order; a
// gate whose operands are ready earlier still lands in the first level that
// has room; and Check refuses a level wider than the bound.
func TestScheduleBoundsLevelWidth(t *testing.T) {
	tape := NewTape()
	b := NewBuilder(tape, WithRecycling())
	in := b.Inputs(Garbler, 2)
	outs := make([]uint32, 2*maxLevelGates+100)
	for i := range outs {
		outs[i] = b.AND(in[0], in[1])
	}
	outs = append(outs, b.XOR(in[0], in[1]))
	b.Outputs(outs...)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	var widths []int
	for i := range s.Levels {
		widths = append(widths, s.Levels[i].ANDs+s.Levels[i].Frees)
	}
	if want := []int{maxLevelGates, maxLevelGates, 101}; !slices.Equal(widths, want) || s.MaxWidth != maxLevelGates {
		t.Fatalf("level widths %v (max %d), want %v", widths, s.MaxWidth, want)
	}
	if lv := &s.Levels[2]; lv.ANDs != 100 || lv.Frees != 1 {
		t.Fatalf("last level %+v, want the 100 spilt ANDs and the XOR", *lv)
	}

	// Fold the first two levels into one: the gates are independent and no
	// id is reused, so only the width rule stands in the way.
	c := cloneSchedule(s)
	c.Levels[0].ANDs += c.Levels[1].ANDs
	c.Levels[0].Drops = append(c.Levels[0].Drops, c.Levels[1].Drops...)
	c.Levels = slices.Delete(c.Levels, 1, 2)
	c.Levels[1].GIDBase = uint64(c.Levels[0].ANDs)
	c.Steps[1].N--
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("Check of a level of %d gates: %v, want it refused as too wide", c.Levels[0].ANDs, err)
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

// tapeFromBytes decodes fuzz input into a tape, four bytes per event: an
// opcode byte, then bytes that name a wire the tape has defined and not
// dropped (operands; drops, which name a dead wire when the byte points
// past them) or, for gate outputs and input wires, one of 24 wires that is
// not live — or any of them, live or not, for a byte from 240 on, which
// the scheduler refuses to overwrite. Most decoded tapes compile; a half AND
// whose B is not an evaluator input does not.
func tapeFromBytes(data []byte) *Tape {
	tape := NewTape()
	live := []uint32{WFalse, WTrue}
	operand := func(b byte) uint32 {
		if len(live) == 0 { // the tape dropped even the constants
			return uint32(b % 24)
		}
		return live[int(b)%len(live)]
	}
	define := func(b byte) uint32 {
		var dead []uint32
		for w := uint32(0); w < 24 && b < 240; w++ {
			if !slices.Contains(live, w) {
				dead = append(dead, w)
			}
		}
		w := uint32(b % 24)
		if len(dead) > 0 {
			w = dead[int(b)%len(dead)]
		}
		if !slices.Contains(live, w) {
			live = append(live, w)
		}
		return w
	}
	for ; len(data) >= 4; data = data[4:] {
		n := 1 + int(data[0]/8%3)
		switch data[0] % 8 {
		case 0, 1, 3:
			op := map[byte]Op{0: XOR, 1: AND, 3: HalfAND}[data[0]%8]
			tape.OnGate(Gate{Op: op, A: operand(data[1]), B: operand(data[2]), Out: define(data[3])})
		case 2:
			tape.OnGate(Gate{Op: INV, A: operand(data[1]), Out: define(data[3])})
		case 4, 5:
			ws := make([]uint32, n)
			for i := range ws {
				ws[i] = define(data[1+i])
			}
			tape.OnInputs(map[byte]Party{4: Garbler, 5: Evaluator}[data[0]%8], ws)
		case 6:
			tape.OnOutputs([]uint32{operand(data[1]), operand(data[2]), operand(data[3])}[:n])
		case 7:
			if i := int(data[1]) % (len(live) + 2); i < len(live) {
				tape.OnDrop(live[i])
				live = slices.Delete(live, i, i+1)
			} else {
				tape.OnDrop(uint32(data[2] % 24))
			}
		}
	}
	return tape
}

// FuzzScheduleCheck: whenever the scheduler accepts a tape, in one
// schedule or in fragments of a window of 1 to 31 gates, each fragment it
// hands off passes the checker carried from the fragments before it — the
// check NewSchedule and Stream run is never what refuses a tape — and the
// fragments compute what the tape computes.
func FuzzScheduleCheck(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{4 + 16, 2, 3, 4, 5 + 8, 5, 6, 7, 1, 2, 3, 8, 3, 2, 5, 9, 7, 2, 0, 0, 0, 8, 9, 10, 6 + 8, 10, 9, 0})
	f.Add(uint8(0), []byte{4 + 16, 2, 3, 4, 1, 2, 3, 5, 7, 5, 0, 0, 0, 2, 4, 5, 7, 2, 0, 0, 2, 3, 0, 2, 4 + 8, 6, 7, 0, 1, 6, 7, 2, 6, 2, 5, 0})
	f.Add(uint8(1), []byte{4 + 16, 2, 3, 4, 5 + 8, 5, 6, 7, 1, 2, 3, 8, 3, 2, 5, 9, 7, 2, 0, 0, 0, 8, 9, 10, 6 + 8, 10, 9, 0})
	f.Add(uint8(2), []byte{4 + 16, 2, 3, 4, 1, 2, 3, 5, 7, 5, 0, 0, 0, 2, 4, 5, 7, 2, 0, 0, 2, 3, 0, 2, 4 + 8, 6, 7, 0, 1, 6, 7, 2, 6, 2, 5, 0})
	f.Add(uint8(1), []byte(",000000070000100")) // a value carried over a hand-off and read after it
	f.Fuzz(func(t *testing.T, window uint8, data []byte) {
		tape := tapeFromBytes(data)
		st := tape.Stats()
		r := rand.New(rand.NewSource(int64(len(data))))
		gb, eb := randomBits(r, int(st.GarblerInputs)), randomBits(r, int(st.EvaluatorInputs))
		ck, run := newChecker(), newPlainRun(gb, eb)
		sc := newScheduler(int(window%32), func(s *Schedule) error {
			if err := ck.check(s); err != nil {
				t.Fatalf("the check refuses what the scheduler built: %v\n%v", err, s)
			}
			run.fragment(t, s)
			return nil
		})
		if err := tape.Replay(sc); err != nil {
			return
		}
		if err := sc.handOff(); err != nil {
			t.Fatal(err)
		}
		want := tapePlainEval(t, tape, gb, eb)
		if len(run.out) != len(want) {
			t.Fatalf("%d outputs, the tape computes %d", len(run.out), len(want))
		}
		for i := range want {
			if run.out[i] != want[i] {
				t.Fatalf("output %d = %v, the tape computes %v", i, run.out[i], want[i])
			}
		}
	})
}

// TestStreamHandsOffEveryWindow pins the cut: with a window of W, a
// fragment is handed off whenever W gates have arrived since the last, and
// its open level run closes there. AND indices and wire ids carry across
// fragments: a value defined in the first fragment and read in the second
// and third keeps its wire id, and the id of one dropped in the second is
// reused there.
func TestStreamHandsOffEveryWindow(t *testing.T) {
	and := func(a, b, out uint32) Gate { return Gate{Op: AND, A: a, B: b, Out: out} }
	x := func(a, b, out uint32) Gate { return Gate{Op: XOR, A: a, B: b, Out: out} }
	drop := func(w uint32) Gate { return Gate{Op: 255, Out: w} }
	var frags []*Schedule
	err := Stream(2, func(s Sink) error {
		if err := s.OnInputs(Garbler, []uint32{2, 3, 4}); err != nil {
			return err
		}
		for _, g := range []Gate{
			and(2, 3, 10), and(3, 4, 11), // the first fragment
			x(2, 3, 12), drop(11), and(10, 4, 13), // the second: 11 dies, 10 is read
			x(10, 13, 14), // the third: 10 again, and 13
		} {
			var err error
			if g.Op == 255 {
				err = s.OnDrop(g.Out)
			} else {
				err = s.OnGate(g)
			}
			if err != nil {
				return err
			}
		}
		return s.OnOutputs([]uint32{14, 12})
	}, func(s *Schedule) error {
		frags = append(frags, cloneSchedule(s))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("%d fragments, want 3 (a window of 2 over 5 gates)", len(frags))
	}
	var gid uint64
	var wires uint32
	for i, s := range frags {
		if n := len(s.Gates); n != min(2, 5-2*i) {
			t.Fatalf("fragment %d holds %d gates", i, n)
		}
		runs := 0
		for _, st := range s.Steps {
			if st.Kind == StepLevels && st.N > 0 {
				runs++
			}
		}
		if runs != 1 || len(s.Levels) != 1 {
			t.Fatalf("fragment %d holds %d level runs of %d levels, want its own one of one", i, runs, len(s.Levels))
		}
		if lv := &s.Levels[0]; lv.GIDBase != gid {
			t.Fatalf("fragment %d numbers its ANDs from %d, want %d", i, lv.GIDBase, gid)
		}
		gid += uint64(s.ANDs)
		if s.NumWires < wires {
			t.Fatalf("fragment %d has %d wires, fewer than the %d before it", i, s.NumWires, wires)
		}
		wires = s.NumWires
	}
	// A level holds its full ANDs before its free gates.
	w10, w11 := frags[0].Gates[0].Out, frags[0].Gates[1].Out
	and13, x12 := frags[1].Gates[0], frags[1].Gates[1]
	if and13.A != w10 || and13.Out != w11 || !slices.Equal(frags[1].Steps[0].PreDrops, []uint32{w11}) {
		t.Fatalf("the second fragment's AND %+v after pre-drops %v; want it to read %d and write the freed %d",
			and13, frags[1].Steps[0].PreDrops, w10, w11)
	}
	x14 := frags[2].Gates[0]
	if x14.A != w10 || x14.B != and13.Out {
		t.Fatalf("the third fragment's XOR %+v, want it to read %d and %d", x14, w10, and13.Out)
	}
	if out := frags[2].Steps[len(frags[2].Steps)-1]; out.Kind != StepOutputs || !slices.Equal(out.Wires, []uint32{x14.Out, x12.Out}) {
		t.Fatalf("output step %+v, want wires %d and %d", out, x14.Out, x12.Out)
	}
}

// cloneSchedule copies s deep enough that editing the copy's steps, levels,
// gates or wire lists leaves s alone.
func cloneSchedule(s *Schedule) *Schedule {
	c := *s
	c.Gates = append([]Gate(nil), s.Gates...)
	c.Steps = append([]Step(nil), s.Steps...)
	for i := range c.Steps {
		c.Steps[i].Wires = append([]uint32(nil), c.Steps[i].Wires...)
		c.Steps[i].PreDrops = append([]uint32(nil), c.Steps[i].PreDrops...)
	}
	c.Levels = append([]Level(nil), s.Levels...)
	for i := range c.Levels {
		c.Levels[i].Drops = append([]uint32(nil), c.Levels[i].Drops...)
	}
	return &c
}

// liveBeforeLevels replays a checked schedule and returns, per level, which
// wires are live when it starts.
func liveBeforeLevels(s *Schedule) [][]bool {
	live := make([]bool, s.NumWires)
	live[WFalse], live[WTrue] = true, true
	var before [][]bool
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			for _, w := range st.Wires {
				live[w] = true
			}
		case StepLevels:
			for _, w := range st.PreDrops {
				live[w] = false
			}
			for li := st.First; li < st.First+st.N; li++ {
				before = append(before, append([]bool(nil), live...))
				lv := &s.Levels[li]
				ands, frees := s.LevelGates(lv)
				for _, g := range append(append([]Gate{}, ands...), frees...) {
					live[g.Out] = true
				}
				for _, w := range lv.Drops {
					live[w] = false
				}
			}
		}
	}
	return before
}

// definedAfter reports whether wire w is written again — by an input step
// or a gate — after level li.
func definedAfter(s *Schedule, li int, w uint32) bool {
	passed := false
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			if passed && slices.Contains(st.Wires, w) {
				return true
			}
		case StepLevels:
			for lj := st.First; lj < st.First+st.N; lj++ {
				lv := &s.Levels[lj]
				gates := s.Gates[lv.Off : lv.Off+lv.ANDs+lv.Frees]
				if passed && slices.ContainsFunc(gates, func(g Gate) bool { return g.Out == w }) {
					return true
				}
				passed = passed || lj == li
			}
		}
	}
	return false
}

// TestCheckRefusesDoctoredSchedules: a schedule NewSchedule built passes
// Check, and one edit to it — an operand pointing at a dead wire, an output
// at a live one or past NumWires, a drop taken out or doubled, a half AND
// moved before a full AND — is refused.
func TestCheckRefusesDoctoredSchedules(t *testing.T) {
	edits := []struct {
		name string
		// doctor edits c, a copy of s, and reports whether s had a place
		// for the edit.
		doctor func(s, c *Schedule, live [][]bool, r *rand.Rand) bool
	}{
		{"operand reads a dead wire", func(s, c *Schedule, live [][]bool, r *rand.Rand) bool {
			for li := range s.Levels {
				lv := &s.Levels[li]
				for w := uint32(0); w < s.NumWires && lv.ANDs+lv.Frees > 0; w++ {
					if !live[li][w] {
						c.Gates[lv.Off+r.Intn(lv.ANDs+lv.Frees)].A = w
						return true
					}
				}
			}
			return false
		}},
		{"output writes a live wire", func(s, c *Schedule, live [][]bool, r *rand.Rand) bool {
			lv := &s.Levels[len(s.Levels)/2]
			if lv.ANDs+lv.Frees == 0 {
				return false
			}
			c.Gates[lv.Off+r.Intn(lv.ANDs+lv.Frees)].Out = s.Gates[lv.Off].A
			return true
		}},
		{"output past NumWires", func(s, c *Schedule, _ [][]bool, r *rand.Rand) bool {
			c.Gates[r.Intn(len(s.Gates))].Out = s.NumWires
			return true
		}},
		{"drop taken out", func(s, c *Schedule, _ [][]bool, r *rand.Rand) bool {
			for li := range s.Levels {
				for i, w := range s.Levels[li].Drops {
					if definedAfter(s, li, w) {
						c.Levels[li].Drops = slices.Delete(c.Levels[li].Drops, i, i+1)
						return true
					}
				}
			}
			return false
		}},
		{"drop doubled", func(s, c *Schedule, _ [][]bool, r *rand.Rand) bool {
			for li := range s.Levels {
				if d := s.Levels[li].Drops; len(d) > 0 {
					c.Levels[li].Drops = append(c.Levels[li].Drops, d[r.Intn(len(d))])
					return true
				}
			}
			return false
		}},
		{"half AND before a full AND", func(s, c *Schedule, _ [][]bool, r *rand.Rand) bool {
			for li := range s.Levels {
				if lv := &s.Levels[li]; lv.Halves > 0 && lv.ANDs > lv.Halves {
					full, half := lv.Off+r.Intn(lv.ANDs-lv.Halves), lv.Off+lv.ANDs-1-r.Intn(lv.Halves)
					c.Gates[full], c.Gates[half] = c.Gates[half], c.Gates[full]
					return true
				}
			}
			return false
		}},
	}
	applied := make([]int, len(edits))
	for it := 0; it < 40; it++ {
		r := rand.New(rand.NewSource(int64(9100 + it)))
		tape, _, _, _ := buildRandomTape(r)
		s, err := NewSchedule(tape)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		live := liveBeforeLevels(s)
		for i, e := range edits {
			c := cloneSchedule(s)
			if !e.doctor(s, c, live, r) {
				continue
			}
			applied[i]++
			if err := c.Check(); err == nil {
				t.Fatalf("iter %d: Check accepted the schedule with %s", it, e.name)
			}
			if err := s.Check(); err != nil {
				t.Fatalf("iter %d: editing a copy (%s) broke the original: %v", it, e.name, err)
			}
		}
	}
	for i, e := range edits {
		if applied[i] < 5 {
			t.Errorf("%s: applied to %d of 40 random schedules, want at least 5", e.name, applied[i])
		}
	}
}

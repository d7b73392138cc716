package bank

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
)

// testTape builds a small but non-trivial recycled netlist: two input
// batches (both parties), a mix of gate kinds across several levels, and
// drops — enough to exercise multi-step schedules with PreDrops.
func testTape(t *testing.T, seed int64) (*circuit.Tape, int, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	var live []uint32
	add := func(w uint32) {
		if w != circuit.WFalse && w != circuit.WTrue {
			live = append(live, w)
		}
	}
	nG, nE := 4, 3
	for _, w := range b.Inputs(circuit.Garbler, nG) {
		add(w)
	}
	for _, w := range b.Inputs(circuit.Evaluator, nE) {
		add(w)
	}
	pick := func() uint32 { return live[r.Intn(len(live))] }
	for i := 0; i < 80; i++ {
		switch r.Intn(4) {
		case 0:
			add(b.XOR(pick(), pick()))
		case 1, 2:
			add(b.AND(pick(), pick()))
		default:
			add(b.INV(pick()))
		}
	}
	b.Outputs(live[len(live)-4], live[len(live)-3], live[len(live)-2], live[len(live)-1])
	return tape, nG, nE
}

func testSchedule(t *testing.T, seed int64) *circuit.Schedule {
	t.Helper()
	tape, _, _ := testTape(t, seed)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// plainEval replays the tape in plaintext — the reference the garbled
// evaluation of a banked execution must match.
type plainEval struct {
	vals map[uint32]bool
	gb   []bool
	eb   []bool
	out  []bool
}

func (s *plainEval) OnInputs(p circuit.Party, ws []uint32) error {
	src := &s.gb
	if p == circuit.Evaluator {
		src = &s.eb
	}
	for _, w := range ws {
		s.vals[w] = (*src)[0]
		*src = (*src)[1:]
	}
	return nil
}

func (s *plainEval) OnGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.XOR:
		s.vals[g.Out] = s.vals[g.A] != s.vals[g.B]
	case circuit.AND, circuit.HalfAND:
		s.vals[g.Out] = s.vals[g.A] && s.vals[g.B]
	case circuit.INV:
		s.vals[g.Out] = !s.vals[g.A]
	}
	return nil
}

func (s *plainEval) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		s.out = append(s.out, s.vals[w])
	}
	return nil
}

func (s *plainEval) OnDrop(w uint32) error { return nil }

// take is TakeN(1): the oldest banked execution, or nil on a miss.
func take(t *testing.T, b *Bank) *Execution {
	t.Helper()
	exs := b.TakeN(1, b.Metrics())
	if exs == nil {
		return nil
	}
	return exs[0]
}

// evalExecution runs a banked execution through the per-gate reference
// gc.Evaluator in schedule order (its internal AND counter then lands on
// every level's GIDBase), selecting input labels from the banked
// zero-labels and the given bits, and decodes the outputs against
// outZero — proving the banked material is a complete, valid garbling.
func evalExecution(t *testing.T, sched *circuit.Schedule, ex *Execution, gBits, eBits []bool) []bool {
	t.Helper()
	e := gc.NewEvaluator()
	e.SetLabel(circuit.WFalse, gc.Label(ex.consts[:gc.LabelSize]))
	e.SetLabel(circuit.WTrue, gc.Label(ex.consts[gc.LabelSize:]))
	zs, tables := ex.inZero, ex.tables
	gCur, eCur := gBits, eBits
	var outs []bool
	for si := range sched.Steps {
		st := &sched.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			bits := &gCur
			if st.Party == circuit.Evaluator {
				bits = &eCur
			}
			for _, w := range st.Wires {
				l := zs[0]
				zs = zs[1:]
				if (*bits)[0] {
					l = l.XOR(ex.r)
				}
				*bits = (*bits)[1:]
				e.SetLabel(w, l)
			}
		case circuit.StepOutputs:
			for oi, w := range st.Wires {
				l, err := e.Label(w)
				if err != nil {
					t.Fatal(err)
				}
				switch l {
				case ex.outZero[len(outs)]:
					outs = append(outs, false)
				case ex.outZero[len(outs)].XOR(ex.r):
					outs = append(outs, true)
				default:
					t.Fatalf("output %d label failed authentication", oi)
				}
			}
		case circuit.StepLevels:
			for li := st.First; li < st.First+st.N; li++ {
				ands, frees := sched.LevelGates(&sched.Levels[li])
				for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
					var err error
					if tables, err = e.Eval(gate, tables); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if len(tables) != 0 {
		t.Fatalf("%d table bytes left unevaluated", len(tables))
	}
	return outs
}

// TestBankExecutionCorrectness: a banked execution evaluates to the
// plaintext reference for random inputs — the garble-ahead walk produces
// a complete, correct garbling.
func TestBankExecutionCorrectness(t *testing.T) {
	tape, nG, nE := testTape(t, 41)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	b := New(sched, rand.New(rand.NewSource(7)), gc.NewPool(1), Config{Depth: 2})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for k := 0; k < 2; k++ {
		gBits := make([]bool, nG)
		eBits := make([]bool, nE)
		for i := range gBits {
			gBits[i] = r.Intn(2) == 1
		}
		for i := range eBits {
			eBits[i] = r.Intn(2) == 1
		}
		ref := &plainEval{vals: map[uint32]bool{circuit.WFalse: false, circuit.WTrue: true},
			gb: append([]bool{}, gBits...), eb: append([]bool{}, eBits...)}
		if err := tape.Replay(ref); err != nil {
			t.Fatal(err)
		}
		ex := take(t, b)
		if ex == nil {
			t.Fatal("bank empty after fill")
		}
		got := evalExecution(t, sched, ex, gBits, eBits)
		for i := range ref.out {
			if got[i] != ref.out[i] {
				t.Fatalf("infer %d output %d: garbled %v, plaintext %v", k, i, got[i], ref.out[i])
			}
		}
		ex.Release()
	}
}

// TestBankDeterminism: two banks over the same schedule with identically
// seeded rngs garble byte-identical executions — the conformance property
// core relies on (a banked stream equals live garbling from the same rng
// state).
func TestBankDeterminism(t *testing.T) {
	sched := testSchedule(t, 42)
	b1 := New(sched, rand.New(rand.NewSource(5)), gc.NewPool(1), Config{Depth: 3})
	b2 := New(sched, rand.New(rand.NewSource(5)), gc.NewPool(4), Config{Depth: 3})
	if err := b1.Fill(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Fill(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		x1, x2 := take(t, b1), take(t, b2)
		if x1.r != x2.r || !bytes.Equal(x1.consts, x2.consts) {
			t.Fatalf("exec %d: deltas/const labels differ across workers", k)
		}
		if !bytes.Equal(x1.tables, x2.tables) {
			t.Fatalf("exec %d: table bytes differ between workers=1 and workers=4", k)
		}
		for i := range x1.outZero {
			if x1.outZero[i] != x2.outZero[i] {
				t.Fatalf("exec %d: output zero-label %d differs", k, i)
			}
		}
	}
}

// TestBankSingleUse: sequence numbers are strictly monotone, a taken
// execution is gone for good, and Release zeroes the secret stream
// material (tables, input labels) while keeping what output
// authentication needs.
func TestBankSingleUse(t *testing.T) {
	sched := testSchedule(t, 43)
	b := New(sched, rand.New(rand.NewSource(11)), gc.NewPool(1), Config{Depth: 3})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for k := 0; k < 3; k++ {
		ex := take(t, b)
		if ex.Seq() <= last {
			t.Fatalf("take %d: seq %d not after %d", k, ex.Seq(), last)
		}
		last = ex.Seq()
		if b.Seq() != ex.Seq()+1 {
			t.Fatalf("bank seq %d after consuming %d", b.Seq(), ex.Seq())
		}
		tabs := ex.tables
		ex.Release()
		if ex.tables != nil || ex.inZero != nil {
			t.Fatal("Release kept stream material")
		}
		for _, c := range tabs {
			if c != 0 {
				t.Fatal("Release left table bytes unzeroed")
			}
		}
		if len(ex.outZero) == 0 {
			t.Fatal("Release dropped output zero-labels")
		}
	}
	// Drained: the next take is a miss, not a block and not a reuse.
	if ex := take(t, b); ex != nil {
		t.Fatalf("empty bank take = %v, want a miss", ex)
	}
	m := b.Metrics()
	if h, mi, bk := m.BankHits.Value(), m.BankMisses.Value(), m.BankRefills.Value(); h != 3 || mi != 1 || bk != 3 {
		t.Fatalf("ledger = %d hits / %d misses / %d banked, want 3 / 1 / 3", h, mi, bk)
	}
}

// TestBankTakeN: all-or-nothing — a bank holding fewer than n executions
// takes none of them and the available ones remain consumable.
func TestBankTakeN(t *testing.T) {
	sched := testSchedule(t, 44)
	b := New(sched, rand.New(rand.NewSource(13)), gc.NewPool(1), Config{Depth: 2})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	if exs := b.TakeN(3, b.Metrics()); exs != nil {
		t.Fatalf("TakeN(3) on depth-2 bank = %v, want miss", exs)
	}
	exs := b.TakeN(2, b.Metrics())
	if len(exs) != 2 {
		t.Fatalf("TakeN(2) = %v", exs)
	}
	if exs[0].Seq() != 0 || exs[1].Seq() != 1 {
		t.Fatalf("TakeN seqs %d,%d, want 0,1", exs[0].Seq(), exs[1].Seq())
	}
	if b.Available() != 0 {
		t.Fatalf("%d executions left after TakeN(2)", b.Available())
	}
	// A miss is counted in samples, like a hit: the three the short bank
	// could not serve.
	if m := b.Metrics(); m.BankMisses.Value() != 3 || m.BankHits.Value() != 2 {
		t.Fatalf("ledger = %d misses / %d hits, want 3 / 2", m.BankMisses.Value(), m.BankHits.Value())
	}
}

// TestBankBackgroundRefill: a take that leaves the bank below low water
// (Depth/4) regenerates it to depth on the helper goroutine.
func TestBankBackgroundRefill(t *testing.T) {
	sched := testSchedule(t, 46)
	// crand-style concurrency-safe rng not needed: refills serialize on
	// fillMu and the foreground never garbles in this test.
	b := New(sched, rand.New(rand.NewSource(19)), gc.NewPool(1), Config{Depth: 4, Background: true})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if take(t, b) == nil {
			t.Fatalf("take %d missed", k)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Available() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("background refill never restored depth (available=%d)", b.Available())
		}
		time.Sleep(time.Millisecond)
	}
	if n := b.Metrics().BankFills.Value(); n < 2 {
		t.Fatalf("%d fill round(s), want the initial fill plus a background refill", n)
	}
	b.Close()
	if take(t, b) != nil {
		t.Fatal("closed bank still serving executions")
	}
}

// TestEvaluatorZeroLabelsHaveColourZero pins the convention half ANDs rest
// on, where the labels are made: every zero-label a source hands out for an
// evaluator input step — what the engine passes to the OT pool's SendStep —
// has permute bit 0, so the active label's colour is the evaluator's own
// bit. It holds for the live source and, since a fill records one, for
// banked executions; garbler steps keep a free permute bit.
func TestEvaluatorZeroLabelsHaveColourZero(t *testing.T) {
	sched := testSchedule(t, 47)
	for _, b := range []int{1, 16} {
		live, err := NewLive(rand.New(rand.NewSource(23)), b, sched, gc.NewPool(1))
		if err != nil {
			t.Fatal(err)
		}
		bk := New(sched, rand.New(rand.NewSource(29)), gc.NewPool(1), Config{Depth: b})
		if err := bk.Fill(); err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]Source{"live": live, "banked": Banked(sched, bk.TakeN(b, bk.Metrics()))} {
			checked, garblerOnes := 0, 0
			for si := range sched.Steps {
				st := &sched.Steps[si]
				if st.Kind != circuit.StepInputs {
					continue
				}
				if err := src.Inputs(st); err != nil {
					t.Fatal(err)
				}
				for i := range st.Wires {
					for s := 0; s < b; s++ {
						z, err := src.Zero(i, s)
						if err != nil {
							t.Fatal(err)
						}
						switch {
						case st.Party == circuit.Evaluator && z.LSB():
							t.Fatalf("%s B=%d: evaluator step %d wire %d sample %d has a zero-label of colour 1", name, b, si, i, s)
						case st.Party == circuit.Evaluator:
							checked++
						case z.LSB():
							garblerOnes++
						}
					}
				}
			}
			if checked != 3*b {
				t.Fatalf("%s B=%d: checked %d evaluator zero-labels, want %d", name, b, checked, 3*b)
			}
			if b == 16 && garblerOnes == 0 {
				t.Errorf("%s: all 64 garbler zero-labels have colour 0 too: the clearing is not party-specific", name)
			}
		}
	}
}

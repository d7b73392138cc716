package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

// vecTestLevels is a tiny two-level circuit over input wires 2..5, wire 5
// the evaluator's (vecAssign): level 0: AND(2,3)→6, HalfAND(4,5)→10,
// XOR(4,5)→7; level 1: AND(6,7)→8, HalfAND(6,5)→11, INV(6)→9.
type vecTestLevel struct {
	ands, frees []circuit.Gate
	gidBase     uint64
}

const vecTestWires = 12

func vecTestLevels() []vecTestLevel {
	return []vecTestLevel{
		{
			ands: []circuit.Gate{
				{Op: circuit.AND, A: 2, B: 3, Out: 6},
				{Op: circuit.HalfAND, A: 4, B: 5, Out: 10},
			},
			frees:   []circuit.Gate{{Op: circuit.XOR, A: 4, B: 5, Out: 7}},
			gidBase: 0,
		},
		{
			ands: []circuit.Gate{
				{Op: circuit.AND, A: 6, B: 7, Out: 8},
				{Op: circuit.HalfAND, A: 6, B: 5, Out: 11},
			},
			frees:   []circuit.Gate{{Op: circuit.INV, A: 6, Out: 9}},
			gidBase: 2,
		},
	}
}

// vecAssign assigns vecTestLevels' input wires through assign
// (assignSingle / assignBatch).
func vecAssign(t *testing.T, assign func(w uint32, evaluator bool) error) {
	t.Helper()
	for w := uint32(2); w <= 5; w++ {
		if err := assign(w, w == 5); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchGarblerB1MatchesSingle pins the level kernel's B=1 output to
// the per-gate face Garbler: same seed, same schedule, identical
// rng draws, table bytes and zero-labels on every wire, across dependent
// levels.
func TestBatchGarblerB1MatchesSingle(t *testing.T) {
	const seed = 4401
	levels := vecTestLevels()

	g, err := NewGarbler(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewBatchGarbler(rand.New(rand.NewSource(seed)), 1)
	if err != nil {
		t.Fatal(err)
	}
	bg.Grow(vecTestWires)
	// Interleaved, so both draw wire by wire from identical rng streams.
	vecAssign(t, assignSingle(g))
	vecAssign(t, assignBatch(bg))

	pool := NewPool(1)
	for li, lv := range levels {
		// The per-gate garbler's internal AND counter runs level by
		// level, so it lands on each level's gidBase.
		var single []byte
		for _, gate := range append(append([]circuit.Gate{}, lv.ands...), lv.frees...) {
			if single, err = g.Garble(gate, single); err != nil {
				t.Fatalf("level %d single: %v", li, err)
			}
		}
		batched := make([]byte, packedBytes(lv.ands, 1))
		if len(batched) != TableSize+LabelSize {
			t.Fatalf("level %d packs to %d bytes, want a full and a half table", li, len(batched))
		}
		if err := bg.GarbleLevel(lv.ands, lv.frees, lv.gidBase, batched, pool); err != nil {
			t.Fatalf("level %d batched: %v", li, err)
		}
		if !bytes.Equal(single, batched) {
			t.Fatalf("level %d: B=1 tables differ from the per-gate face", li)
		}
	}
	for w := uint32(0); w < vecTestWires; w++ {
		sl, err := g.ZeroLabel(w)
		if err != nil {
			t.Fatalf("wire %d single: %v", w, err)
		}
		bl, err := bg.ZeroLabel(w, 0)
		if err != nil {
			t.Fatalf("wire %d batched: %v", w, err)
		}
		if sl != bl {
			t.Fatalf("wire %d: B=1 batched zero-label differs from the per-gate face", w)
		}
	}
	if g.R != bg.R[0] {
		t.Fatal("B=1 batched delta differs from the per-gate face")
	}
	// The const-label payload is the per-gate garbler's two const labels.
	lf, lt, err := g.ConstLabels()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := bg.AppendConstLabels(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, lf[:]...), lt[:]...); !bytes.Equal(payload, want) {
		t.Fatal("B=1 const-label payload differs from the per-gate face")
	}
}

// TestAssignInputsOneRead pins that drawing an input step's labels in one
// rng read changes no label: from one math/rand seed, AssignInputs over a
// step and a per-wire draw of each of its wires give the same zero-labels
// (permute bit 0 on an evaluator step's) and leave the rng at the same
// place.
func TestAssignInputsOneRead(t *testing.T) {
	ws := []uint32{7, 2, 11, 3, 5}
	for _, b := range []int{1, 3, 16} {
		for _, evaluator := range []bool{false, true} {
			one, err := NewBatchGarbler(rand.New(rand.NewSource(61)), b)
			if err != nil {
				t.Fatal(err)
			}
			each, err := NewBatchGarbler(rand.New(rand.NewSource(61)), b)
			if err != nil {
				t.Fatal(err)
			}
			one.Grow(vecTestWires)
			each.Grow(vecTestWires)
			if err := one.AssignInputs(ws, evaluator); err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				if err := each.AssignInputs([]uint32{w}, evaluator); err != nil {
					t.Fatal(err)
				}
			}
			// One more wire each: the two rngs must still be in step.
			for _, g := range []*BatchGarbler{one, each} {
				if err := g.AssignInput(4); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range append(ws, 4) {
				for s := 0; s < b; s++ {
					l1, err1 := one.ZeroLabel(w, s)
					l2, err2 := each.ZeroLabel(w, s)
					if err1 != nil || err2 != nil || l1 != l2 {
						t.Fatalf("B=%d evaluator=%v wire %d sample %d: one read %x (%v), per wire %x (%v)", b, evaluator, w, s, l1, err1, l2, err2)
					}
					if evaluator && w != 4 && l1[0]&1 != 0 {
						t.Fatalf("B=%d wire %d sample %d: evaluator zero-label has permute bit 1", b, w, s)
					}
				}
			}
		}
	}
}

// TestBatchGarbleEvaluateCorrectness round-trips a B=3 batch through
// GarbleLevel and EvaluateLevel with per-sample input bits, checking
// every sample's output labels decode to the plaintext circuit — and
// that the table bytes are identical for 1 and 4 workers (the batch
// engine's determinism contract).
func TestBatchGarbleEvaluateCorrectness(t *testing.T) {
	const b = 3
	const seed = 4402
	levels := vecTestLevels()
	rng := rand.New(rand.NewSource(seed))
	bits := make(map[uint32][b]bool)
	for w := uint32(2); w <= 5; w++ {
		var v [b]bool
		for s := range v {
			v[s] = rng.Intn(2) == 1
		}
		bits[w] = v
	}

	garble := func(workers int) (*BatchGarbler, [][]byte) {
		bg, err := NewBatchGarbler(rand.New(rand.NewSource(seed)), b)
		if err != nil {
			t.Fatal(err)
		}
		bg.Grow(vecTestWires)
		vecAssign(t, assignBatch(bg))
		pool := NewPool(workers)
		var tables [][]byte
		for li, lv := range levels {
			tab := make([]byte, packedBytes(lv.ands, b))
			if err := bg.GarbleLevel(lv.ands, lv.frees, lv.gidBase, tab, pool); err != nil {
				t.Fatalf("workers=%d level %d: %v", workers, li, err)
			}
			tables = append(tables, tab)
		}
		return bg, tables
	}

	bg, tables := garble(1)
	_, tables4 := garble(4)
	for li := range tables {
		if !bytes.Equal(tables[li], tables4[li]) {
			t.Fatalf("level %d: tables differ between 1 and 4 workers", li)
		}
	}
	if bg.ANDGates != 4*b || bg.FreeGates != 2*b {
		t.Fatalf("gate-instance counters = %d AND / %d free, want %d / %d",
			bg.ANDGates, bg.FreeGates, 4*b, 2*b)
	}

	ev, err := NewBatchEvaluator(b)
	if err != nil {
		t.Fatal(err)
	}
	ev.Grow(vecTestWires)
	for s := 0; s < b; s++ {
		lf, err := bg.ActiveLabel(circuit.WFalse, s, false)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := bg.ActiveLabel(circuit.WTrue, s, true)
		if err != nil {
			t.Fatal(err)
		}
		ev.SetLabel(circuit.WFalse, s, lf)
		ev.SetLabel(circuit.WTrue, s, lt)
		for w := uint32(2); w <= 5; w++ {
			l, err := bg.ActiveLabel(w, s, bits[w][s])
			if err != nil {
				t.Fatal(err)
			}
			ev.SetLabel(w, s, l)
		}
	}
	pool := NewPool(2)
	for li, lv := range levels {
		if err := ev.EvaluateLevel(lv.ands, lv.frees, lv.gidBase, tables[li], pool); err != nil {
			t.Fatalf("evaluate level %d: %v", li, err)
		}
	}

	for s := 0; s < b; s++ {
		and1 := bits[2][s] && bits[3][s]
		xor1 := bits[4][s] != bits[5][s]
		want := map[uint32]bool{
			6:  and1,
			7:  xor1,
			8:  and1 && xor1,
			9:  !and1, // INV carries the label; semantics flip at decode
			10: bits[4][s] && bits[5][s],
			11: and1 && bits[5][s],
		}
		for w, wb := range want {
			got, err := ev.Label(w, s)
			if err != nil {
				t.Fatalf("sample %d wire %d: %v", s, w, err)
			}
			zero, err := bg.ZeroLabel(w, s)
			if err != nil {
				t.Fatal(err)
			}
			// The INV output's evaluator label equals its input's; the
			// garbler's zero-label for the wire is input-zero ⊕ R, so the
			// decode below already accounts for the flip.
			var bit bool
			switch got {
			case zero:
				bit = false
			case zero.XOR(bg.R[s]):
				bit = true
			default:
				t.Fatalf("sample %d wire %d: label fails authentication", s, w)
			}
			if bit != wb {
				t.Fatalf("sample %d wire %d: decoded %v, want %v", s, w, bit, wb)
			}
		}
	}
}

// TestGarbleLevelSubSlice pins what a caller that splits a level relies on
// (the benchmark's layer pass garbles wide levels in runs of 2^16 gates,
// each into a block sized for full tables): GarbleLevel and EvaluateLevel
// on any contiguous run of a level's AND gates, with gidBase moved along
// and a table longer than the run packs to, find the full/half boundary
// from the gates themselves, write and read the packed front of the table
// and leave the rest alone, and produce the bytes and labels the
// whole-level call does.
func TestGarbleLevelSubSlice(t *testing.T) {
	const b, nAND, gidBase = 2, 30, 100 // 20 full ANDs, then 10 half ANDs
	build := func() (*BatchGarbler, []circuit.Gate, []circuit.Gate) {
		g, err := NewBatchGarbler(rand.New(rand.NewSource(71)), b)
		if err != nil {
			t.Fatal(err)
		}
		ands, frees, maxWire := independentLevel(t, assignBatch(g), rand.New(rand.NewSource(72)), nAND, 8)
		g.Grow(maxWire)
		return g, ands, frees
	}
	pool := NewPool(1)
	whole, ands, frees := build()
	ref := make([]byte, packedBytes(ands, b))
	if err := whole.GarbleLevel(ands, frees, gidBase, ref, pool); err != nil {
		t.Fatal(err)
	}
	nFull := nAND - nAND/3
	fullRegion, halfRegion := ref[:nFull*b*TableSize], ref[nFull*b*TableSize:]

	for _, cut := range []int{0, 7, nFull, nFull + 3, nAND} {
		split, _, _ := build()
		var blocks [2][]byte
		for i, part := range [2][]circuit.Gate{ands[:cut], ands[cut:]} {
			lo, fr := 0, frees
			if i == 1 {
				lo, fr = cut, nil // the free gates went with the first call
			}
			// Sized as if every gate were a full AND, and pre-filled so a
			// write past the packed block shows.
			blocks[i] = bytes.Repeat([]byte{0xee}, len(part)*b*TableSize)
			if err := split.GarbleLevel(part, fr, gidBase+uint64(lo), blocks[i], pool); err != nil {
				t.Fatalf("cut %d part %d: %v", cut, i, err)
			}
			packed := packedBytes(part, b)
			for _, x := range blocks[i][packed:] {
				if x != 0xee {
					t.Fatalf("cut %d part %d: wrote past the packed %d bytes", cut, i, packed)
				}
			}
			full := min(max(nFull-lo, 0), len(part)) * b * TableSize
			wantFull := fullRegion[min(lo, nFull)*b*TableSize:][:full]
			wantHalf := halfRegion[max(lo-nFull, 0)*b*LabelSize:][:packed-full]
			if !bytes.Equal(blocks[i][:full], wantFull) || !bytes.Equal(blocks[i][full:packed], wantHalf) {
				t.Fatalf("cut %d part %d: tables differ from the whole-level call's", cut, i)
			}
		}
		if !labelsEqual(split.labels, whole.labels) {
			t.Fatalf("cut %d: zero-labels differ from the whole-level call's", cut)
		}

		// The evaluator's mirror, on all-zero inputs, over the same blocks.
		evaluate := func(run func(e *BatchEvaluator) error) []Label {
			e, err := NewBatchEvaluator(b)
			if err != nil {
				t.Fatal(err)
			}
			e.Grow(uint32(len(whole.have)))
			for w := uint32(2); w < 18; w++ {
				for s := 0; s < b; s++ {
					z, _ := whole.ZeroLabel(w, s)
					e.SetLabel(w, s, z)
				}
			}
			if err := run(e); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			return e.labels
		}
		want := evaluate(func(e *BatchEvaluator) error { return e.EvaluateLevel(ands, frees, gidBase, ref, pool) })
		got := evaluate(func(e *BatchEvaluator) error {
			if err := e.EvaluateLevel(ands[:cut], frees, gidBase, blocks[0], pool); err != nil {
				return err
			}
			return e.EvaluateLevel(ands[cut:], nil, gidBase+uint64(cut), blocks[1], pool)
		})
		if !labelsEqual(got, want) {
			t.Fatalf("cut %d: evaluated labels differ from the whole-level call's", cut)
		}
	}
}

// TestHalfANDAnyPermuteBit: the half kernel reads B's permute bit off the
// label it is given rather than assuming the 0 the protocol arranges, so
// on a wire assigned party-blind (as the benchmark's layer pass assigns
// every input) it garbles a ∧ (b ⊕ p) on authentic labels — and with p = 0,
// the protocol's case, a ∧ b.
func TestHalfANDAnyPermuteBit(t *testing.T) {
	gate := []circuit.Gate{{Op: circuit.HalfAND, A: 2, B: 3, Out: 4}}
	pool := NewPool(1)
	seen := map[bool]bool{}
	for seed := int64(0); seed < 16; seed++ {
		g, err := NewBatchGarbler(rand.New(rand.NewSource(seed)), 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Grow(5)
		for w := uint32(2); w <= 3; w++ {
			if err := g.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		table := make([]byte, LabelSize)
		if err := g.GarbleLevel(gate, nil, 9, table, pool); err != nil {
			t.Fatal(err)
		}
		zb, _ := g.ZeroLabel(3, 0)
		p := zb.LSB()
		seen[p] = true
		for mask := 0; mask < 4; mask++ {
			a, bb := mask&1 == 1, mask&2 == 2
			e, _ := NewBatchEvaluator(1)
			e.Grow(5)
			la, _ := g.ActiveLabel(2, 0, a)
			lb, _ := g.ActiveLabel(3, 0, bb)
			e.SetLabel(2, 0, la)
			e.SetLabel(3, 0, lb)
			if err := e.EvaluateLevel(gate, nil, 9, table, pool); err != nil {
				t.Fatal(err)
			}
			got, _ := e.Label(4, 0)
			if want, _ := g.ActiveLabel(4, 0, a && (bb != p)); got != want {
				t.Fatalf("seed %d a=%v b=%v p=%v: output is not the label of a ∧ (b ⊕ p)", seed, a, bb, p)
			}
		}
	}
	if !seen[false] || !seen[true] {
		t.Fatal("16 seeds drew one permute bit only")
	}
}

package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

// TestHNMatchesScalar pins the multi-lane face to the scalar hash, which is
// always crypto/aes: for every lane count 1–8 (and longer slices that
// exercise the 8-lane wave chunking), HN must be byte-identical to N scalar
// H calls, on the 8-lane kernel where this CPU has it and on the scalar loop
// under the purego tag.
func TestHNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	h := NewHasher()
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 27, 64} {
		labels := make([]Label, n)
		tweaks := make([]uint64, n)
		for i := range labels {
			rng.Read(labels[i][:])
			tweaks[i] = rng.Uint64()
		}
		want := make([]Label, n)
		for i := range labels {
			want[i] = h.H(labels[i], tweaks[i])
		}
		got := make([]Label, n)
		h.HN(got, labels, tweaks)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d lane %d: HN %x, scalar H %x", n, i, got[i], want[i])
			}
		}
		// In-place: dst aliasing labels must work (the OT extension hashes
		// over its staging buffer).
		inPlace := append([]Label(nil), labels...)
		h.HN(inPlace, inPlace, tweaks)
		for i := range want {
			if inPlace[i] != want[i] {
				t.Fatalf("n=%d lane %d: aliased HN diverged", n, i)
			}
		}
	}
}

func TestHNPanicsOnShortSlices(t *testing.T) {
	h := NewHasher()
	for _, tc := range []struct {
		dst, tweaks int
	}{{1, 2}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HN(dst=%d, labels=2, tweaks=%d) did not panic", tc.dst, tc.tweaks)
				}
			}()
			h.HN(make([]Label, tc.dst), make([]Label, 2), make([]uint64, tc.tweaks))
		}()
	}
}

// FuzzHN drives arbitrary label bytes, tweak seeds, and lane counts
// through HN, always comparing against the scalar H. Run with -tags purego
// to fuzz the scalar loop on an AES-NI machine.
func FuzzHN(f *testing.F) {
	f.Add([]byte{0}, uint64(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 8*LabelSize), uint64(1<<63))
	f.Add(bytes.Repeat([]byte{0xff}, 3*LabelSize+7), uint64(12345))
	f.Fuzz(func(t *testing.T, data []byte, tweakSeed uint64) {
		n := len(data)/LabelSize + 1
		if n > 3*HashLanes {
			n = 3 * HashLanes
		}
		labels := make([]Label, n)
		tweaks := make([]uint64, n)
		for i := range labels {
			if off := i * LabelSize; off < len(data) {
				copy(labels[i][:], data[off:])
			}
			tweaks[i] = tweakSeed + uint64(i)*0x9e3779b97f4a7c15
		}
		h := NewHasher()
		want := make([]Label, n)
		for i := range labels {
			want[i] = h.H(labels[i], tweaks[i])
		}
		got := make([]Label, n)
		h.HN(got, labels, tweaks)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lane %d/%d: HN %x, scalar H %x", i, n, got[i], want[i])
			}
		}
	})
}

// randomEvalInputs is how many of randomTestLevels' input wires, the
// highest-numbered ones, are the evaluator's.
const randomEvalInputs = 3

// randomTestLevels builds a random layered netlist over nInputs input
// wires (ids 2..2+nInputs-1, the last randomEvalInputs the evaluator's):
// each level's gates read only constants, inputs, or outputs of strictly
// earlier levels, which is exactly the level-independence contract of the
// batch engines, and its half ANDs trail its full ones. Level l holds
// widths[l] gates, three fifths of them ANDs on average. Returns the levels
// and the wire-namespace size.
func randomTestLevels(rng *rand.Rand, nInputs int, widths ...int) ([]vecTestLevel, uint32) {
	avail := []uint32{circuit.WFalse, circuit.WTrue}
	next := uint32(2)
	for i := 0; i < nInputs; i++ {
		avail = append(avail, next)
		next++
	}
	evalIn := func() uint32 { return 2 + uint32(nInputs-1-rng.Intn(randomEvalInputs)) }
	var levels []vecTestLevel
	var gid uint64
	for _, width := range widths {
		lv := vecTestLevel{gidBase: gid}
		var outs []uint32
		var halves []circuit.Gate
		for g := 0; g < width; g++ {
			a := avail[rng.Intn(len(avail))]
			b := avail[rng.Intn(len(avail))]
			out := next
			next++
			switch rng.Intn(5) {
			case 0, 1: // bias toward ANDs: they are the hashed population
				lv.ands = append(lv.ands, circuit.Gate{Op: circuit.AND, A: a, B: b, Out: out})
			case 4:
				halves = append(halves, circuit.Gate{Op: circuit.HalfAND, A: a, B: evalIn(), Out: out})
			case 2:
				lv.frees = append(lv.frees, circuit.Gate{Op: circuit.XOR, A: a, B: b, Out: out})
			default:
				lv.frees = append(lv.frees, circuit.Gate{Op: circuit.INV, A: a, Out: out})
			}
			outs = append(outs, out)
		}
		lv.ands = append(lv.ands, halves...)
		gid += uint64(len(lv.ands))
		avail = append(avail, outs...)
		levels = append(levels, lv)
	}
	return levels, next
}

// goLevel runs lv as one span of k's Go kernel, the conformance oracle of
// the level kernels.
func goLevel(k spanner, st *labelStore, lv vecTestLevel, table []byte) error {
	if err := st.prepare(lv.ands, lv.frees, lv.gidBase, table); err != nil {
		return err
	}
	k.spanGo(&st.lv, 0, len(lv.ands), 0, len(lv.frees))
	return nil
}

// garbleLevelsRun garbles all levels with a fresh seeded BatchGarbler on a
// pool of the given width, or as goLevel runs them at workers 0, returning
// the per-level tables and the full label-array snapshot.
func garbleLevelsRun(t *testing.T, levels []vecTestLevel, numWires uint32, nInputs, b, workers int) (*BatchGarbler, [][]byte, []Label) {
	t.Helper()
	bg, err := NewBatchGarbler(rand.New(rand.NewSource(777)), b)
	if err != nil {
		t.Fatal(err)
	}
	bg.Grow(numWires)
	for w := uint32(2); w < 2+uint32(nInputs); w++ {
		if err := assignBatch(bg)(w, w >= 2+uint32(nInputs-randomEvalInputs)); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool(workers)
	var tables [][]byte
	for li, lv := range levels {
		tab := make([]byte, packedBytes(lv.ands, b))
		var err error
		if workers == 0 {
			err = goLevel(bg, &bg.labelStore, lv, tab)
		} else {
			err = bg.GarbleLevel(lv.ands, lv.frees, lv.gidBase, tab, pool)
		}
		if err != nil {
			t.Fatalf("garble level %d (b=%d workers=%d): %v", li, b, workers, err)
		}
		tables = append(tables, tab)
	}
	return bg, tables, bg.snapshot()
}

// evalLevelsRun evaluates all levels against the given tables with a
// fresh BatchEvaluator seeded from the garbler's active labels for bits, as
// garbleLevelsRun garbles them, returning the label-array snapshot.
func evalLevelsRun(t *testing.T, levels []vecTestLevel, numWires uint32, bg *BatchGarbler, bits []bool, tables [][]byte, b, workers int) []Label {
	t.Helper()
	ev, err := NewBatchEvaluator(b)
	if err != nil {
		t.Fatal(err)
	}
	ev.Grow(numWires)
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
		for i, w := 0, uint32(2); i < len(bits)/b; i, w = i+1, w+1 {
			l, err := bg.ActiveLabel(w, s, bits[i*b+s])
			if err != nil {
				t.Fatal(err)
			}
			ev.SetLabel(w, s, l)
		}
	}
	pool := NewPool(workers)
	for li, lv := range levels {
		var err error
		if workers == 0 {
			err = goLevel(ev, &ev.labelStore, lv, tables[li])
		} else {
			err = ev.EvaluateLevel(lv.ands, lv.frees, lv.gidBase, tables[li], pool)
		}
		if err != nil {
			t.Fatalf("evaluate level %d (b=%d workers=%d): %v", li, b, workers, err)
		}
	}
	return ev.snapshot()
}

// TestWorkersMatchGoKernel pins the worker count: over random layered
// circuits, pools 1, 2 and 4 wide on this CPU's kernel must write the
// garbled tables and labels, on both sides of the protocol, that one span
// of the Go kernel per level writes, at B ∈ {1, 4}. Narrow levels run
// inline; the wide one (about 7 400 ANDs) splits as many ways as there are
// workers even at B=1, so spans cut it at arbitrary gates.
func TestWorkersMatchGoKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20180624))
	for trial := 0; trial < 3; trial++ {
		const nInputs = 8
		levels, numWires := randomTestLevels(rng, nInputs, 24, 24, 12288, 24)
		for _, b := range []int{1, 4} {
			bg, refTables, refLabels := garbleLevelsRun(t, levels, numWires, nInputs, b, 0)
			bits := make([]bool, nInputs*b)
			for i := range bits {
				bits[i] = rng.Intn(2) == 1
			}
			refEval := evalLevelsRun(t, levels, numWires, bg, bits, refTables, b, 0)

			for _, workers := range []int{1, 2, 4} {
				_, tables, labels := garbleLevelsRun(t, levels, numWires, nInputs, b, workers)
				for li := range refTables {
					if !bytes.Equal(tables[li], refTables[li]) {
						t.Fatalf("trial %d b=%d workers=%d: level %d tables diverge from the Go kernel's", trial, b, workers, li)
					}
				}
				if !labelsEqual(labels, refLabels) {
					t.Fatalf("trial %d b=%d workers=%d: garbler labels diverge from the Go kernel's", trial, b, workers)
				}
				evalLabels := evalLevelsRun(t, levels, numWires, bg, bits, refTables, b, workers)
				if !labelsEqual(evalLabels, refEval) {
					t.Fatalf("trial %d b=%d workers=%d: evaluator labels diverge from the Go kernel's", trial, b, workers)
				}
			}
		}
	}
}

// snapshot returns the labels of the store's wires, wire-major as the store
// keeps them, without the inversion slot behind them.
func (st *labelStore) snapshot() []Label {
	out := make([]Label, st.n*st.b)
	for i := range out {
		out[i] = st.labels[i].label()
	}
	return out
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

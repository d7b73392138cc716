package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

// setWideForTest toggles the wide-kernel mode for Hashers built inside
// the test and restores the default (on) when it finishes — the toggle
// is process-global, so tests must not leave it off.
func setWideForTest(t testing.TB, on bool) {
	t.Helper()
	wideOff.Store(!on)
	t.Cleanup(func() { wideOff.Store(false) })
}

// hashModes returns the Hasher modes this build can run: the scalar
// fallback always, the wide kernel when the CPU/build expose it.
func hashModes() []bool {
	modes := []bool{false}
	if WideAvailable() {
		modes = append(modes, true)
	}
	return modes
}

// TestHNMatchesScalar pins the multi-lane face to the scalar hash: for
// every lane count 1–8 (and longer slices that exercise the 8-lane wave
// chunking), HN must be byte-identical to N scalar H calls, on both the
// wide kernel and the fallback loop.
func TestHNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, wide := range hashModes() {
		setWideForTest(t, wide)
		h := NewHasher()
		if h.wide != wide {
			t.Fatalf("hasher wide=%v after setWideForTest(%v)", h.wide, wide)
		}
		scalar := NewHasher()
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 27, 64} {
			labels := make([]Label, n)
			tweaks := make([]uint64, n)
			for i := range labels {
				rng.Read(labels[i][:])
				tweaks[i] = rng.Uint64()
			}
			want := make([]Label, n)
			for i := range labels {
				want[i] = scalar.H(labels[i], tweaks[i])
			}
			got := make([]Label, n)
			h.HN(got, labels, tweaks)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("wide=%v n=%d lane %d: HN %x, scalar H %x", wide, n, i, got[i], want[i])
				}
			}
			// In-place: dst aliasing labels must work (the gate cores hash
			// over their staging buffer).
			inPlace := append([]Label(nil), labels...)
			h.HN(inPlace, inPlace, tweaks)
			for i := range want {
				if inPlace[i] != want[i] {
					t.Fatalf("wide=%v n=%d lane %d: aliased HN diverged", wide, n, i)
				}
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
// through HN on every available mode, always comparing against the
// scalar H. Run with -tags purego to fuzz the fallback on an AES-NI
// machine.
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
		scalar := NewHasher()
		want := make([]Label, n)
		for i := range labels {
			want[i] = scalar.H(labels[i], tweaks[i])
		}
		for _, wide := range hashModes() {
			setWideForTest(t, wide)
			h := NewHasher()
			got := make([]Label, n)
			h.HN(got, labels, tweaks)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("wide=%v lane %d/%d: HN %x, scalar H %x", wide, i, n, got[i], want[i])
				}
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
// batch engines, and its half ANDs trail its full ones. Returns the levels
// and the wire-namespace size.
func randomTestLevels(rng *rand.Rand, nInputs, nLevels, gatesPerLevel int) ([]vecTestLevel, uint32) {
	avail := []uint32{circuit.WFalse, circuit.WTrue}
	next := uint32(2)
	for i := 0; i < nInputs; i++ {
		avail = append(avail, next)
		next++
	}
	evalIn := func() uint32 { return 2 + uint32(nInputs-1-rng.Intn(randomEvalInputs)) }
	var levels []vecTestLevel
	var gid uint64
	for l := 0; l < nLevels; l++ {
		lv := vecTestLevel{gidBase: gid}
		var outs []uint32
		var halves []circuit.Gate
		for g := 0; g < gatesPerLevel; g++ {
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

// garbleLevelsRun garbles all levels with a fresh seeded BatchGarbler
// and the given worker count, returning the per-level tables and the
// full label-array snapshot.
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
		if err := bg.GarbleLevel(lv.ands, lv.frees, lv.gidBase, tab, pool); err != nil {
			t.Fatalf("garble level %d (b=%d workers=%d): %v", li, b, workers, err)
		}
		tables = append(tables, tab)
	}
	return bg, tables, append([]Label(nil), bg.labels...)
}

// evalLevelsRun evaluates all levels against the given tables with a
// fresh BatchEvaluator seeded from the garbler's active labels for bits,
// returning the label-array snapshot.
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
		if err := ev.EvaluateLevel(lv.ands, lv.frees, lv.gidBase, tables[li], pool); err != nil {
			t.Fatalf("evaluate level %d (b=%d workers=%d): %v", li, b, workers, err)
		}
	}
	return append([]Label(nil), ev.labels...)
}

// TestWideVsScalarConformance is the tentpole's correctness pin: over
// random layered circuits, the wide 8-lane kernel and the scalar
// fallback must produce byte-identical garbled tables and labels — on
// both sides of the protocol, for every worker count, at B ∈ {1, 4}.
// The scalar single-worker run is the conformance oracle.
func TestWideVsScalarConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(20180624))
	for trial := 0; trial < 3; trial++ {
		const nInputs = 8
		levels, numWires := randomTestLevels(rng, nInputs, 4, 24)
		for _, b := range []int{1, 4} {
			// Oracle: scalar path, one worker.
			setWideForTest(t, false)
			bg, refTables, refLabels := garbleLevelsRun(t, levels, numWires, nInputs, b, 1)
			bits := make([]bool, nInputs*b)
			for i := range bits {
				bits[i] = rng.Intn(2) == 1
			}
			refEval := evalLevelsRun(t, levels, numWires, bg, bits, refTables, b, 1)

			for _, workers := range []int{1, 2, 4} {
				for _, wide := range hashModes() {
					if !wide && workers == 1 {
						continue // that is the oracle itself
					}
					setWideForTest(t, wide)
					_, tables, labels := garbleLevelsRun(t, levels, numWires, nInputs, b, workers)
					for li := range refTables {
						if !bytes.Equal(tables[li], refTables[li]) {
							t.Fatalf("trial %d b=%d workers=%d wide=%v: level %d tables diverge from scalar oracle",
								trial, b, workers, wide, li)
						}
					}
					if !labelsEqual(labels, refLabels) {
						t.Fatalf("trial %d b=%d workers=%d wide=%v: garbler labels diverge from scalar oracle",
							trial, b, workers, wide)
					}
					evalLabels := evalLevelsRun(t, levels, numWires, bg, bits, refTables, b, workers)
					if !labelsEqual(evalLabels, refEval) {
						t.Fatalf("trial %d b=%d workers=%d wide=%v: evaluator labels diverge from scalar oracle",
							trial, b, workers, wide)
					}
				}
			}
		}
	}
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

// TestWideVsScalarSinglePath pins the streaming (gate-at-a-time) Garbler
// against the same toggle: the whole-netlist tables of a random circuit
// must not depend on the hash mode.
func TestWideVsScalarSinglePath(t *testing.T) {
	c, err := circuit.Build(func(b *circuit.Builder) {
		g := b.Inputs(circuit.Garbler, 4)
		e := b.Inputs(circuit.Evaluator, 4)
		var w []uint32
		w = append(w, g...)
		w = append(w, e...)
		for i := 0; len(w) < 60; i++ {
			w = append(w, b.AND(w[i], w[i+1]), b.XOR(w[i], w[i+1]))
		}
		b.Outputs(w[len(w)-4:]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	garbleOnce := func(wide bool) []byte {
		setWideForTest(t, wide)
		g, err := NewGarbler(rand.New(rand.NewSource(31337)))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.GarblerInputs {
			if _, err := g.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range c.EvaluatorInputs {
			if _, err := g.AssignEvaluatorInput(w); err != nil {
				t.Fatal(err)
			}
		}
		var tab []byte
		for _, gate := range c.Gates {
			tab, err = g.Garble(gate, tab)
			if err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	ref := garbleOnce(false)
	for _, wide := range hashModes() {
		if got := garbleOnce(wide); !bytes.Equal(got, ref) {
			t.Fatalf("wide=%v: streaming-path tables diverge from scalar", wide)
		}
	}
}

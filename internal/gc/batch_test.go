package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

// double is dbl on a Label value, the form the doubling tests compare.
func double(l Label) Label { return dbl(blockAt(l[:])).label() }

// refDouble is the byte-wise carry-loop doubling the uint64 fast path
// replaced; the two must agree on every input.
func refDouble(l Label) Label {
	var r Label
	carry := byte(0)
	for i := LabelSize - 1; i >= 0; i-- {
		r[i] = l[i]<<1 | carry
		carry = l[i] >> 7
	}
	if carry != 0 {
		r[LabelSize-1] ^= 0x87
	}
	return r
}

func TestDoubleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		var l Label
		rng.Read(l[:])
		if i == 0 {
			l = Label{} // all zero
		}
		if i == 1 {
			for j := range l {
				l[j] = 0xff
			}
		}
		if got, want := double(l), refDouble(l); got != want {
			t.Fatalf("double(%x) = %x, want %x", l, got, want)
		}
	}
}

// packedBytes is the size of the table block a level's AND gates garble to
// for b samples: two ciphertexts per full AND, one per half AND.
func packedBytes(ands []circuit.Gate, b int) int {
	n := 0
	for _, g := range ands {
		n += g.Op.TableBytes() * b
	}
	return n
}

// independentLevel builds a level of mutually independent gates over
// input wires 2..17 (assigned through assign, the last six as the
// evaluator's): nAND AND gates — the last third of them half ANDs on an
// evaluator wire — followed by free gates, with disjoint output wires.
func independentLevel(t *testing.T, assign func(w uint32, evaluator bool) error, rng *rand.Rand, nAND, nFree int) (ands, frees []circuit.Gate, maxWire uint32) {
	t.Helper()
	const nIn, nEval = uint32(16), 6
	for w := uint32(2); w < 2+nIn; w++ {
		if err := assign(w, w >= 2+nIn-nEval); err != nil {
			t.Fatal(err)
		}
	}
	next := 2 + nIn
	in := func() uint32 { return 2 + uint32(rng.Intn(int(nIn))) }
	for i := 0; i < nAND; i++ {
		gate := circuit.Gate{Op: circuit.AND, A: in(), B: in(), Out: next}
		if i >= nAND-nAND/3 {
			gate.Op, gate.B = circuit.HalfAND, 2+nIn-nEval+uint32(rng.Intn(nEval))
		}
		ands = append(ands, gate)
		next++
	}
	for i := 0; i < nFree; i++ {
		op := circuit.XOR
		gate := circuit.Gate{Op: op, A: in(), B: in(), Out: next}
		if rng.Intn(3) == 0 {
			gate = circuit.Gate{Op: circuit.INV, A: in(), Out: next}
		}
		frees = append(frees, gate)
		next++
	}
	return ands, frees, next
}

// TestBatchMatchesSequential pins the level kernel to the per-gate
// reference: for one level of independent gates, GarbleLevel at B=1 with
// any worker count must produce byte-identical tables and the same
// zero-labels as garbling it a gate a level (garbleGate), and
// EvaluateLevel the same active labels as evaluating it so (evalGate) —
// which must be the garbler's labels for the plaintext values. The level
// holds enough ANDs that 4 workers split it 4 ways on both sides.
func TestBatchMatchesSequential(t *testing.T) {
	const nAND, nFree = 6400, 100
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(31))
		gSeq, err := NewBatchGarbler(rand.New(rand.NewSource(32)), 1)
		if err != nil {
			t.Fatal(err)
		}
		gLevel, err := NewBatchGarbler(rand.New(rand.NewSource(32)), 1)
		if err != nil {
			t.Fatal(err)
		}
		ands, frees, maxWire := independentLevel(t, assignBatch(gSeq), rng, nAND, nFree)
		independentLevel(t, assignBatch(gLevel), rand.New(rand.NewSource(31)), nAND, nFree)

		// Sequential: ANDs first, then frees, matching level order.
		var seqTables []byte
		var gid uint64
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			if seqTables, err = garbleGate(gSeq, &gid, gate, seqTables); err != nil {
				t.Fatal(err)
			}
		}

		pool := NewPool(workers)
		gLevel.Grow(maxWire)
		levelTables := make([]byte, packedBytes(ands, 1))
		if half := nAND / 3; len(levelTables) != (nAND-half)*TableSize+half*LabelSize {
			t.Fatalf("level block is %d bytes, want %d full and %d half tables", len(levelTables), nAND-half, half)
		}
		if err := gLevel.GarbleLevel(ands, frees, 0, levelTables, pool); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqTables, levelTables) {
			t.Fatalf("workers=%d: level tables differ from per-gate garbling", workers)
		}
		if gSeq.R[0] != gLevel.R[0] {
			t.Fatalf("workers=%d: delta differs", workers)
		}
		for w := uint32(0); w < maxWire; w++ {
			ls, _ := gSeq.ZeroLabel(w, 0)
			if lb, err := gLevel.ZeroLabel(w, 0); err != nil || ls != lb {
				t.Fatalf("workers=%d: wire %d label differs (%v)", workers, w, err)
			}
		}

		// Evaluate the tables per gate and through the level kernel on
		// random plaintext inputs.
		evSeq, err := NewBatchEvaluator(1)
		if err != nil {
			t.Fatal(err)
		}
		evLevel, err := NewBatchEvaluator(1)
		if err != nil {
			t.Fatal(err)
		}
		evLevel.Grow(maxWire)
		bits := map[uint32]bool{circuit.WFalse: false, circuit.WTrue: true}
		for w := uint32(2); w < 18; w++ {
			bits[w] = rng.Intn(2) == 1
		}
		for w, bit := range bits {
			l := mustActive(t, gSeq, w, bit)
			evSeq.SetLabel(w, 0, l)
			evLevel.SetLabel(w, 0, l)
		}
		rest := seqTables
		gid = 0
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			if rest, err = evalGate(evSeq, &gid, gate, rest); err != nil {
				t.Fatal(err)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("workers=%d: per-gate evaluation left %d table bytes", workers, len(rest))
		}
		if err := evLevel.EvaluateLevel(ands, frees, 0, levelTables, pool); err != nil {
			t.Fatal(err)
		}
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			var want bool
			switch gate.Op {
			case circuit.AND, circuit.HalfAND:
				want = bits[gate.A] && bits[gate.B]
			case circuit.XOR:
				want = bits[gate.A] != bits[gate.B]
			case circuit.INV:
				want = !bits[gate.A]
			}
			ref, err := evSeq.Label(gate.Out, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := evLevel.Label(gate.Out, 0)
			if err != nil {
				t.Fatal(err)
			}
			if wl := mustActive(t, gSeq, gate.Out, want); got != wl || ref != wl {
				t.Fatalf("workers=%d: gate %+v evaluated to wrong label", workers, gate)
			}
		}
	}
}

// assignBatch is independentLevel's assign: an evaluator's wire gets its
// zero-label with permute bit 0.
func assignBatch(g *BatchGarbler) func(uint32, bool) error {
	return func(w uint32, evaluator bool) error { return g.AssignInputs([]uint32{w}, evaluator) }
}

func mustActive(t *testing.T, g *BatchGarbler, w uint32, bit bool) Label {
	t.Helper()
	l, err := g.ActiveLabel(w, 0, bit)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBatchErrors covers the level kernels' one run-time check, the one
// thing about a level the peer sets: a table block shorter than the level
// packs to, for either AND kind, on either side. Everything else about a
// level was proved when its schedule compiled (TestFailedLevelWritesNothing).
func TestBatchErrors(t *testing.T) {
	g, err := NewBatchGarbler(rand.New(rand.NewSource(41)), 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Grow(8)
	e.Grow(8)
	pool := NewPool(2)
	for _, op := range []circuit.Op{circuit.AND, circuit.HalfAND} {
		gate := []circuit.Gate{{Op: op, A: 2, B: 3, Out: 4}}
		short := make([]byte, op.TableBytes()-1)
		if err := g.GarbleLevel(gate, nil, 0, short, pool); err == nil {
			t.Fatalf("%v: short table accepted by garbler", op)
		}
		if err := e.EvaluateLevel(gate, nil, 0, short, pool); err == nil {
			t.Fatalf("%v: short table accepted by evaluator", op)
		}
	}
}

// BenchmarkGarbleGate measures a single AND-gate garble on a one-gate
// level (four fixed-key AES hashes plus label XORs).
func BenchmarkGarbleGate(b *testing.B) {
	g, err := NewBatchGarbler(rand.New(rand.NewSource(51)), 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.AssignInputs([]uint32{2, 3, 4, 5, 6, 7}, false); err != nil {
		b.Fatal(err)
	}
	gate := circuit.Gate{Op: circuit.AND, A: 2, B: 3, Out: 9}
	table := make([]byte, 0, TableSize)
	var gid uint64
	b.SetBytes(TableSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := garbleGate(g, &gid, gate, table); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDouble isolates the GF(2^128) doubling inside the garbling
// hash.
func BenchmarkDouble(b *testing.B) {
	var l Label
	rand.New(rand.NewSource(52)).Read(l[:])
	k := blockAt(l[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = dbl(k)
	}
	if k == (block{}) {
		b.Fatal("impossible")
	}
}

// BenchmarkGarbleLevelWorkers measures the level kernel's garbling
// throughput at B=1 across worker counts.
func BenchmarkGarbleLevelWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			g, err := NewBatchGarbler(rand.New(rand.NewSource(53)), 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(54))
			const nAND = 4096
			nIn := uint32(64)
			for w := uint32(2); w < 2+nIn; w++ {
				if err := g.AssignInput(w); err != nil {
					b.Fatal(err)
				}
			}
			ands := make([]circuit.Gate, nAND)
			next := 2 + nIn
			for i := range ands {
				ands[i] = circuit.Gate{Op: circuit.AND,
					A: 2 + uint32(rng.Intn(int(nIn))), B: 2 + uint32(rng.Intn(int(nIn))), Out: next}
				next++
			}
			g.Grow(next)
			pool := NewPool(workers)
			table := make([]byte, nAND*TableSize)
			b.SetBytes(int64(len(table)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.GarbleLevel(ands, nil, 0, table, pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

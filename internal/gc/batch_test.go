package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

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

func TestIsZero(t *testing.T) {
	var z Label
	if !z.IsZero() {
		t.Fatal("zero label reported non-zero")
	}
	for i := 0; i < LabelSize; i++ {
		l := Label{}
		l[i] = 1
		if l.IsZero() {
			t.Fatalf("label with byte %d set reported zero", i)
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
// zero-labels as the internal-counter Garbler.Garble loop, and
// EvaluateLevel the same active labels as the Evaluator.Eval loop — which
// must be the garbler's labels for the plaintext values.
func TestBatchMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(31))
		gSeq, err := NewGarbler(rand.New(rand.NewSource(32)))
		if err != nil {
			t.Fatal(err)
		}
		gLevel, err := NewBatchGarbler(rand.New(rand.NewSource(32)), 1)
		if err != nil {
			t.Fatal(err)
		}
		ands, frees, maxWire := independentLevel(t, assignSingle(gSeq), rng, 200, 100)
		independentLevel(t, assignBatch(gLevel), rand.New(rand.NewSource(31)), 200, 100)

		// Sequential: ANDs first, then frees, matching level order.
		var seqTables []byte
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			if seqTables, err = gSeq.Garble(gate, seqTables); err != nil {
				t.Fatal(err)
			}
		}

		pool := NewPool(workers)
		gLevel.Grow(maxWire)
		levelTables := make([]byte, packedBytes(ands, 1))
		if len(levelTables) != (200-66)*TableSize+66*LabelSize {
			t.Fatalf("level block is %d bytes, want 134 full and 66 half tables", len(levelTables))
		}
		if err := gLevel.GarbleLevel(ands, frees, 0, levelTables, pool); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqTables, levelTables) {
			t.Fatalf("workers=%d: level tables differ from per-gate garbling", workers)
		}
		if gSeq.R != gLevel.R[0] {
			t.Fatalf("workers=%d: delta differs", workers)
		}
		for w := uint32(0); w < maxWire; w++ {
			ls, err1 := gSeq.ZeroLabel(w)
			lb, err2 := gLevel.ZeroLabel(w, 0)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("workers=%d: wire %d presence differs", workers, w)
			}
			if err1 == nil && ls != lb {
				t.Fatalf("workers=%d: wire %d label differs", workers, w)
			}
		}

		// Evaluate the tables per gate and through the level kernel on
		// random plaintext inputs.
		evSeq := NewEvaluator()
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
			evSeq.SetLabel(w, l)
			evLevel.SetLabel(w, 0, l)
		}
		rest := seqTables
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			if rest, err = evSeq.Eval(gate, rest); err != nil {
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
			ref, err := evSeq.Label(gate.Out)
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

// assignSingle and assignBatch are independentLevel's assign for the two
// garbler kinds: an evaluator's wire gets its zero-label with permute bit 0.
func assignSingle(g *Garbler) func(uint32, bool) error {
	return func(w uint32, evaluator bool) (err error) {
		if evaluator {
			_, err = g.AssignEvaluatorInput(w)
		} else {
			_, err = g.AssignInput(w)
		}
		return err
	}
}

func assignBatch(g *BatchGarbler) func(uint32, bool) error {
	return func(w uint32, evaluator bool) error { return g.AssignInputs([]uint32{w}, evaluator) }
}

func mustActive(t *testing.T, g *Garbler, w uint32, bit bool) Label {
	t.Helper()
	l, err := g.ActiveLabel(w, bit)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBatchErrors covers the level kernel's preconditions.
func TestBatchErrors(t *testing.T) {
	g, err := NewBatchGarbler(rand.New(rand.NewSource(41)), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	and := []circuit.Gate{{Op: circuit.AND, A: 2, B: 3, Out: 4}}
	if err := g.GarbleLevel(and, nil, 0, make([]byte, 1), pool); err == nil {
		t.Fatal("short table accepted")
	}
	// Unassigned input wires must fail, not garble garbage.
	g.Grow(8)
	if err := g.GarbleLevel(and, nil, 0, make([]byte, TableSize), pool); err == nil {
		t.Fatal("garbling over missing labels accepted")
	}
	// An output wire past grown storage must fail, not grow under workers.
	for w := uint32(2); w <= 3; w++ {
		if err := g.AssignInput(w); err != nil {
			t.Fatal(err)
		}
	}
	far := []circuit.Gate{{Op: circuit.AND, A: 2, B: 3, Out: 99}}
	if err := g.GarbleLevel(far, nil, 0, make([]byte, TableSize), pool); err == nil {
		t.Fatal("garbling into ungrown storage accepted")
	}
	e, err := NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	e.Grow(8)
	if err := e.EvaluateLevel(and, nil, 0, make([]byte, 1), pool); err == nil {
		t.Fatal("short table accepted by evaluator")
	}
	e.SetLabel(2, 0, Label{1})
	e.SetLabel(3, 0, Label{2})
	if err := e.EvaluateLevel(far, nil, 0, make([]byte, TableSize), pool); err == nil {
		t.Fatal("evaluating into ungrown storage accepted")
	}
}

// BenchmarkGarbleGate measures a single AND-gate garble through the
// per-gate face (four fixed-key AES hashes plus label XORs, on a one-gate
// level).
func BenchmarkGarbleGate(b *testing.B) {
	g, err := NewGarbler(rand.New(rand.NewSource(51)))
	if err != nil {
		b.Fatal(err)
	}
	for w := uint32(2); w < 8; w++ {
		if _, err := g.AssignInput(w); err != nil {
			b.Fatal(err)
		}
	}
	gate := circuit.Gate{Op: circuit.AND, A: 2, B: 3, Out: 9}
	table := make([]byte, 0, TableSize)
	b.SetBytes(TableSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Garble(gate, table); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDouble isolates the GF(2^128) doubling inside the garbling
// hash.
func BenchmarkDouble(b *testing.B) {
	var l Label
	rand.New(rand.NewSource(52)).Read(l[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l = double(l)
	}
	if l.IsZero() {
		b.Fatal("impossible")
	}
}

// BenchmarkLabelIsZero isolates the zero-sentinel check.
func BenchmarkLabelIsZero(b *testing.B) {
	var l Label
	l[15] = 1
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.IsZero() {
			n++
		}
	}
	if n != 0 {
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

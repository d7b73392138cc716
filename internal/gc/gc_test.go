package gc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

// onePool runs every level of the per-gate reference inline.
var onePool = NewPool(1)

// oneGate is gate as a level of its own: its AND, or its free gate.
func oneGate(gate circuit.Gate) (ands, frees []circuit.Gate) {
	if gate.Op.TableBytes() > 0 {
		return []circuit.Gate{gate}, nil
	}
	return nil, []circuit.Gate{gate}
}

// garbleGate garbles gate as a one-gate level at B=1, with AND index *gid,
// and appends its tables to table: the per-gate reference the tests hold
// whole levels to, as a gate stream with no schedule runs.
func garbleGate(g *BatchGarbler, gid *uint64, gate circuit.Gate, table []byte) ([]byte, error) {
	g.ensure(gate.Out)
	ands, frees := oneGate(gate)
	off := len(table)
	table = append(table, make([]byte, gate.Op.TableBytes())...)
	if err := g.GarbleLevel(ands, frees, *gid, table[off:], onePool); err != nil {
		return table[:off], err
	}
	*gid += uint64(len(ands))
	return table, nil
}

// evalGate is garbleGate's mirror: it evaluates gate on the tables at the
// front of table and returns the rest.
func evalGate(e *BatchEvaluator, gid *uint64, gate circuit.Gate, table []byte) ([]byte, error) {
	e.ensure(gate.Out)
	ands, frees := oneGate(gate)
	n := min(gate.Op.TableBytes(), len(table))
	if err := e.EvaluateLevel(ands, frees, *gid, table[:n], onePool); err != nil {
		return table, err
	}
	*gid += uint64(len(ands))
	return table[n:], nil
}

// decodeBit maps an output wire's label from the evaluator back to its bit:
// the zero-label is 0, the zero-label ⊕ R is 1, and anything else is not
// authentic — so a tampered evaluation fails instead of decoding wrong.
func decodeBit(g *BatchGarbler, w uint32, l Label) (bool, error) {
	zero, err := g.ZeroLabel(w, 0)
	switch {
	case err != nil:
		return false, err
	case l == zero:
		return false, nil
	case l == zero.XOR(g.R[0]):
		return true, nil
	}
	return false, fmt.Errorf("gc: output label for wire %d is not authentic", w)
}

// runGC garbles and evaluates a materialized circuit in-process, a gate a
// level, and returns the decoded output bits, exercising the full label
// machinery (without transport/OT, which have their own tests).
func runGC(t *testing.T, c *circuit.Circuit, gBits, eBits []bool, corrupt func([]byte)) ([]bool, error) {
	return runGCSeed(t, c, gBits, eBits, corrupt, 1234)
}

func runGCSeed(t *testing.T, c *circuit.Circuit, gBits, eBits []bool, corrupt func([]byte), seed int64) ([]bool, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := NewBatchGarbler(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	// Constants, then the inputs: the garbler's by direct label transfer,
	// the evaluator's as the OT would hand them over. The evaluator's
	// zero-labels have permute bit 0, which the circuit's half ANDs rest on.
	set := func(ws []uint32, bits []bool) {
		for i, w := range ws {
			l, err := g.ActiveLabel(w, 0, bits[i])
			if err != nil {
				t.Fatal(err)
			}
			e.SetLabel(w, 0, l)
		}
	}
	set([]uint32{circuit.WFalse, circuit.WTrue}, []bool{false, true})
	if err := g.AssignInputs(c.GarblerInputs, false); err != nil {
		t.Fatal(err)
	}
	set(c.GarblerInputs, gBits)
	if err := g.AssignInputs(c.EvaluatorInputs, true); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.EvaluatorInputs {
		if z, _ := g.ZeroLabel(w, 0); z.LSB() {
			t.Fatalf("evaluator input wire %d got a zero-label with permute bit 1", w)
		}
	}
	set(c.EvaluatorInputs, eBits)

	// Garble the whole netlist.
	var tables []byte
	var gid uint64
	for _, gate := range c.Gates {
		if tables, err = garbleGate(g, &gid, gate, tables); err != nil {
			t.Fatal(err)
		}
	}
	if corrupt != nil {
		corrupt(tables)
	}

	// Evaluate.
	rest := tables
	gid = 0
	for _, gate := range c.Gates {
		if rest, err = evalGate(e, &gid, gate, rest); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		t.Fatalf("evaluator left %d table bytes unconsumed", len(rest))
	}

	// Decode with authenticity check.
	out := make([]bool, len(c.Outputs))
	for i, w := range c.Outputs {
		l, err := e.Label(w, 0)
		if err != nil {
			return nil, err
		}
		if out[i], err = decodeBit(g, w, l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestGCAgreesWithPlaintextSmall(t *testing.T) {
	c, err := circuit.Build(func(b *circuit.Builder) {
		g := b.Inputs(circuit.Garbler, 2)
		e := b.Inputs(circuit.Evaluator, 2)
		x := b.AND(b.XOR(g[0], e[0]), b.OR(g[1], e[1]))
		b.Outputs(x, b.INV(x), b.Const(true))
	})
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 16; mask++ {
		gBits := []bool{mask&1 != 0, mask&2 != 0}
		eBits := []bool{mask&4 != 0, mask&8 != 0}
		want, err := c.Eval(gBits, eBits)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runGC(t, c, gBits, eBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mask %d output %d: GC %v, plaintext %v", mask, i, got[i], want[i])
			}
		}
	}
}

func TestGCRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nG, nE := 3+rng.Intn(5), 2+rng.Intn(5)
		var wires []uint32
		c, err := circuit.Build(func(b *circuit.Builder) {
			wires = append(wires, b.Inputs(circuit.Garbler, nG)...)
			wires = append(wires, b.Inputs(circuit.Evaluator, nE)...)
			for i := 0; i < 40; i++ {
				a := wires[rng.Intn(len(wires))]
				bb := wires[rng.Intn(len(wires))]
				var w uint32
				switch rng.Intn(4) {
				case 0:
					w = b.XOR(a, bb)
				case 1:
					w = b.AND(a, bb)
				case 2:
					w = b.INV(a)
				default:
					w = b.OR(a, bb)
				}
				wires = append(wires, w)
			}
			b.Outputs(wires[len(wires)-5:]...)
		})
		if err != nil {
			t.Fatal(err)
		}
		gBits := make([]bool, nG)
		eBits := make([]bool, nE)
		for i := range gBits {
			gBits[i] = rng.Intn(2) == 1
		}
		for i := range eBits {
			eBits[i] = rng.Intn(2) == 1
		}
		want, err := c.Eval(gBits, eBits)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runGC(t, c, gBits, eBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d output %d mismatch", trial, i)
			}
		}
	}
}

func TestGCArithmeticCircuit(t *testing.T) {
	// End-to-end: a fixed-point multiply-accumulate garbled and evaluated.
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := stdcell.Input(b, circuit.Garbler, f.Bits())
		w := stdcell.Input(b, circuit.Evaluator, fixed.BoothBits(f.Bits()))
		y := stdcell.Input(b, circuit.Evaluator, f.Bits())
		b.Outputs(stdcell.Add(b, stdcell.MulFixed(b, x, w, f.FracBits), y)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		x := f.FromFloat(rng.Float64()*4 - 2)
		w := f.FromFloat(rng.Float64()*4 - 2)
		y := f.FromFloat(rng.Float64()*4 - 2)
		got, err := runGC(t, c, x.Bits(), append(fixed.BoothDigits(w.Raw(), f.Bits()), y.Bits()...), nil)
		if err != nil {
			t.Fatal(err)
		}
		gotN, _ := f.FromBits(got)
		want := x.Mul(w).Add(y)
		if gotN.Raw() != want.Raw() {
			t.Fatalf("GC MAC = %d, want %d", gotN.Raw(), want.Raw())
		}
	}
}

func TestTamperedTableNeverSilentlyWrong(t *testing.T) {
	// A corrupted garbled table may go unnoticed when the evaluator's
	// point-and-permute bits never select the tampered rows — but it must
	// NEVER produce a wrong decoded answer: either the output labels fail
	// authentication or the result is still correct. Across seeds the
	// detection path must actually trigger.
	c, err := circuit.Build(func(b *circuit.Builder) {
		g := b.Inputs(circuit.Garbler, 2)
		e := b.Inputs(circuit.Evaluator, 1)
		b.Outputs(b.AND(b.AND(g[0], g[1]), e[0]))
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Eval([]bool{true, true}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.AND != 2 || st.HalfAND != 1 {
		t.Fatalf("circuit %+v, want a full AND feeding a half AND", st)
	}
	// The stream is the full AND's two ciphertexts, then the half AND's one.
	for name, span := range map[string][2]int{
		"every byte":           {0, TableSize + LabelSize},
		"the half AND's table": {TableSize, TableSize + LabelSize},
	} {
		detected := 0
		for seed := int64(0); seed < 20; seed++ {
			got, err := runGCSeed(t, c, []bool{true, true}, []bool{true}, func(tables []byte) {
				if len(tables) != TableSize+LabelSize {
					t.Fatalf("table stream is %d bytes, want %d", len(tables), TableSize+LabelSize)
				}
				for i := span[0]; i < span[1]; i++ {
					tables[i] ^= 0xa5
				}
			}, seed)
			if err != nil {
				detected++
				continue
			}
			if got[0] != want[0] {
				t.Fatalf("%s, seed %d: tampering produced a silently wrong answer", name, seed)
			}
		}
		if detected == 0 {
			t.Errorf("%s: tampering was never detected across 20 seeds (authentication broken?)", name)
		}
	}
	// The evaluator's bit is 1, so colour = value makes it read the half
	// AND's ciphertext on every seed; with bit 0 it never does, and the
	// answer stands.
	for seed := int64(0); seed < 20; seed++ {
		got, err := runGCSeed(t, c, []bool{true, true}, []bool{false}, func(tables []byte) {
			for i := TableSize; i < len(tables); i++ {
				tables[i] ^= 0xa5
			}
		}, seed)
		if err != nil || got[0] {
			t.Fatalf("seed %d: an unread half-AND table changed the answer: %v, %v", seed, got, err)
		}
	}
}

func TestTableUnderrunDetected(t *testing.T) {
	e, err := NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLabel(2, 0, Label{1})
	e.SetLabel(3, 0, Label{2})
	var gid uint64
	if _, err := evalGate(e, &gid, circuit.Gate{Op: circuit.AND, A: 2, B: 3, Out: 4}, []byte{0, 1, 2}); err == nil {
		t.Fatal("short garbled table must error")
	}
}

// TestMissingLabelErrors: a label outside a state's store is an error, on
// either side, and Drop is a no-op.
func TestMissingLabelErrors(t *testing.T) {
	e, err := NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Label(7, 0); err == nil {
		t.Error("missing evaluator label should error")
	}
	g, err := NewBatchGarbler(rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ZeroLabel(9, 0); err == nil {
		t.Error("missing garbler label should error")
	}
	g.Drop(circuit.WTrue + 1) // no-op drops must not panic
	e.Drop(100)
}

// TestDecodeBitRejectsGarbage holds runGC's decode to what
// TestTamperedTableNeverSilentlyWrong relies on: both labels of a wire
// decode, and any other is refused.
func TestDecodeBitRejectsGarbage(t *testing.T) {
	g, err := NewBatchGarbler(rand.New(rand.NewSource(2)), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := uint32(5)
	if err := g.AssignInputs([]uint32{w}, false); err != nil {
		t.Fatal(err)
	}
	zero, _ := g.ZeroLabel(w, 0)
	if bit, err := decodeBit(g, w, zero); err != nil || bit {
		t.Errorf("zero label should decode to 0: %v %v", bit, err)
	}
	if bit, err := decodeBit(g, w, zero.XOR(g.R[0])); err != nil || !bit {
		t.Errorf("one label should decode to 1: %v %v", bit, err)
	}
	bad := zero
	bad[5] ^= 1
	if _, err := decodeBit(g, w, bad); err == nil {
		t.Error("garbage label must be rejected")
	}
}

func TestLabelPrimitives(t *testing.T) {
	a := Label{1, 2, 3}
	b := Label{0xff, 2, 1}
	x := a.XOR(b)
	if x != (Label{0xfe, 0, 2}) {
		t.Errorf("XOR wrong: %v", x)
	}
	if x.XOR(b) != a {
		t.Error("XOR not involutive")
	}
	if (Label{1}).LSB() != true || (Label{2}).LSB() {
		t.Error("LSB wrong")
	}
}

func TestDoubleGF128(t *testing.T) {
	// Doubling twice must equal multiplying by x^2; check linearity and
	// the reduction path (MSB set).
	a := Label{}
	a[0] = 0x80 // high bit of the big-endian polynomial is byte 0? — byte 0 MSB
	d := double(a)
	if d == (Label{}) {
		t.Error("double lost the carry")
	}
	var top Label
	top[0] = 0xff
	top[15] = 0xff
	d2 := double(top)
	if d2 == (Label{}) {
		t.Error("double of dense label zeroed out")
	}
	// Linearity: double(a ⊕ b) = double(a) ⊕ double(b).
	b := Label{0x13, 0x9a, 0x4c}
	if double(a.XOR(b)) != double(a).XOR(double(b)) {
		t.Error("double is not GF(2)-linear")
	}
}

func TestDeltaLSBAlwaysSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		r, err := RandomDelta(rng)
		if err != nil {
			t.Fatal(err)
		}
		if !r.LSB() {
			t.Fatal("delta LSB must be 1 for point-and-permute")
		}
	}
}

func TestGarbledTableSizeMatchesPaperConstant(t *testing.T) {
	// The paper's Eq. 4: α = #nonXOR × 2 × 128 bits. Verify our garbler
	// emits exactly 2×128 bits per AND and nothing for XOR/INV.
	g, err := NewBatchGarbler(rand.New(rand.NewSource(4)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AssignInputs([]uint32{2, 3, 4, 5}, false); err != nil {
		t.Fatal(err)
	}
	var tab []byte
	var gid uint64
	tab, err = garbleGate(g, &gid, circuit.Gate{Op: circuit.XOR, A: 2, B: 3, Out: 6}, tab)
	if err != nil || len(tab) != 0 {
		t.Fatalf("XOR must be free: %d bytes, err %v", len(tab), err)
	}
	tab, err = garbleGate(g, &gid, circuit.Gate{Op: circuit.INV, A: 4, Out: 7}, tab)
	if err != nil || len(tab) != 0 {
		t.Fatalf("INV must be free: %d bytes, err %v", len(tab), err)
	}
	tab, err = garbleGate(g, &gid, circuit.Gate{Op: circuit.AND, A: 2, B: 3, Out: 8}, tab)
	if err != nil || len(tab) != TableSize {
		t.Fatalf("AND table = %d bytes, want %d, err %v", len(tab), TableSize, err)
	}
}

func TestGarblerEvaluatorIndependentSessionsDiffer(t *testing.T) {
	// Two sessions with different randomness must produce different tables
	// for the same circuit (sanity check that labels are actually random).
	c, err := circuit.Build(func(b *circuit.Builder) {
		g := b.Inputs(circuit.Garbler, 2)
		b.Outputs(b.AND(g[0], g[1]))
	})
	if err != nil {
		t.Fatal(err)
	}
	garbleOnce := func(seed int64) []byte {
		g, err := NewBatchGarbler(rand.New(rand.NewSource(seed)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AssignInputs(c.GarblerInputs, false); err != nil {
			t.Fatal(err)
		}
		var tab []byte
		var gid uint64
		for _, gate := range c.Gates {
			if tab, err = garbleGate(g, &gid, gate, tab); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	if bytes.Equal(garbleOnce(1), garbleOnce(2)) {
		t.Error("different sessions produced identical garbled tables")
	}
}

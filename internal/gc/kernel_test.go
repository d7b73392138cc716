package gc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

// textbookGarble is the half-gates AND garbler as Zahur, Rosulek and Evans
// write it, on Label values and the scalar hash: for zero-labels A0, B0,
// delta R, permute bits pa, pb and tweaks j = 2·gid, j' = 2·gid+1,
//
//	TG = H(A0, j) ⊕ H(A1, j) ⊕ pb·R      W_G = H(A0, j) ⊕ pa·TG
//	TE = H(B0, j') ⊕ H(B1, j') ⊕ A0      W_E = H(B0, j') ⊕ pb·(TE ⊕ A0)
//
// and the output zero-label is W_G ⊕ W_E, the table TG ‖ TE. A half AND is
// the evaluator half alone: table TE, output W_E.
func textbookGarble(h *Hasher, a0, b0, r Label, gid uint64, half bool) (table []byte, c0 Label) {
	j, j1 := 2*gid, 2*gid+1
	te := h.H(b0, j1).XOR(h.H(b0.XOR(r), j1)).XOR(a0)
	we := h.H(b0, j1)
	if b0.LSB() {
		we = we.XOR(te.XOR(a0))
	}
	if half {
		return te[:], we
	}
	tg := h.H(a0, j).XOR(h.H(a0.XOR(r), j))
	if b0.LSB() {
		tg = tg.XOR(r)
	}
	wg := h.H(a0, j)
	if a0.LSB() {
		wg = wg.XOR(tg)
	}
	return append(tg[:], te[:]...), wg.XOR(we)
}

// textbookEval is its evaluator: on active labels A, B with colours sa, sb,
// W_G = H(A, j) ⊕ sa·TG and W_E = H(B, j') ⊕ sb·(TE ⊕ A); the output is
// W_G ⊕ W_E, or W_E alone for a half AND's one-ciphertext table.
func textbookEval(h *Hasher, a, b Label, gid uint64, table []byte) Label {
	var wg Label
	if len(table) == TableSize {
		var tg Label
		copy(tg[:], table)
		wg = h.H(a, 2*gid)
		if a.LSB() {
			wg = wg.XOR(tg)
		}
		table = table[LabelSize:]
	}
	var te Label
	copy(te[:], table)
	we := h.H(b, 2*gid+1)
	if b.LSB() {
		we = we.XOR(te.XOR(a))
	}
	return wg.XOR(we)
}

// oracleLevel is one mixed level over input wires 2..2+oracleInputs-1:
// full ANDs, then half ANDs, then XORs and INVs, outputs from
// oracleInputs+2 on. Gate counts leave the final hash wave partial at
// B = 1 and 3.
const oracleInputs = 10

func oracleLevel(rng *rand.Rand) (ands, frees []circuit.Gate, wires uint32) {
	in := func() uint32 { return 2 + uint32(rng.Intn(oracleInputs)) }
	next := uint32(2 + oracleInputs)
	add := func(dst *[]circuit.Gate, op circuit.Op, n int) {
		for i := 0; i < n; i++ {
			*dst = append(*dst, circuit.Gate{Op: op, A: in(), B: in(), Out: next})
			next++
		}
	}
	add(&ands, circuit.AND, 5)
	add(&ands, circuit.HalfAND, 3)
	add(&frees, circuit.XOR, 4)
	add(&frees, circuit.INV, 3)
	return ands, frees, next
}

// TestKernelMatchesTextbookOracle pins the one kernel — the level kernels
// and, at B = 1, the per-gate faces that share it — to textbookGarble and
// textbookEval: tables, garbler zero-labels and evaluator labels of one
// mixed level, at B ∈ {1, 3, 16}. Inputs are assigned party-blind, so the
// half ANDs see both permute bits on B (TestHalfANDAnyPermuteBit's case).
func TestKernelMatchesTextbookOracle(t *testing.T) {
	const gidBase = 40
	h := NewHasher()
	seenPB := map[bool]bool{}
	for _, b := range []int{1, 3, 16} {
		rng := rand.New(rand.NewSource(int64(900 + b)))
		ands, frees, wires := oracleLevel(rng)
		g, err := NewBatchGarbler(rng, b)
		if err != nil {
			t.Fatal(err)
		}
		g.Grow(wires)
		for w := uint32(2); w < 2+oracleInputs; w++ {
			if err := g.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		bits := make([]bool, int(wires)*b)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}

		// The oracle, sample by sample, over the input labels as drawn.
		zero := append([]Label(nil), g.labels...)
		active := make([]Label, len(zero))
		for w := 2; w < 2+oracleInputs; w++ {
			for s := 0; s < b; s++ {
				active[w*b+s] = zero[w*b+s]
				if bits[w*b+s] {
					active[w*b+s] = active[w*b+s].XOR(g.R[s])
				}
			}
		}
		wantTable := make([]byte, packedBytes(ands, b))
		full, halves := wantTable, wantTable
		for _, gt := range ands {
			if gt.Op == circuit.AND {
				halves = halves[b*TableSize:]
			}
		}
		for i, gt := range ands {
			gid := uint64(gidBase + i)
			for s := 0; s < b; s++ {
				a, bb, o := int(gt.A)*b+s, int(gt.B)*b+s, int(gt.Out)*b+s
				tab, c0 := textbookGarble(h, zero[a], zero[bb], g.R[s], gid, gt.Op == circuit.HalfAND)
				if gt.Op == circuit.HalfAND {
					seenPB[zero[bb].LSB()] = true
					copy(halves, tab)
					halves = halves[LabelSize:]
				} else {
					copy(full, tab)
					full = full[TableSize:]
				}
				zero[o] = c0
				active[o] = textbookEval(h, active[a], active[bb], gid, tab)
			}
		}
		for _, gt := range frees {
			for s := 0; s < b; s++ {
				a, o := int(gt.A)*b+s, int(gt.Out)*b+s
				if gt.Op == circuit.XOR {
					zero[o] = zero[a].XOR(zero[int(gt.B)*b+s])
					active[o] = active[a].XOR(active[int(gt.B)*b+s])
				} else {
					zero[o] = zero[a].XOR(g.R[s])
					active[o] = active[a]
				}
			}
		}

		// The level kernels.
		table := make([]byte, len(wantTable))
		if err := g.GarbleLevel(ands, frees, gidBase, table, NewPool(1)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(table, wantTable) {
			t.Fatalf("B=%d: GarbleLevel tables differ from the textbook oracle's", b)
		}
		if !labelsEqual(g.labels, zero) {
			t.Fatalf("B=%d: GarbleLevel zero-labels differ from the textbook oracle's", b)
		}
		e, err := NewBatchEvaluator(b)
		if err != nil {
			t.Fatal(err)
		}
		e.Grow(wires)
		for w := uint32(2); w < 2+oracleInputs; w++ {
			for s := 0; s < b; s++ {
				e.SetLabel(w, s, active[int(w)*b+s])
			}
		}
		if err := e.EvaluateLevel(ands, frees, gidBase, table, NewPool(1)); err != nil {
			t.Fatal(err)
		}
		for _, gt := range append(append([]circuit.Gate{}, ands...), frees...) {
			for s := 0; s < b; s++ {
				if got, _ := e.Label(gt.Out, s); got != active[int(gt.Out)*b+s] {
					t.Fatalf("B=%d sample %d: EvaluateLevel's %v output differs from the textbook oracle's", b, s, gt.Op)
				}
			}
		}

		if b != 1 {
			continue
		}
		// The per-gate faces, one gate at a time from the same seed.
		rng = rand.New(rand.NewSource(int64(900 + b)))
		oracleLevel(rng)
		pg, err := NewGarbler(rng)
		if err != nil {
			t.Fatal(err)
		}
		pe := NewEvaluator()
		for w := uint32(2); w < 2+oracleInputs; w++ {
			if _, err := pg.AssignInput(w); err != nil {
				t.Fatal(err)
			}
			pe.SetLabel(w, active[w])
		}
		pg.gid, pe.gid = gidBase, gidBase
		var stream []byte
		for _, gt := range append(append([]circuit.Gate{}, ands...), frees...) {
			if stream, err = pg.Garble(gt, stream); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(stream, wantTable) {
			t.Fatal("per-gate Garble tables differ from the textbook oracle's")
		}
		rest := stream
		for _, gt := range append(append([]circuit.Gate{}, ands...), frees...) {
			if rest, err = pe.Eval(gt, rest); err != nil {
				t.Fatal(err)
			}
			if z, _ := pg.ZeroLabel(gt.Out); z != zero[gt.Out] {
				t.Fatalf("per-gate Garble's %v zero-label differs from the textbook oracle's", gt.Op)
			}
			if l, _ := pe.Label(gt.Out); l != active[gt.Out] {
				t.Fatalf("per-gate Eval's %v output differs from the textbook oracle's", gt.Op)
			}
		}
	}
	if !seenPB[false] || !seenPB[true] {
		t.Fatal("the half ANDs saw one permute bit only")
	}
}

// TestFailedLevelWritesNothing: a level run that fails on gate k — an
// operand without a label, or an output past grown storage, among its AND
// or its free gates — returns the error before writing anything, so no
// output wire of the level is live and the table block is byte-for-byte
// as it was, on both sides, at B ∈ {1, 16}.
func TestFailedLevelWritesNothing(t *testing.T) {
	for _, b := range []int{1, 16} {
		for _, tc := range []struct {
			name string
			bad  func(ands, frees []circuit.Gate)
		}{
			{"full AND reads a dead wire", func(ands, _ []circuit.Gate) { ands[3].B = 60 }},
			{"half AND reads a dead wire", func(ands, _ []circuit.Gate) { ands[6].A = 60 }},
			{"XOR reads a dead wire", func(_, frees []circuit.Gate) { frees[2].B = 60 }},
			{"INV writes past grown storage", func(_, frees []circuit.Gate) { frees[5].Out = 1 << 20 }},
		} {
			t.Run(fmt.Sprintf("B=%d/%s", b, tc.name), func(t *testing.T) {
				ands, frees, wires := oracleLevel(rand.New(rand.NewSource(77)))
				tc.bad(ands, frees)
				g, err := NewBatchGarbler(rand.New(rand.NewSource(78)), b)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewBatchEvaluator(b)
				if err != nil {
					t.Fatal(err)
				}
				g.Grow(wires + 64)
				e.Grow(wires + 64)
				for w := uint32(2); w < 2+oracleInputs; w++ {
					if err := g.AssignInput(w); err != nil {
						t.Fatal(err)
					}
					for s := 0; s < b; s++ {
						l, _ := g.ZeroLabel(w, s)
						e.SetLabel(w, s, l)
					}
				}
				pristine := bytes.Repeat([]byte{0xee}, packedBytes(ands, b))
				for _, run := range []struct {
					side  string
					level func([]byte) error
					live  func(w uint32) error
				}{
					{"GarbleLevel", func(tab []byte) error { return g.GarbleLevel(ands, frees, 0, tab, NewPool(4)) },
						func(w uint32) error { _, err := g.ZeroLabel(w, 0); return err }},
					{"EvaluateLevel", func(tab []byte) error { return e.EvaluateLevel(ands, frees, 0, tab, NewPool(4)) },
						func(w uint32) error { _, err := e.Label(w, 0); return err }},
				} {
					table := append([]byte(nil), pristine...)
					if err := run.level(table); err == nil {
						t.Fatalf("%s accepted the broken level", run.side)
					}
					if !bytes.Equal(table, pristine) {
						t.Fatalf("%s wrote into the table block of a level it refused", run.side)
					}
					for _, gt := range append(append([]circuit.Gate{}, ands...), frees...) {
						if run.live(gt.Out) == nil {
							t.Fatalf("%s left output wire %d of a refused level live", run.side, gt.Out)
						}
					}
				}
			})
		}
	}
}

package gc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
)

// hashT is the garbling hash under the tweak (t, o): AES keyed with
// 2L ⊕ (t, o), t in the block's low word and the sample ordinal o in its
// high word. At o = 0 it is H(L, t).
func hashT(h *Hasher, l Label, t, o uint64) Label {
	k := dbl(blockAt(l[:]))
	k.lo ^= t
	k.hi ^= o
	return h.hashKey(k).label()
}

// textbookGarble is the half-gates AND garbler as Zahur, Rosulek and Evans
// write it, on Label values and the scalar hash: for zero-labels A0, B0,
// delta R, permute bits pa, pb and tweaks j = (2·gid, o), j' = (2·gid+1, o)
// for the sample of ordinal o,
//
//	TG = H(A0, j) ⊕ H(A1, j) ⊕ pb·R      W_G = H(A0, j) ⊕ pa·TG
//	TE = H(B0, j') ⊕ H(B1, j') ⊕ A0      W_E = H(B0, j') ⊕ pb·(TE ⊕ A0)
//
// and the output zero-label is W_G ⊕ W_E, the table TG ‖ TE. A half AND is
// the evaluator half alone: table TE, output W_E.
func textbookGarble(h *Hasher, a0, b0, r Label, gid, o uint64, half bool) (table []byte, c0 Label) {
	j, j1 := 2*gid, 2*gid+1
	te := hashT(h, b0, j1, o).XOR(hashT(h, b0.XOR(r), j1, o)).XOR(a0)
	we := hashT(h, b0, j1, o)
	if b0.LSB() {
		we = we.XOR(te.XOR(a0))
	}
	if half {
		return te[:], we
	}
	tg := hashT(h, a0, j, o).XOR(hashT(h, a0.XOR(r), j, o))
	if b0.LSB() {
		tg = tg.XOR(r)
	}
	wg := hashT(h, a0, j, o)
	if a0.LSB() {
		wg = wg.XOR(tg)
	}
	return append(tg[:], te[:]...), wg.XOR(we)
}

// textbookEval is its evaluator: on active labels A, B with colours sa, sb,
// W_G = H(A, j) ⊕ sa·TG and W_E = H(B, j') ⊕ sb·(TE ⊕ A); the output is
// W_G ⊕ W_E, or W_E alone for a half AND's one-ciphertext table.
func textbookEval(h *Hasher, a, b Label, gid, o uint64, table []byte) Label {
	var wg Label
	if len(table) == TableSize {
		var tg Label
		copy(tg[:], table)
		wg = hashT(h, a, 2*gid, o)
		if a.LSB() {
			wg = wg.XOR(tg)
		}
		table = table[LabelSize:]
	}
	var te Label
	copy(te[:], table)
	we := hashT(h, b, 2*gid+1, o)
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

// TestKernelMatchesTextbookOracle pins the one kernel — the level kernels,
// the same level run as split spans, and, at B = 1, the level run a gate a
// level (garbleGate, evalGate) — to textbookGarble and textbookEval:
// tables, garbler zero-labels and evaluator labels of one mixed level, at
// B ∈ {1, 3, 16}.
// A fresh state numbers its samples from 0, so sample s hashes under the
// ordinal s. Inputs are assigned party-blind, so the half ANDs see both
// permute bits on B (TestHalfANDAnyPermuteBit's case).
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
		zero := g.snapshot()
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
				tab, c0 := textbookGarble(h, zero[a], zero[bb], g.R[s], gid, uint64(s), gt.Op == circuit.HalfAND)
				if gt.Op == circuit.HalfAND {
					seenPB[zero[bb].LSB()] = true
					copy(halves, tab)
					halves = halves[LabelSize:]
				} else {
					copy(full, tab)
					full = full[TableSize:]
				}
				zero[o] = c0
				active[o] = textbookEval(h, active[a], active[bb], gid, uint64(s), tab)
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
		if !labelsEqual(g.snapshot(), zero) {
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

		// The same level as the split spans a fanned-out run hands its
		// workers, from the same seed: AND spans [0,1) [1,3) [3,6) [6,8),
		// so at B ∈ {1, 3} the first cut falls inside a hash wave of the
		// whole run, and [3,6) crosses the full→half seam at 5.
		ac, fc := []int{0, 1, 3, 6, 8}, []int{0, 2, 2, 5, 7}
		rng = rand.New(rand.NewSource(int64(900 + b)))
		oracleLevel(rng)
		sg, err := NewBatchGarbler(rng, b)
		if err != nil {
			t.Fatal(err)
		}
		sg.Grow(wires)
		for w := uint32(2); w < 2+oracleInputs; w++ {
			if err := sg.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		se, err := NewBatchEvaluator(b)
		if err != nil {
			t.Fatal(err)
		}
		se.Grow(wires)
		for w := uint32(2); w < 2+oracleInputs; w++ {
			for s := 0; s < b; s++ {
				se.SetLabel(w, s, active[int(w)*b+s])
			}
		}
		splitTable := make([]byte, len(wantTable))
		if err := sg.prepare(ands, frees, gidBase, splitTable); err != nil {
			t.Fatal(err)
		}
		for k := 0; k+1 < len(ac); k++ {
			span(sg, &sg.lv, ac[k], ac[k+1], fc[k], fc[k+1])
		}
		if err := se.prepare(ands, frees, gidBase, wantTable); err != nil {
			t.Fatal(err)
		}
		for k := 0; k+1 < len(ac); k++ {
			span(se, &se.lv, ac[k], ac[k+1], fc[k], fc[k+1])
		}
		if !bytes.Equal(splitTable, wantTable) || !labelsEqual(sg.snapshot(), zero) {
			t.Fatalf("B=%d: split garbling spans differ from the textbook oracle", b)
		}
		if !labelsEqual(se.snapshot(), e.snapshot()) {
			t.Fatalf("B=%d: split evaluation spans differ from the textbook oracle", b)
		}

		if b != 1 {
			continue
		}
		// The level a gate a level, from the same seed.
		rng = rand.New(rand.NewSource(int64(900 + b)))
		oracleLevel(rng)
		pg, err := NewBatchGarbler(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := NewBatchEvaluator(1)
		if err != nil {
			t.Fatal(err)
		}
		for w := uint32(2); w < 2+oracleInputs; w++ {
			if err := pg.AssignInput(w); err != nil {
				t.Fatal(err)
			}
			pe.SetLabel(w, 0, active[w])
		}
		gGID, eGID := uint64(gidBase), uint64(gidBase)
		var stream []byte
		for _, gt := range append(append([]circuit.Gate{}, ands...), frees...) {
			if stream, err = garbleGate(pg, &gGID, gt, stream); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(stream, wantTable) {
			t.Fatal("tables garbled a gate a level differ from the textbook oracle's")
		}
		rest := stream
		for _, gt := range append(append([]circuit.Gate{}, ands...), frees...) {
			if rest, err = evalGate(pe, &eGID, gt, rest); err != nil {
				t.Fatal(err)
			}
			if z, _ := pg.ZeroLabel(gt.Out, 0); z != zero[gt.Out] {
				t.Fatalf("a %v garbled as a level of its own has another zero-label than the textbook oracle's", gt.Op)
			}
			if l, _ := pe.Label(gt.Out, 0); l != active[gt.Out] {
				t.Fatalf("a %v evaluated as a level of its own has another output than the textbook oracle's", gt.Op)
			}
		}
	}
	if !seenPB[false] || !seenPB[true] {
		t.Fatal("the half ANDs saw one permute bit only")
	}
}

// TestKernelSessionDeltaMatchesOracle is the oracle's session case: two
// inferences of one session, of B = 3 and B = 2 samples, garble one mixed
// level under the session's one delta, numbered from the ordinals 5 and 8
// — the weight wire 2 broadcast in every sample, the other inputs fresh.
// Every table and label must be the textbook's under (gid, first+s).
func TestKernelSessionDeltaMatchesOracle(t *testing.T) {
	const gidBase = 40
	h := NewHasher()
	rng := rand.New(rand.NewSource(950))
	delta, err := RandomDelta(rng)
	if err != nil {
		t.Fatal(err)
	}
	weight, err := RandomLabel(rng)
	if err != nil {
		t.Fatal(err)
	}
	weight[0] &^= 1 // an evaluator input's zero-label has colour 0
	ands, frees, wires := oracleLevel(rng)
	for _, inf := range []struct {
		b     int
		first uint64
	}{{3, 5}, {2, 8}} {
		b := inf.b
		g, err := NewSessionGarbler(rng, delta, b)
		if err != nil {
			t.Fatal(err)
		}
		g.SetFirst(inf.first)
		g.Grow(wires)
		g.Broadcast(2, weight)
		for w := uint32(3); w < 2+oracleInputs; w++ {
			if err := g.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		zero := g.snapshot()
		for s := 0; s < b; s++ {
			if g.R[s] != delta || zero[2*b+s] != weight {
				t.Fatalf("first %d sample %d: not under the session's delta and weight label", inf.first, s)
			}
		}
		active := make([]Label, len(zero))
		for w := 2; w < 2+oracleInputs; w++ {
			for s := 0; s < b; s++ {
				active[w*b+s] = zero[w*b+s]
				if rng.Intn(2) == 1 {
					active[w*b+s] = active[w*b+s].XOR(delta)
				}
			}
		}
		var want []byte
		for _, half := range []bool{false, true} {
			for i, gt := range ands {
				if (gt.Op == circuit.HalfAND) != half {
					continue
				}
				for s := 0; s < b; s++ {
					a, bb, o := int(gt.A)*b+s, int(gt.B)*b+s, int(gt.Out)*b+s
					tab, c0 := textbookGarble(h, zero[a], zero[bb], delta, uint64(gidBase+i), inf.first+uint64(s), half)
					want = append(want, tab...)
					zero[o] = c0
					active[o] = textbookEval(h, active[a], active[bb], uint64(gidBase+i), inf.first+uint64(s), tab)
				}
			}
		}
		table := make([]byte, len(want))
		if err := g.GarbleLevel(ands, frees, gidBase, table, NewPool(1)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(table, want) {
			t.Fatalf("first %d: GarbleLevel tables differ from the textbook oracle's", inf.first)
		}
		e, err := NewBatchEvaluator(b)
		if err != nil {
			t.Fatal(err)
		}
		e.SetFirst(inf.first)
		e.Grow(wires)
		for w := uint32(2); w < 2+oracleInputs; w++ {
			for s := 0; s < b; s++ {
				e.SetLabel(w, s, active[int(w)*b+s])
			}
		}
		if err := e.EvaluateLevel(ands, frees, gidBase, table, NewPool(1)); err != nil {
			t.Fatal(err)
		}
		for _, gt := range ands {
			for s := 0; s < b; s++ {
				if got, _ := e.Label(gt.Out, s); got != active[int(gt.Out)*b+s] {
					t.Fatalf("first %d sample %d: EvaluateLevel's %v output differs from the textbook oracle's", inf.first, s, gt.Op)
				}
			}
		}
	}
}

// TestInversionSlot: an INV reads the inversion slot behind the last wire,
// which holds R on the garbler, so the slot must never reach the protocol.
// Reading its index fails on both parties, through every read face, while
// the wire before it reads. And a B = 3 INV-only level computes what the
// textbook says — zero-label ⊕ R on the garbler, the active label carried
// through on the evaluator — which a level of ANDs over its outputs then
// matches against textbookGarble and textbookEval.
func TestInversionSlot(t *testing.T) {
	const b, gidBase = 3, 7
	rng := rand.New(rand.NewSource(84))
	g, err := NewBatchGarbler(rng, b)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBatchEvaluator(b)
	if err != nil {
		t.Fatal(err)
	}
	// Wires 2..5 are inputs, INVs write 6..9 and the ANDs over them 10..13.
	const wires = 14
	g.Grow(wires)
	e.Grow(wires)
	ins := []uint32{2, 3, 4, 5}
	if err := g.AssignInputs(ins, false); err != nil {
		t.Fatal(err)
	}
	bits := map[uint32][]bool{}
	for _, w := range ins {
		for s := 0; s < b; s++ {
			bit := rng.Intn(2) == 1
			bits[w] = append(bits[w], bit)
			l, _ := g.ActiveLabel(w, s, bit)
			e.SetLabel(w, s, l)
		}
	}
	for s := 0; s < b; s++ {
		if _, err := g.ZeroLabel(wires-1, s); err != nil {
			t.Fatal(err)
		}
		if _, err := g.ZeroLabel(wires, s); err == nil {
			t.Fatalf("sample %d: ZeroLabel read the garbler's inversion slot", s)
		}
		if _, err := g.ActiveLabel(wires, s, false); err == nil {
			t.Fatalf("sample %d: ActiveLabel read the garbler's inversion slot", s)
		}
		if _, err := e.Label(wires, s); err == nil {
			t.Fatalf("sample %d: Label read the evaluator's inversion slot", s)
		}
	}

	invs := []circuit.Gate{
		{Op: circuit.INV, A: 2, Out: 6}, {Op: circuit.INV, A: 3, Out: 7},
		{Op: circuit.INV, A: 4, Out: 8}, {Op: circuit.INV, A: 2, Out: 9},
	}
	pool := NewPool(1)
	if err := g.GarbleLevel(nil, invs, 0, nil, pool); err != nil {
		t.Fatal(err)
	}
	if err := e.EvaluateLevel(nil, invs, 0, nil, pool); err != nil {
		t.Fatal(err)
	}
	for _, gt := range invs {
		bits[gt.Out] = make([]bool, b)
		for s := 0; s < b; s++ {
			bits[gt.Out][s] = !bits[gt.A][s]
			z, _ := g.ZeroLabel(gt.Out, s)
			za, _ := g.ZeroLabel(gt.A, s)
			got, _ := e.Label(gt.Out, s)
			want, _ := g.ActiveLabel(gt.Out, s, bits[gt.Out][s])
			if z != za.XOR(g.R[s]) || got != want {
				t.Fatalf("INV %d→%d sample %d: labels differ from the textbook's", gt.A, gt.Out, s)
			}
		}
	}

	ands := []circuit.Gate{
		{Op: circuit.AND, A: 6, B: 7, Out: 10}, {Op: circuit.AND, A: 8, B: 5, Out: 11},
		{Op: circuit.HalfAND, A: 9, B: 6, Out: 12}, {Op: circuit.HalfAND, A: 7, B: 8, Out: 13},
	}
	table := make([]byte, packedBytes(ands, b))
	if err := g.GarbleLevel(ands, nil, gidBase, table, pool); err != nil {
		t.Fatal(err)
	}
	if err := e.EvaluateLevel(ands, nil, gidBase, table, pool); err != nil {
		t.Fatal(err)
	}
	h := NewHasher()
	var want []byte
	for _, half := range []bool{false, true} {
		for i, gt := range ands {
			if (gt.Op == circuit.HalfAND) != half {
				continue
			}
			for s := 0; s < b; s++ {
				za, _ := g.ZeroLabel(gt.A, s)
				zb, _ := g.ZeroLabel(gt.B, s)
				tab, c0 := textbookGarble(h, za, zb, g.R[s], uint64(gidBase+i), uint64(s), half)
				want = append(want, tab...)
				la, _ := e.Label(gt.A, s)
				lb, _ := e.Label(gt.B, s)
				if z, _ := g.ZeroLabel(gt.Out, s); z != c0 {
					t.Fatalf("AND %d sample %d: zero-label differs from textbookGarble's", i, s)
				}
				if got, _ := e.Label(gt.Out, s); got != textbookEval(h, la, lb, uint64(gidBase+i), uint64(s), tab) {
					t.Fatalf("AND %d sample %d: output differs from textbookEval's", i, s)
				}
			}
		}
	}
	if !bytes.Equal(table, want) {
		t.Fatal("the ANDs over INV outputs garbled other tables than textbookGarble")
	}
}

// oracleSchedule lays a level of oracleLevel's shape out as a schedule of
// numWires wires: the garbler's input step for the oracle's inputs, then a
// run of that one level.
func oracleSchedule(ands, frees []circuit.Gate, numWires uint32) *circuit.Schedule {
	ins := make([]uint32, oracleInputs)
	for i := range ins {
		ins[i] = 2 + uint32(i)
	}
	lv := circuit.Level{ANDs: len(ands), Frees: len(frees)}
	for _, gt := range ands {
		if gt.Op == circuit.HalfAND {
			lv.Halves++
		}
	}
	return &circuit.Schedule{
		Steps: []circuit.Step{
			{Kind: circuit.StepInputs, Wires: ins},
			{Kind: circuit.StepLevels, N: 1, TableBytes: lv.TableBytes()},
		},
		Levels:   []circuit.Level{lv},
		Gates:    append(append([]circuit.Gate{}, ands...), frees...),
		NumWires: numWires,
		ANDs:     int64(lv.ANDs),
		Halves:   int64(lv.Halves),
	}
}

// TestFailedLevelWritesNothing: a level is refused either when its schedule
// is checked — an operand without a label or an output past the namespace,
// among its AND or its free gates, which circuit.Schedule.Check refuses
// before any engine sees the schedule — or, for the one thing the peer
// sets, when the kernel finds its table block short. Either way no label
// and no table byte is written, on both sides, at B ∈ {1, 16}.
func TestFailedLevelWritesNothing(t *testing.T) {
	for _, b := range []int{1, 16} {
		for _, tc := range []struct {
			name  string
			bad   func(ands, frees []circuit.Gate)
			short int // bytes the table block falls short by
		}{
			{"full AND reads a dead wire", func(ands, _ []circuit.Gate) { ands[3].B = 60 }, 0},
			{"half AND reads a dead wire", func(ands, _ []circuit.Gate) { ands[6].A = 60 }, 0},
			{"XOR reads a dead wire", func(_, frees []circuit.Gate) { frees[2].B = 60 }, 0},
			{"INV writes past grown storage", func(_, frees []circuit.Gate) { frees[5].Out = 1 << 20 }, 0},
			{"table block one byte short", func([]circuit.Gate, []circuit.Gate) {}, 1},
		} {
			t.Run(fmt.Sprintf("B=%d/%s", b, tc.name), func(t *testing.T) {
				ands, frees, wires := oracleLevel(rand.New(rand.NewSource(77)))
				tc.bad(ands, frees)
				sched := oracleSchedule(ands, frees, wires+64)
				g, err := NewBatchGarbler(rand.New(rand.NewSource(78)), b)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewBatchEvaluator(b)
				if err != nil {
					t.Fatal(err)
				}
				g.Grow(sched.NumWires)
				e.Grow(sched.NumWires)
				if err := g.AssignInputs(sched.Steps[0].Wires, false); err != nil {
					t.Fatal(err)
				}
				for _, w := range sched.Steps[0].Wires {
					for s := 0; s < b; s++ {
						l, _ := g.ZeroLabel(w, s)
						e.SetLabel(w, s, l)
					}
				}
				pristine := bytes.Repeat([]byte{0xee}, packedBytes(ands, b)-tc.short)
				for _, run := range []struct {
					side  string
					store *labelStore
					level func([]byte) error
				}{
					{"GarbleLevel", &g.labelStore, func(tab []byte) error { return g.GarbleLevel(ands, frees, 0, tab, NewPool(4)) }},
					{"EvaluateLevel", &e.labelStore, func(tab []byte) error { return e.EvaluateLevel(ands, frees, 0, tab, NewPool(4)) }},
				} {
					labels := run.store.snapshot()
					table := append([]byte(nil), pristine...)
					err := sched.Check()
					if (err == nil) != (tc.short > 0) {
						t.Fatalf("Check: %v, want an error exactly when the gates are doctored", err)
					}
					if err == nil {
						err = run.level(table)
					}
					if err == nil {
						t.Fatalf("%s accepted the broken level", run.side)
					}
					if !bytes.Equal(table, pristine) {
						t.Fatalf("%s wrote into the table block of a level it refused", run.side)
					}
					if !labelsEqual(run.store.snapshot(), labels) {
						t.Fatalf("%s wrote a label of a level it refused", run.side)
					}
				}
			})
		}
	}
}

// TestInlineLevelAllocatesNothing: a level too small to fan out runs on the
// calling goroutine — even on a pool four workers wide — and allocates
// nothing on either side, at B ∈ {1, 16}.
func TestInlineLevelAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	pool := NewPool(4)
	for _, b := range []int{1, 16} {
		rng := rand.New(rand.NewSource(80))
		ands, frees, wires := oracleLevel(rng)
		g, err := NewBatchGarbler(rng, b)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewBatchEvaluator(b)
		if err != nil {
			t.Fatal(err)
		}
		g.Grow(wires)
		e.Grow(wires)
		for w := uint32(2); w < 2+oracleInputs; w++ {
			if err := g.AssignInput(w); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < b; s++ {
				l, _ := g.ZeroLabel(w, s)
				e.SetLabel(w, s, l)
			}
		}
		table := make([]byte, packedBytes(ands, b))
		for side, level := range map[string]func() error{
			"GarbleLevel":   func() error { return g.GarbleLevel(ands, frees, 0, table, pool) },
			"EvaluateLevel": func() error { return e.EvaluateLevel(ands, frees, 0, table, pool) },
		} {
			if n := testing.AllocsPerRun(100, func() {
				if err := level(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("B=%d: %s allocates %v times per level", b, side, n)
			}
		}
	}
}

// kernelBenchLevel is one level with tanh_lan's gate mix — 184 917 XOR,
// 6 456 INV, 36 071 full and 33 772 half ANDs over the whole netlist —
// scaled down 64-fold, over 1 024 input wires (the last 256 the
// evaluator's, read by the half ANDs as B): full ANDs, then half ANDs, then
// the free gates, each with its own output wire.
func kernelBenchLevel(rng *rand.Rand) (ands, frees []circuit.Gate, ins []uint32, wires uint32) {
	const nIn, nEval = 1024, 256
	for w := uint32(2); w < 2+nIn; w++ {
		ins = append(ins, w)
	}
	garbler := func() uint32 { return 2 + uint32(rng.Intn(nIn-nEval)) }
	wire := func() uint32 { return 2 + uint32(rng.Intn(nIn)) }
	next := uint32(2 + nIn)
	add := func(dst *[]circuit.Gate, op circuit.Op, n int, a, b func() uint32) {
		for i := 0; i < n; i++ {
			*dst = append(*dst, circuit.Gate{Op: op, A: a(), B: b(), Out: next})
			next++
		}
	}
	evaluator := func() uint32 { return 2 + nIn - nEval + uint32(rng.Intn(nEval)) }
	add(&ands, circuit.AND, 36071/64, wire, wire)
	add(&ands, circuit.HalfAND, 33772/64, garbler, evaluator)
	add(&frees, circuit.XOR, 184917/64, wire, wire)
	add(&frees, circuit.INV, 6456/64, wire, wire)
	rng.Shuffle(len(frees), func(i, j int) { frees[i], frees[j] = frees[j], frees[i] })
	return ands, frees, ins, next
}

// BenchmarkLevelKernel times the level kernels on kernelBenchLevel inline
// (a pool of width 1), garbling and evaluating, at B ∈ {1, 16}, and reports
// the time per gate-instance (a gate of the level times B): the whole level
// (garble/B=1), and each kind of gate in it alone, full ANDs, half ANDs and
// free gates (garble/full/B=1, …), so that a kernel's time can be
// attributed per kind without a profiler.
func BenchmarkLevelKernel(b *testing.B) {
	for _, batch := range []int{1, 16} {
		rng := rand.New(rand.NewSource(83))
		ands, frees, ins, wires := kernelBenchLevel(rng)
		g, err := NewBatchGarbler(rng, batch)
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewBatchEvaluator(batch)
		if err != nil {
			b.Fatal(err)
		}
		g.Grow(wires)
		e.Grow(wires)
		if err := g.AssignInputs(ins, false); err != nil {
			b.Fatal(err)
		}
		for _, w := range ins {
			for s := 0; s < batch; s++ {
				l, _ := g.ZeroLabel(w, s)
				e.SetLabel(w, s, l)
			}
		}
		pool := NewPool(1)
		nFull := 36071 / 64
		for _, kind := range []struct {
			name        string
			ands, frees []circuit.Gate
		}{
			{"", ands, frees},
			{"full/", ands[:nFull], nil},
			{"half/", ands[nFull:], nil},
			{"free/", nil, frees},
		} {
			table := make([]byte, packedBytes(kind.ands, batch))
			instances := float64((len(kind.ands) + len(kind.frees)) * batch)
			for _, run := range []struct {
				side  string
				level func() error
			}{
				{"garble", func() error { return g.GarbleLevel(kind.ands, kind.frees, 0, table, pool) }},
				{"evaluate", func() error { return e.EvaluateLevel(kind.ands, kind.frees, 0, table, pool) }},
			} {
				b.Run(fmt.Sprintf("%s/%sB=%d", run.side, kind.name, batch), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := run.level(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*instances), "ns/gate")
				})
			}
		}
	}
}

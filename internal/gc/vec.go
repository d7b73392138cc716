package gc

import (
	"fmt"
	"io"
	"sort"

	"deepsecure/internal/circuit"
)

// This file is the level kernel of the GC engine: one garbling state
// covering B ≥ 1 independent sample instances of the same circuit, which
// is what every session inference runs on (a lone inference is B=1).
// Labels are stored structure-of-arrays — B contiguous labels per wire
// slot, sample s of wire w at labels[w*B+s] — so the kernel walks the
// gate schedule ONCE per level and iterates samples innermost: one tweak
// derivation, one gate decode, and one bounds check per gate for all B
// samples, with the B label loads/stores on adjacent cache lines. Every
// sample has its own fresh Free-XOR delta and fresh wire labels, so the
// transcript of each sample is exactly what a lone inference would
// produce under the same randomness — batching amortizes the schedule
// walk, not the cryptography. The per-gate faces Garbler.Garble and
// Evaluator.Eval are this state at B=1 running one-gate levels, and the
// tests pin both against a textbook half-gates oracle.
//
// The kernel (batch.go) reads a gate's input labels in place when it
// completes the gate, not when it stages it: level independence — no gate
// of a level reads a wire another gate of the level writes — makes the two
// reads agree, so staging copies indices, never labels. A level run is
// checked whole before anything is written (labelStore.prepare), so one
// that fails leaves the labels, their liveness and the table untouched.
//
// The garbled tables of a level are likewise interleaved gate-major with
// samples innermost, one region per gate kind: full AND rank i, sample s
// writes its two ciphertexts at (i*B+s)*TableSize, and behind the last of
// those the j-th half AND writes its one at (j*B+s)*LabelSize. Both
// parties derive the layout from the schedule and B alone.

// BatchGarbler is the garbling state for one inference of B independent
// samples.
type BatchGarbler struct {
	// R holds the per-sample Free-XOR deltas (len B): samples are
	// cryptographically independent instances, exactly as if each ran its
	// own inference.
	R []Label
	// r2 caches double(R[s]) per sample: doubling is GF(2)-linear, so
	// 2(L⊕R) = 2L ⊕ 2R and every one-label's hash key derives from its
	// zero-label's double with one XOR instead of a second doubling.
	r2 []Label

	labelStore // the zero-labels
	rng        io.Reader
	buf        []byte // randomness staging for bulk label draws

	// Stats count gate-instances: each gate contributes B to the counter,
	// matching the AES work done and the table bytes on the wire.
	ANDGates  int64
	FreeGates int64
}

// NewBatchGarbler creates a garbler for a batch of b samples, drawing
// each sample's delta and constant-wire labels from rng in the same
// order a single-inference Garbler would (at b=1 the rng consumption is
// identical to NewGarbler's).
func NewBatchGarbler(rng io.Reader, b int) (*BatchGarbler, error) {
	if b < 1 {
		return nil, fmt.Errorf("gc: batch size %d < 1", b)
	}
	g := &BatchGarbler{labelStore: labelStore{b: b}, rng: rng, R: make([]Label, b), r2: make([]Label, b)}
	for s := range g.R {
		r, err := RandomDelta(rng)
		if err != nil {
			return nil, err
		}
		g.R[s] = r
		g.r2[s] = double(r)
	}
	for _, w := range []uint32{circuit.WFalse, circuit.WTrue} {
		if err := g.AssignInput(w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// labelStore is the label array both batch states keep: B contiguous
// labels per wire slot, sample s of wire w at labels[w*b+s], and per wire
// whether it carries a value (all B samples assign and drop together).
type labelStore struct {
	b      int
	labels []Label
	have   []bool
}

// B returns the batch size.
func (st *labelStore) B() int { return st.b }

func (st *labelStore) ensure(w uint32) {
	for uint32(len(st.have)) <= w {
		st.labels = append(st.labels, make([]Label, st.b)...)
		st.have = append(st.have, false)
	}
}

// Grow pre-sizes label storage for wires [0, n) in one exact-size
// allocation. The level kernels never grow storage themselves (growth
// would race between workers), so the engine must Grow to the schedule's
// namespace once per inference; the exact size also spares a fresh state
// the ~2× append-doubling garbage of the incremental ensure.
func (st *labelStore) Grow(n uint32) {
	if uint32(len(st.have)) >= n {
		return
	}
	labels := make([]Label, int(n)*st.b)
	copy(labels, st.labels)
	st.labels = labels
	have := make([]bool, n)
	copy(have, st.have)
	st.have = have
}

// Drop forgets all B labels of a dead wire (its id may be recycled).
func (st *labelStore) Drop(w uint32) {
	if uint32(len(st.have)) > w {
		st.have[w] = false
	}
}

// live returns an error unless wire w carries a value.
func (st *labelStore) live(w uint32) error {
	if w < uint32(len(st.have)) && st.have[w] {
		return nil
	}
	return fmt.Errorf("gc: batch state has no label for wire %d", w)
}

// prepare lays a level run out over table — where the half ANDs start in
// ands, and where their region does — and checks, before the kernel writes
// anything, that table holds the packed block for B samples, that every
// operand carries a value, that every output lies in grown storage and
// that every free gate is an XOR or INV.
func (st *labelStore) prepare(ands, frees []circuit.Gate, gidBase uint64, table []byte) (level, error) {
	nFull := sort.Search(len(ands), func(i int) bool { return ands[i].Op == circuit.HalfAND })
	split := nFull * st.b * TableSize
	if need := split + (len(ands)-nFull)*st.b*LabelSize; len(table) < need {
		return level{}, fmt.Errorf("gc: level table block is %d bytes, want %d", len(table), need)
	}
	have := st.have
	for i := range ands {
		if gt := &ands[i]; !valid(have, gt, true) {
			return level{}, st.invalid(gt, true)
		}
	}
	for i := range frees {
		gt := &frees[i]
		if gt.Op != circuit.XOR && gt.Op != circuit.INV {
			return level{}, fmt.Errorf("gc: cannot run op %v as a free gate", gt.Op)
		}
		if !valid(have, gt, gt.Op == circuit.XOR) {
			return level{}, st.invalid(gt, gt.Op == circuit.XOR)
		}
	}
	return level{ands: ands, frees: frees, gidBase: gidBase, nFull: nFull, full: table[:split], half: table[split:]}, nil
}

// valid reports whether gt's operands (B only for a two-input gate) carry
// values and its output lies in grown storage; invalid says which does not.
func valid(have []bool, gt *circuit.Gate, twoInputs bool) bool {
	n := uint32(len(have))
	return gt.Out < n && gt.A < n && have[gt.A] && (!twoInputs || gt.B < n && have[gt.B])
}

func (st *labelStore) invalid(gt *circuit.Gate, twoInputs bool) error {
	if err := st.live(gt.A); err != nil {
		return err
	}
	if twoInputs {
		if err := st.live(gt.B); err != nil {
			return err
		}
	}
	return fmt.Errorf("gc: batch label storage not grown past wire %d", gt.Out)
}

// AssignInput draws B fresh zero-labels for wire w, sample-innermost
// from the shared rng (sample 0 first — the order a serial run of B
// single inferences would only match at B=1, which is the conformance
// case).
func (g *BatchGarbler) AssignInput(w uint32) error {
	g.ensure(w)
	need := g.b * LabelSize
	if cap(g.buf) < need {
		g.buf = make([]byte, need)
	}
	buf := g.buf[:need]
	if _, err := io.ReadFull(g.rng, buf); err != nil {
		return fmt.Errorf("gc: label randomness: %w", err)
	}
	base := int(w) * g.b
	for s := 0; s < g.b; s++ {
		copy(g.labels[base+s][:], buf[s*LabelSize:])
	}
	g.have[w] = true
	return nil
}

// AssignEvaluatorInput is AssignInput with permute bit 0 on all B
// zero-labels (see Garbler.AssignEvaluatorInput).
func (g *BatchGarbler) AssignEvaluatorInput(w uint32) error {
	if err := g.AssignInput(w); err != nil {
		return err
	}
	for s := 0; s < g.b; s++ {
		g.labels[int(w)*g.b+s][0] &^= 1
	}
	return nil
}

// ZeroLabel returns sample s's zero-semantics label of wire w.
func (g *BatchGarbler) ZeroLabel(w uint32, s int) (Label, error) {
	if err := g.live(w); err != nil {
		return Label{}, err
	}
	return g.labels[int(w)*g.b+s], nil
}

// ActiveLabel returns sample s's label encoding the given plaintext bit
// on wire w.
func (g *BatchGarbler) ActiveLabel(w uint32, s int, bit bool) (Label, error) {
	l, err := g.ZeroLabel(w, s)
	if err != nil {
		return Label{}, err
	}
	if bit {
		return l.XOR(g.R[s]), nil
	}
	return l, nil
}

// AppendConstLabels appends the batch's constant-wire active labels to
// dst in the protocol's wire-major layout: the B false-labels, then the
// B true-labels.
func (g *BatchGarbler) AppendConstLabels(dst []byte) ([]byte, error) {
	for s := 0; s < g.b; s++ {
		l, err := g.ActiveLabel(circuit.WFalse, s, false)
		if err != nil {
			return dst, err
		}
		dst = append(dst, l[:]...)
	}
	for s := 0; s < g.b; s++ {
		l, err := g.ActiveLabel(circuit.WTrue, s, true)
		if err != nil {
			return dst, err
		}
		dst = append(dst, l[:]...)
	}
	return dst, nil
}

// GarbleLevel garbles one schedule level for all B samples: the i-th AND
// gate has global AND index gidBase+i — the same tweaks for every sample,
// computed once — and sample s writes its ciphertexts at its rank's place
// in its kind's region of table (see the file comment), packed from the
// front; a longer table's tail is left alone. ands may be any contiguous
// run of a level's AND gates. Gates are striped over pool's workers with
// the batch size as the work multiplier. The caller must guarantee level
// independence (distinct output wires, no gate reading a wire another gate
// of the level writes) — which circuit.NewSchedule establishes — and must
// have Grown the garbler past every wire id in the level.
func (g *BatchGarbler) GarbleLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	lv, err := g.prepare(ands, frees, gidBase, table)
	if err != nil {
		return err
	}
	if err := pool.run(len(ands), len(frees), g.b, func(h *Hasher, andLo, andHi, freeLo, freeHi int) {
		g.garbleSpan(h, &lv, andLo, andHi, freeLo, freeHi)
	}); err != nil {
		return err
	}
	g.ANDGates += int64(len(ands) * g.b)
	g.FreeGates += int64(len(frees) * g.b)
	return nil
}

// BatchEvaluator is the evaluation state for one batched inference: the
// B active labels per live wire, stored wire-major like BatchGarbler's.
type BatchEvaluator struct {
	labelStore
}

// NewBatchEvaluator creates an evaluator for a batch of b samples.
func NewBatchEvaluator(b int) (*BatchEvaluator, error) {
	if b < 1 {
		return nil, fmt.Errorf("gc: batch size %d < 1", b)
	}
	return &BatchEvaluator{labelStore{b: b}}, nil
}

// SetLabel installs sample s's active label for wire w (inputs,
// constants). All B samples of a wire must be set before use; the wire
// counts as live once any sample is set.
func (e *BatchEvaluator) SetLabel(w uint32, s int, l Label) {
	e.ensure(w)
	e.labels[int(w)*e.b+s] = l
	e.have[w] = true
}

// Label returns sample s's active label of wire w.
func (e *BatchEvaluator) Label(w uint32, s int) (Label, error) {
	if err := e.live(w); err != nil {
		return Label{}, err
	}
	return e.labels[int(w)*e.b+s], nil
}

// EvaluateLevel evaluates one schedule level for all B samples, the
// mirror of GarbleLevel: every gate-instance consumes its ciphertexts from
// its rank's place in its kind's region of table under the tweaks of
// gidBase+i.
func (e *BatchEvaluator) EvaluateLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	lv, err := e.prepare(ands, frees, gidBase, table)
	if err != nil {
		return err
	}
	return pool.run(len(ands), len(frees), e.b, func(h *Hasher, andLo, andHi, freeLo, freeHi int) {
		e.evalSpan(h, &lv, andLo, andHi, freeLo, freeHi)
	})
}

package gc

import (
	"encoding/binary"
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
// walk, not the cryptography — and at B=1 the tables and labels are
// byte-identical to the per-gate reference Garbler.Garble/Evaluator.Eval
// (pinned by the tests here).
//
// The garbled tables of a level are likewise interleaved gate-major with
// samples innermost, one region per gate kind: full AND rank i, sample s
// writes its two ciphertexts at (i*B+s)*TableSize, and behind the last of
// those the j-th half AND writes its one at (j*B+s)*LabelSize. Both
// parties derive the layout from the schedule and B alone.

// BatchGarbler is the garbling state for one inference of B independent
// samples. It shares the half-gates cryptography (garbleANDWide) with the
// per-gate Garbler.
type BatchGarbler struct {
	// R holds the per-sample Free-XOR deltas (len B): samples are
	// cryptographically independent instances, exactly as if each ran its
	// own inference.
	R []Label
	// r2 caches double(R[s]) per sample (see Garbler.r2): doubling is
	// GF(2)-linear, so every one-label's hash key derives from its
	// zero-label's double with one XOR.
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

// base returns the label-array offset of wire w, which must carry a
// value.
func (st *labelStore) base(w uint32) (int, error) {
	if uint32(len(st.have)) <= w || !st.have[w] {
		return 0, fmt.Errorf("gc: batch state has no label for wire %d", w)
	}
	return int(w) * st.b, nil
}

// outBase returns the label-array offset of output wire w, which must be
// within grown storage.
func (st *labelStore) outBase(w uint32) (int, error) {
	if uint32(len(st.have)) <= w {
		return 0, fmt.Errorf("gc: batch label storage not grown past wire %d", w)
	}
	return int(w) * st.b, nil
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
	base, err := g.base(w)
	if err != nil {
		return Label{}, err
	}
	return g.labels[base+s], nil
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

// levelLayout finds where the half ANDs start in ands — a level's AND
// gates or any contiguous run of them — and where their region does in
// table, after checking that table holds the packed block for b samples.
func levelLayout(ands []circuit.Gate, b int, table []byte) (nFull int, halves []byte, err error) {
	nFull = sort.Search(len(ands), func(i int) bool { return ands[i].Op == circuit.HalfAND })
	if need := (nFull*TableSize + (len(ands)-nFull)*LabelSize) * b; len(table) < need {
		return 0, nil, fmt.Errorf("gc: level table block is %d bytes, want %d", len(table), need)
	}
	return nFull, table[nFull*b*TableSize:], nil
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
	b := g.b
	nFull, halves, err := levelLayout(ands, b, table)
	if err != nil {
		return err
	}
	err = pool.run(len(ands), len(frees), b, func(h *Hasher, andLo, andHi, freeLo, freeHi int) error {
		// Lanes gather over flattened (gate, sample) instances: samples
		// within a gate fill first, and units carry across gate boundaries
		// (of one kind: a wave is all full ANDs or all half ANDs) so
		// small-B batches still run full 8-lane waves. out points straight
		// into the label array — safe because units capture their inputs
		// by value and level independence keeps staged reads and writes
		// disjoint.
		var us [garbleUnits]andUnit
		nu, half := 0, false
		for i := andLo; i < andHi; i++ {
			gt := ands[i]
			aBase, err := g.base(gt.A)
			if err != nil {
				return err
			}
			bBase, err := g.base(gt.B)
			if err != nil {
				return err
			}
			oBase, err := g.outBase(gt.Out)
			if err != nil {
				return err
			}
			region, rank, size, wave := table, i, TableSize, garbleUnits/2
			if i >= nFull {
				if !half && nu > 0 {
					garbleANDWide(h, &us, nu, false)
					nu = 0
				}
				half, region, rank, size, wave = true, halves, i-nFull, LabelSize, garbleUnits
			}
			gid := gidBase + uint64(i)
			j0, j1 := 2*gid, 2*gid+1
			dst := region[rank*b*size : (rank+1)*b*size]
			for s := 0; s < b; s++ {
				us[nu] = andUnit{
					a0: g.labels[aBase+s], b0: g.labels[bBase+s],
					r: g.R[s], r2: g.r2[s],
					j0: j0, j1: j1,
					dst: dst[s*size : (s+1)*size],
					out: &g.labels[oBase+s],
				}
				nu++
				if nu == wave {
					garbleANDWide(h, &us, nu, half)
					nu = 0
				}
			}
			g.have[gt.Out] = true
		}
		if nu > 0 {
			garbleANDWide(h, &us, nu, half)
		}
		for i := freeLo; i < freeHi; i++ {
			if err := g.garbleFreeVec(frees[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.ANDGates += int64(len(ands) * b)
	g.FreeGates += int64(len(frees) * b)
	return nil
}

// garbleFreeVec handles the tableless gates (XOR, INV) for all samples.
func (g *BatchGarbler) garbleFreeVec(gt circuit.Gate) error {
	aBase, err := g.base(gt.A)
	if err != nil {
		return err
	}
	oBase, err := g.outBase(gt.Out)
	if err != nil {
		return err
	}
	switch gt.Op {
	case circuit.XOR:
		bBase, err := g.base(gt.B)
		if err != nil {
			return err
		}
		xorLabels(g.labels[oBase:oBase+g.b], g.labels[aBase:aBase+g.b], g.labels[bBase:bBase+g.b])
	case circuit.INV:
		xorLabels(g.labels[oBase:oBase+g.b], g.labels[aBase:aBase+g.b], g.R)
	default:
		return fmt.Errorf("gc: cannot batch-garble op %v", gt.Op)
	}
	g.have[gt.Out] = true
	return nil
}

// xorLabels sets dst[i] = a[i] ⊕ b[i] over equal-length label slices,
// XORing as two uint64 words per label instead of 16 bytes — the free
// gates of the SoA engines are pure label XOR, so this loop is their
// whole cost. Element-wise in-place aliasing (dst overlapping a or b at
// the same index) is fine; Go's [16]byte layout makes the word loads
// exact reinterpretations.
func xorLabels(dst, a, b []Label) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("gc: xorLabels length mismatch")
	}
	for i := range dst {
		x0 := binary.LittleEndian.Uint64(a[i][0:8]) ^ binary.LittleEndian.Uint64(b[i][0:8])
		x1 := binary.LittleEndian.Uint64(a[i][8:16]) ^ binary.LittleEndian.Uint64(b[i][8:16])
		binary.LittleEndian.PutUint64(dst[i][0:8], x0)
		binary.LittleEndian.PutUint64(dst[i][8:16], x1)
	}
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
	base, err := e.base(w)
	if err != nil {
		return Label{}, err
	}
	return e.labels[base+s], nil
}

// EvaluateLevel evaluates one schedule level for all B samples, the
// mirror of GarbleLevel: every gate-instance consumes its ciphertexts from
// its rank's place in its kind's region of table under the tweaks of
// gidBase+i.
func (e *BatchEvaluator) EvaluateLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	b := e.b
	nFull, halves, err := levelLayout(ands, b, table)
	if err != nil {
		return err
	}
	return pool.run(len(ands), len(frees), b, func(h *Hasher, andLo, andHi, freeLo, freeHi int) error {
		// Flattened (gate, sample) lane gathering, the mirror of
		// GarbleLevel's.
		var us [evalUnits]evalUnit
		nu, half := 0, false
		for i := andLo; i < andHi; i++ {
			gt := ands[i]
			aBase, err := e.base(gt.A)
			if err != nil {
				return err
			}
			bBase, err := e.base(gt.B)
			if err != nil {
				return err
			}
			oBase, err := e.outBase(gt.Out)
			if err != nil {
				return err
			}
			region, rank, size, wave := table, i, TableSize, evalUnits/2
			if i >= nFull {
				if !half && nu > 0 {
					evalANDWide(h, &us, nu, false)
					nu = 0
				}
				half, region, rank, size, wave = true, halves, i-nFull, LabelSize, evalUnits
			}
			gid := gidBase + uint64(i)
			j0, j1 := 2*gid, 2*gid+1
			tab := region[rank*b*size : (rank+1)*b*size]
			for s := 0; s < b; s++ {
				us[nu] = evalUnit{
					a: e.labels[aBase+s], b: e.labels[bBase+s],
					j0: j0, j1: j1,
					tab: tab[s*size : (s+1)*size],
					out: &e.labels[oBase+s],
				}
				nu++
				if nu == wave {
					evalANDWide(h, &us, nu, half)
					nu = 0
				}
			}
			e.have[gt.Out] = true
		}
		if nu > 0 {
			evalANDWide(h, &us, nu, half)
		}
		for i := freeLo; i < freeHi; i++ {
			if err := e.evalFreeVec(frees[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// evalFreeVec handles the tableless gates (XOR, INV) for all samples.
func (e *BatchEvaluator) evalFreeVec(gt circuit.Gate) error {
	aBase, err := e.base(gt.A)
	if err != nil {
		return err
	}
	oBase, err := e.outBase(gt.Out)
	if err != nil {
		return err
	}
	switch gt.Op {
	case circuit.XOR:
		bBase, err := e.base(gt.B)
		if err != nil {
			return err
		}
		xorLabels(e.labels[oBase:oBase+e.b], e.labels[aBase:aBase+e.b], e.labels[bBase:bBase+e.b])
	case circuit.INV:
		// Free inversion: the label carries through; only the garbler's
		// semantics map flips.
		copy(e.labels[oBase:oBase+e.b], e.labels[aBase:aBase+e.b])
	default:
		return fmt.Errorf("gc: cannot batch-evaluate op %v", gt.Op)
	}
	e.have[gt.Out] = true
	return nil
}

package gc

import (
	"fmt"
	"io"

	"deepsecure/internal/circuit"
)

// This file is the level kernel of the GC engine: one garbling state
// covering B ≥ 1 independent sample instances of the same circuit, which
// is what every session inference runs on (a lone inference is B=1).
// Labels are stored structure-of-arrays as two-word blocks — B contiguous
// labels per wire slot, sample s of wire w at labels[w*B+s] — so the kernel
// walks the gate schedule ONCE per level and iterates samples innermost:
// one tweak derivation and one gate decode per gate for all B samples, with
// the B label loads/stores on adjacent cache lines. Behind the last wire
// the store keeps an inversion slot of B labels — each sample's delta R on
// the garbler, zero on the evaluator — so an INV is the XOR of its operand
// with the slot, on both sides, at any B. A fresh state (NewBatchGarbler)
// draws a delta per sample; a session's states (NewSessionGarbler) share
// the session's one delta, as a circuit garbled in instalments does
// (TinyGarble's sequential GC, DeepSecure §3.5). What keeps every hash
// query distinct under one delta is the tweak: gate g of sample s hashes
// under the pair (t, o) — t = 2·(gidBase+i) (+1 for the evaluator half)
// in the key block's low word, o = first+s, the sample's session ordinal,
// in its high word. A state numbers its samples from first (SetFirst; 0
// when fresh), so at B=1 a fresh state hashes exactly as it did before
// ordinals existed. The tests pin the kernel, whole levels and a gate a
// level, against a textbook half-gates oracle.
//
// The assembly kernel (kernel_amd64.s) reads a gate's input labels in place
// twice, once to form a hash wave's keys and once to complete the gate:
// level independence — no gate of a level reads a wire another gate of the
// level writes — makes the two reads agree, so nothing is copied between
// them. The level kernels check no gate and keep no liveness: what they run
// is a schedule that circuit.Schedule.Check proved when it compiled, so
// every operand they read was written and every output lies in the grown
// store. The one check left at run time is the one that depends on the
// peer, the table block's size (labelStore.prepare); a level refused for it
// writes nothing.
//
// The garbled tables of a level are likewise interleaved gate-major with
// samples innermost, one region per gate kind: full AND rank i, sample s
// writes its two ciphertexts at (i*B+s)*TableSize, and behind the last of
// those the j-th half AND writes its one at (j*B+s)*LabelSize. Both
// parties derive the layout from the schedule and B alone.

// BatchGarbler is the garbling state for one inference of B samples.
type BatchGarbler struct {
	// R holds the per-sample Free-XOR deltas (len B): fresh ones on a fresh
	// state, the session's one delta in every entry on a session's. The
	// store's inv holds them as blocks.
	R []Label
	// r2 caches 2R[s] per sample: doubling is GF(2)-linear, so
	// 2(L⊕R) = 2L ⊕ 2R and every one-label's hash key derives from its
	// zero-label's double with one XOR instead of a second doubling.
	r2 []block

	labelStore // the zero-labels, and R in the inversion slot
	rng        io.Reader
}

// NewBatchGarbler creates a garbler for a batch of b samples, drawing
// each sample's fresh delta and then the constant-wire labels from rng.
func NewBatchGarbler(rng io.Reader, b int) (*BatchGarbler, error) {
	return newBatchGarbler(rng, b, func() (Label, error) { return RandomDelta(rng) })
}

// NewSessionGarbler creates a garbler for a batch of b samples of a
// session whose Free-XOR offset is delta (lsb 1, RandomDelta): every
// sample garbles under it, with fresh constant-wire labels drawn from rng.
// The caller numbers the samples with SetFirst, so that no two samples of
// the session hash under one tweak.
func NewSessionGarbler(rng io.Reader, delta Label, b int) (*BatchGarbler, error) {
	return newBatchGarbler(rng, b, func() (Label, error) { return delta, nil })
}

func newBatchGarbler(rng io.Reader, b int, delta func() (Label, error)) (*BatchGarbler, error) {
	if b < 1 {
		return nil, fmt.Errorf("gc: batch size %d < 1", b)
	}
	g := &BatchGarbler{labelStore: labelStore{b: b, inv: make([]block, b)}, rng: rng, R: make([]Label, b), r2: make([]block, b)}
	for s := range g.R {
		r, err := delta()
		if err != nil {
			return nil, err
		}
		g.R[s] = r
		g.inv[s] = blockAt(r[:])
		g.r2[s] = dbl(g.inv[s])
	}
	if err := g.AssignInputs([]uint32{circuit.WFalse, circuit.WTrue}, false); err != nil {
		return nil, err
	}
	return g, nil
}

// labelStore is the label array both batch states keep: B contiguous
// labels per wire slot, sample s of wire w at labels[w*b+s], for the n
// wires it holds, then the inversion slot at labels[n*b:]. It holds labels
// only. A level kernel runs a checked schedule (circuit.Schedule.Check),
// which writes every wire before it reads it and no wire at or past n, so
// the store tracks no liveness, a grown array is never zeroed, and the
// slot holds inv for as long as n stands.
type labelStore struct {
	b      int
	n      int
	first  uint64 // the session ordinal of sample 0: sample s hashes under first+s
	labels []block
	// inv is what the inversion slot holds: the garbler's deltas R, so an
	// INV's zero-label is its operand's ⊕ R; nil on the evaluator, whose
	// slot is zero, so an INV carries its active label through.
	inv []block
	// lv is the level being run, laid out by prepare.
	lv level
	// buf stages the garbler's bulk label draws (AssignInputs); like the
	// label array, it passes from state to state by Release and Reuse.
	buf []byte
}

// Spare is the label array and staging buffer one state gave up by
// Release, for a later state's Reuse; the zero Spare holds none.
type Spare struct {
	labels []block
	buf    []byte
}

// B returns the batch size.
func (st *labelStore) B() int { return st.b }

// SetFirst numbers the state's samples first, first+1, …: the ordinal that
// goes into the high word of every tweak sample s hashes under. Both
// parties must number an inference's samples alike, and a session must
// never number two samples alike under one delta. Call before the first
// level.
func (st *labelStore) SetFirst(first uint64) { st.first = first }

// ensure makes room for wire w, doubling the array as appends do, and
// moves the inversion slot behind it.
func (st *labelStore) ensure(w uint32) {
	if int(w) < st.n {
		return
	}
	st.n = int(w) + 1
	if need := (st.n + 1) * st.b; need > len(st.labels) {
		st.labels = append(st.labels, make([]block, need-len(st.labels))...)
	}
	st.fillSlot()
}

// Grow sizes label storage for wires [0, n). The level kernels never grow
// storage themselves (growth would race between workers), so the engine
// must Grow to the schedule's namespace once per inference. Storage a
// Reused array already holds is resliced, not cleared; anything else is
// one exact-size allocation.
func (st *labelStore) Grow(n uint32) {
	if int(n) <= st.n {
		return
	}
	st.n = int(n)
	need := (st.n + 1) * st.b
	if need <= cap(st.labels) {
		st.labels = st.labels[:need]
	} else {
		labels := make([]block, need)
		copy(labels, st.labels)
		st.labels = labels
	}
	st.fillSlot()
}

// fillSlot writes inv into the inversion slot.
func (st *labelStore) fillSlot() {
	slot := st.labels[st.n*st.b:]
	if st.inv == nil {
		clear(slot)
	} else {
		copy(slot, st.inv)
	}
}

// Reuse hands the store a spent label array and staging buffer (a Release
// of an earlier state) to grow into when they are the larger: the labels
// the store holds move to its front, the rest keeps whatever it held.
func (st *labelStore) Reuse(spare Spare) {
	if cap(spare.labels) > cap(st.labels) {
		st.labels = append(spare.labels[:0], st.labels...)
	}
	if cap(spare.buf) > cap(st.buf) {
		st.buf = spare.buf
	}
}

// Release returns the label array and staging buffer for a later state's
// Reuse; the state must not be used after it.
func (st *labelStore) Release() Spare {
	spare := Spare{st.labels, st.buf}
	st.labels, st.buf = nil, nil
	return spare
}

// Drop is a no-op: a level kernel keeps no liveness, and a checked schedule
// never reads a wire after its drop. It stays only for bench/layers.go,
// which still walks a schedule's Drops; the benchmark's next change takes
// the calls and this method out.
func (st *labelStore) Drop(uint32) {}

// at returns sample s's label of wire w. Reads stop at the wires: the
// inversion slot behind them holds the garbler's deltas.
func (st *labelStore) at(w uint32, s int) (Label, error) {
	if s >= 0 && s < st.b && int(w) < st.n {
		return st.labels[int(w)*st.b+s].label(), nil
	}
	return Label{}, fmt.Errorf("gc: wire %d sample %d lies outside the label store", w, s)
}

// prepare lays a level run out over table — where the half ANDs start in
// ands, and where their region does — and checks that table holds the
// packed block for B samples: the one thing about a level that depends on
// the peer. Everything else about the gates was proved when their schedule
// was checked.
func (st *labelStore) prepare(ands, frees []circuit.Gate, gidBase uint64, table []byte) error {
	// The full ANDs come first. A level of one kind, the usual case, is
	// told by its ends; a mixed one is searched for its first half AND,
	// which lies in (0, n−1].
	nFull := len(ands)
	switch {
	case nFull == 0 || ands[nFull-1].Op != circuit.HalfAND:
	case ands[0].Op == circuit.HalfAND:
		nFull = 0
	default:
		lo, hi := 1, nFull-1
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); ands[mid].Op == circuit.HalfAND {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		nFull = lo
	}
	split := nFull * st.b * TableSize
	if need := split + (len(ands)-nFull)*st.b*LabelSize; len(table) < need {
		return fmt.Errorf("gc: level table block is %d bytes, want %d", len(table), need)
	}
	lv := &st.lv
	lv.ands, lv.frees, lv.gidBase, lv.nFull = ands, frees, gidBase, nFull
	lv.full, lv.half = table[:split], table[split:]
	return nil
}

// AssignInputs draws B fresh zero-labels for every wire of ws in one read
// of the shared rng, wire-major with samples innermost (sample 0 first —
// the order a serial run of B single inferences would only match at B=1,
// which is the conformance case): the labels are those of one read per
// wire, in order. evaluator marks wires whose bit the evaluator chooses:
// their zero-labels get permute bit 0, so the colour of the label that party
// receives is the bit it chose, and a half AND may take the wire in slot B.
func (g *BatchGarbler) AssignInputs(ws []uint32, evaluator bool) error {
	need := len(ws) * g.b * LabelSize
	if cap(g.buf) < need {
		g.buf = make([]byte, need)
	}
	buf := g.buf[:need]
	if _, err := io.ReadFull(g.rng, buf); err != nil {
		return fmt.Errorf("gc: label randomness: %w", err)
	}
	for i, w := range ws {
		g.ensure(w)
		base := int(w) * g.b
		for s := 0; s < g.b; s++ {
			l := blockAt(buf[(i*g.b+s)*LabelSize:])
			if evaluator {
				l.lo &^= 1
			}
			g.labels[base+s] = l
		}
	}
	return nil
}

// Broadcast sets wire w's label to l in every sample: on the garbler its
// zero-label, on the evaluator its active label. It is how a session's
// weight wires enter an inference: their labels crossed once, by the
// session's set-up OT, and every sample of every inference reuses them.
func (st *labelStore) Broadcast(w uint32, l Label) {
	st.ensure(w)
	k := blockAt(l[:])
	for s := range st.b {
		st.labels[int(w)*st.b+s] = k
	}
}

// AssignInput is AssignInputs of the one garbler wire w.
func (g *BatchGarbler) AssignInput(w uint32) error { return g.AssignInputs([]uint32{w}, false) }

// ZeroLabel returns sample s's zero-semantics label of wire w.
func (g *BatchGarbler) ZeroLabel(w uint32, s int) (Label, error) { return g.at(w, s) }

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
// gate has global AND index gidBase+i, and sample s hashes it under that
// index and its ordinal first+s, and writes its ciphertexts at its rank's
// place in its kind's region of table (both in the file comment), packed
// from the front; a longer table's tail is left alone. ands may be any contiguous
// run of a level's AND gates. Gates are striped over pool's workers with
// the batch size as the work multiplier. The caller must guarantee level
// independence (distinct output wires, no gate reading a wire another gate
// of the level writes) — which circuit's scheduler establishes — and must
// have Grown the garbler past every wire id in the level.
func (g *BatchGarbler) GarbleLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	if err := g.prepare(ands, frees, gidBase, table); err != nil {
		return err
	}
	if tweakSeen != nil {
		g.recordTweaks(&g.lv)
	}
	return pool.run(g, &g.lv, g.b)
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
// constants). All B samples of a wire must be set before use.
func (e *BatchEvaluator) SetLabel(w uint32, s int, l Label) {
	e.ensure(w)
	e.labels[int(w)*e.b+s] = blockAt(l[:])
}

// Label returns sample s's active label of wire w.
func (e *BatchEvaluator) Label(w uint32, s int) (Label, error) { return e.at(w, s) }

// EvaluateLevel evaluates one schedule level for all B samples, the
// mirror of GarbleLevel: every gate-instance consumes its ciphertexts from
// its rank's place in its kind's region of table under the tweaks of
// gidBase+i and its ordinal.
func (e *BatchEvaluator) EvaluateLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	if err := e.prepare(ands, frees, gidBase, table); err != nil {
		return err
	}
	return pool.run(e, &e.lv, e.b)
}

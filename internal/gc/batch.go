package gc

import (
	"fmt"
	"sync"

	"deepsecure/internal/circuit"
	"deepsecure/internal/sched"
)

// This file holds what the per-gate face (Garble/Eval) and the level
// kernel (BatchGarbler.GarbleLevel/BatchEvaluator.EvaluateLevel, vec.go)
// share: the worker Pool that stripes a level of mutually independent
// gates — as produced by circuit.NewSchedule — and the half-gates AND
// cryptography against explicit coordinates. A level's global AND index
// base fixes every tweak, and each AND gate writes its ciphertexts at a
// rank-derived offset inside a caller-provided table block, so nothing
// depends on execution order inside a level and the produced bytes are
// identical for any worker count.

// Pool is a width-capped view of a sched.Pool: it owns no workers, and a
// level run submits its per-worker spans as chunks of one scheduler region,
// which the scheduler's fixed worker set (and the caller) claim across every
// session's runs. A Pool keeps no per-call state — each span borrows a
// Hasher for its lifetime — so one instance is safe for concurrent level
// runs and can back a whole server.
//
// Span arithmetic depends on the width and the level alone, and every table
// lands at a rank-derived offset, so the bytes produced never depend on the
// width or on which goroutine ran a span (TestSharedPoolMatchesPrivate).
type Pool struct {
	sched *sched.Pool
	width int
}

// NewPool builds a pool of width n on the process-wide scheduler.
func NewPool(n int) *Pool { return NewSharedPool(sched.Default(), n) }

// NewSharedPool builds a pool that submits its level runs to the scheduler
// s, fanning each run out at most width ways (width < 1 is clamped to 1,
// which runs every level inline).
func NewSharedPool(s *sched.Pool, width int) *Pool {
	if width < 1 {
		width = 1
	}
	return &Pool{sched: s, width: width}
}

// Workers returns the pool's fan-out width.
func (p *Pool) Workers() int { return p.width }

// hasherPool recycles Hashers: a span borrows one for its lifetime. The AES
// round keys are fixed, so any hasher is interchangeable with any other.
var hasherPool = sync.Pool{New: func() any { return NewHasher() }}

// parallelMinANDs is the smallest AND count worth fanning out: below it,
// goroutine handoff costs more than the AES work saved.
const parallelMinANDs = 32

// parallelMinGates is the fan-out threshold for levels that are wide in
// free gates only.
const parallelMinGates = 1024

// laneMinANDs and laneMinFrees set the striping granularity: each worker
// should own at least this many AND gate-instances (= a few full 8-lane
// hash waves) or this many free-gate instances before another worker is
// worth waking.
const (
	laneMinANDs  = 16
	laneMinFrees = 512
)

// run executes fn over per-worker spans of the AND range [0, nAND) and
// the free range [0, nFree). The two populations are striped separately
// — a single partition of the concatenation would hand every AES-heavy
// AND gate to the first workers and leave the rest doing only label
// XORs. Small batches run inline (goroutine handoff would cost more than
// the AES work saved). The first error wins.
//
// scale is the per-gate work multiplier: the level kernel processes
// scale (= batch size B) samples inside every gate visit, so the fan-out
// thresholds compare nAND×scale gate-instances — a level of 8 ANDs at
// B=16 is 128 AES-heavy units and worth striping — while the spans
// handed to workers remain gate ranges (samples stay innermost, per
// worker, for cache locality).
func (p *Pool) run(nAND, nFree, scale int, fn func(h *Hasher, andLo, andHi, freeLo, freeHi int) error) error {
	w := p.width
	if n := nAND + nFree; w > n {
		w = n
	}
	// Lane-quantum clamp: a worker span smaller than a few 8-lane hash
	// waves runs the wide kernel partially filled (the trailing flush of
	// every span has < garbleUnits/evalUnits gates staged), so fan-out
	// below laneMinANDs AND-instances per worker fragments lanes faster
	// than it adds cores. Free gates are near-free label XORs and only
	// justify an extra worker in bulk. Striping never affects the bytes
	// produced, so the clamp is a pure scheduling choice.
	if lim := (nAND*scale)/laneMinANDs + (nFree*scale)/laneMinFrees; w > lim {
		w = lim
	}
	if w <= 1 || (nAND*scale < parallelMinANDs && (nAND+nFree)*scale < parallelMinGates) {
		return span(fn, 0, nAND, 0, nFree)
	}
	// The w spans are the chunks of one scheduler region: workers (and this
	// goroutine) steal chunks across every active region in the process, and
	// a panicking span comes back as the region's error.
	return p.sched.Do(w, func(i int) error {
		andLo, andHi := i*nAND/w, (i+1)*nAND/w
		freeLo, freeHi := i*nFree/w, (i+1)*nFree/w
		if andLo == andHi && freeLo == freeHi {
			return nil
		}
		return span(fn, andLo, andHi, freeLo, freeHi)
	})
}

// span runs fn over one span with a borrowed hasher.
func span(fn func(h *Hasher, andLo, andHi, freeLo, freeHi int) error, andLo, andHi, freeLo, freeHi int) error {
	h := hasherPool.Get().(*Hasher)
	err := fn(h, andLo, andHi, freeLo, freeHi)
	hasherPool.Put(h)
	return err
}

// garbleAND is the half-gates AND garbler against explicit coordinates:
// hasher h, global AND index gid, destination table block dst. Like
// garbleFree it writes the output label in place: Garble has grown the
// storage past gate.Out.
func (g *Garbler) garbleAND(h *Hasher, gate circuit.Gate, gid uint64, dst []byte) error {
	a0, err := g.ZeroLabel(gate.A)
	if err != nil {
		return err
	}
	b0, err := g.ZeroLabel(gate.B)
	if err != nil {
		return err
	}
	var us [garbleUnits]andUnit
	var out Label
	us[0] = andUnit{a0: a0, b0: b0, r: g.R, r2: g.r2, j0: 2 * gid, j1: 2*gid + 1, dst: dst, out: &out}
	garbleANDWide(h, &us, 1, gate.Op == circuit.HalfAND)
	g.labels[gate.Out], g.have[gate.Out] = out, true
	return nil
}

// garbleUnits is how many half-AND gate-instances fill the hasher's lanes
// on the garble side (2 hashes each) and evalUnits on the evaluate side (1
// hash each); a full AND takes twice the hashes, so half as many fill a
// wave.
const (
	garbleUnits = HashLanes / 2
	evalUnits   = HashLanes
)

// andUnit is one staged AND gate-instance on the garble side: the
// half-gates inputs plus where its ciphertexts (dst) and output
// zero-label (out) go. Inputs are captured by value at staging time, so
// completing a unit later — after other units' lanes hashed alongside it
// — is safe even when out aliases the live label array (level
// independence guarantees no staged unit reads what another writes).
type andUnit struct {
	a0, b0 Label
	r, r2  Label
	j0, j1 uint64
	dst    []byte
	out    *Label
}

// garbleANDWide is the half-gates AND cryptography over the n staged
// gate-instances of one kind: all units' hashes — every label doubled once
// with the ⊕R variant derived via the cached 2R — issue as ONE multi-lane
// hash call, then each unit's combination completes from the returned
// lanes. A full AND is a generator half (A's labels under j0; it corrects
// for B's permute bit) plus an evaluator half (B's labels under j1; it
// computes a ∧ colour(B)), a ciphertext each. A half AND is the evaluator
// half alone: its B is an evaluator-input wire, drawn with permute bit 0,
// so colour(B) is b (with any other permute bit p it garbles a ∧ (b ⊕ p),
// still on authentic labels). The single-unit call is the scalar
// conformance shape (the one-gate Garbler.Garble path); multi-unit calls
// produce byte-identical tables by construction, pinned by the
// wide-vs-scalar tests.
func garbleANDWide(h *Hasher, us *[garbleUnits]andUnit, n int, half bool) {
	per := 4
	if half {
		per = 2
	}
	for i := 0; i < n; i++ {
		u := &us[i]
		k := per * i
		if !half {
			// Hoisted doubling: 2a0 once per label, 2a1 = 2a0 ⊕ 2R.
			da0 := double(u.a0)
			h.lanes[k] = xorTweak(da0, u.j0)
			h.lanes[k+1] = xorTweak(da0.XOR(u.r2), u.j0)
			k += 2
		}
		db0 := double(u.b0)
		h.lanes[k] = xorTweak(db0, u.j1)
		h.lanes[k+1] = xorTweak(db0.XOR(u.r2), u.j1)
	}
	h.hashStaged(per * n)
	for i := 0; i < n; i++ {
		u := &us[i]
		k := per * i
		dst := u.dst
		pb := u.b0.LSB()

		// Generator half-gate.
		var wg Label
		if !half {
			ha0, ha1 := h.lanes[k], h.lanes[k+1]
			tg := ha0.XOR(ha1)
			if pb {
				tg = tg.XOR(u.r)
			}
			wg = ha0
			if u.a0.LSB() {
				wg = wg.XOR(tg)
			}
			copy(dst[:LabelSize], tg[:])
			dst = dst[LabelSize:]
			k += 2
		}

		// Evaluator half-gate.
		hb0, hb1 := h.lanes[k], h.lanes[k+1]
		te := hb0.XOR(hb1).XOR(u.a0)
		we := hb0
		if pb {
			we = we.XOR(te).XOR(u.a0)
		}
		copy(dst[:LabelSize], te[:])
		*u.out = wg.XOR(we)
	}
}

// garbleFree handles the tableless gates (XOR, INV).
func (g *Garbler) garbleFree(gate circuit.Gate) error {
	out, err := g.ZeroLabel(gate.A)
	if err != nil {
		return err
	}
	switch gate.Op {
	case circuit.XOR:
		b, err := g.ZeroLabel(gate.B)
		if err != nil {
			return err
		}
		out = out.XOR(b)
	case circuit.INV:
		out = out.XOR(g.R)
	default:
		return fmt.Errorf("gc: cannot garble op %v", gate.Op)
	}
	g.labels[gate.Out], g.have[gate.Out] = out, true
	return nil
}

// evalAND is the half-gates AND evaluator against explicit coordinates.
func (e *Evaluator) evalAND(h *Hasher, gate circuit.Gate, gid uint64, tab []byte) error {
	a, err := e.Label(gate.A)
	if err != nil {
		return err
	}
	b, err := e.Label(gate.B)
	if err != nil {
		return err
	}
	var us [evalUnits]evalUnit
	var out Label
	us[0] = evalUnit{a: a, b: b, j0: 2 * gid, j1: 2*gid + 1, tab: tab, out: &out}
	evalANDWide(h, &us, 1, gate.Op == circuit.HalfAND)
	e.labels[gate.Out], e.have[gate.Out] = out, true
	return nil
}

// evalUnit is one staged AND gate-instance on the evaluate side: the two
// active input labels, the tweaks, the gate's ciphertext block and where
// the output label goes. Like andUnit, inputs are captured by value at
// staging time so deferred completion is safe under level independence.
type evalUnit struct {
	a, b   Label
	j0, j1 uint64
	tab    []byte
	out    *Label
}

// evalANDWide is the half-gates AND evaluation over the n staged
// gate-instances of one kind: all units' hashes (one active label per
// half-gate) issue as one multi-lane hash call, then each unit's
// ciphertext combination completes from the returned lanes.
func evalANDWide(h *Hasher, us *[evalUnits]evalUnit, n int, half bool) {
	per := 2
	if half {
		per = 1
	}
	for i := 0; i < n; i++ {
		u := &us[i]
		k := per * i
		if !half {
			h.lanes[k] = xorTweak(double(u.a), u.j0)
			k++
		}
		h.lanes[k] = xorTweak(double(u.b), u.j1)
	}
	h.hashStaged(per * n)
	for i := 0; i < n; i++ {
		u := &us[i]
		k := per * i
		tab := u.tab
		var wg, te Label
		if !half {
			var tg Label
			copy(tg[:], tab[:LabelSize])
			wg = h.lanes[k]
			if u.a.LSB() {
				wg = wg.XOR(tg)
			}
			tab = tab[LabelSize:]
			k++
		}
		copy(te[:], tab[:LabelSize])
		we := h.lanes[k]
		if u.b.LSB() {
			we = we.XOR(te).XOR(u.a)
		}
		*u.out = wg.XOR(we)
	}
}

// evalFree handles the tableless gates (XOR, INV).
func (e *Evaluator) evalFree(gate circuit.Gate) error {
	out, err := e.Label(gate.A)
	if err != nil {
		return err
	}
	switch gate.Op {
	case circuit.XOR:
		b, err := e.Label(gate.B)
		if err != nil {
			return err
		}
		out = out.XOR(b)
	case circuit.INV:
		// Free inversion: the label carries through; only the garbler's
		// semantics map flips.
	default:
		return fmt.Errorf("gc: cannot evaluate op %v", gate.Op)
	}
	e.labels[gate.Out], e.have[gate.Out] = out, true
	return nil
}

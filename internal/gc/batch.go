package gc

import (
	"sync"

	"deepsecure/internal/circuit"
	"deepsecure/internal/sched"
)

// This file is the GC engine's one kernel, shared by the level kernels
// (BatchGarbler.GarbleLevel/BatchEvaluator.EvaluateLevel, vec.go) and the
// per-gate faces (Garbler.Garble/Evaluator.Eval): the worker Pool that
// stripes a level of mutually independent gates — as produced by
// circuit.NewSchedule — and the half-gates cryptography over a validated
// span of it. A level's global AND index base fixes every tweak, and each
// AND gate writes its ciphertexts at a rank-derived offset inside a
// caller-provided table block, so nothing depends on execution order
// inside a level and the produced bytes are identical for any worker count.
//
// The kernel computes on labels as two little-endian uint64 words: Go keeps
// words in registers but not [16]byte arrays, so XOR, doubling and tweaking
// a Label value would each go through a stack temporary. An AND
// gate-instance is staged as label-array indices, and its inputs are read
// in place twice — once to form its hash keys, once to combine the hashes —
// which is safe under level independence: no gate of a level reads a wire
// another gate of the level writes.

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
// the AES work saved). A span that panics on a scheduler worker comes back
// as run's error.
//
// scale is the per-gate work multiplier: the level kernel processes
// scale (= batch size B) samples inside every gate visit, so the fan-out
// thresholds compare nAND×scale gate-instances — a level of 8 ANDs at
// B=16 is 128 AES-heavy units and worth striping — while the spans
// handed to workers remain gate ranges (samples stay innermost, per
// worker, for cache locality).
func (p *Pool) run(nAND, nFree, scale int, fn func(h *Hasher, andLo, andHi, freeLo, freeHi int)) error {
	w := p.width
	if n := nAND + nFree; w > n {
		w = n
	}
	// Lane-quantum clamp: a worker span smaller than a few 8-lane hash
	// waves runs the wide kernel partially filled (the trailing wave of
	// every span is partial), so fan-out below laneMinANDs AND-instances
	// per worker fragments lanes faster than it adds cores. Free gates are
	// near-free label XORs and only justify an extra worker in bulk.
	// Striping never affects the bytes
	// produced, so the clamp is a pure scheduling choice.
	if lim := (nAND*scale)/laneMinANDs + (nFree*scale)/laneMinFrees; w > lim {
		w = lim
	}
	if w <= 1 || (nAND*scale < parallelMinANDs && (nAND+nFree)*scale < parallelMinGates) {
		span(fn, 0, nAND, 0, nFree)
		return nil
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
		span(fn, andLo, andHi, freeLo, freeHi)
		return nil
	})
}

// span runs fn over one span with a borrowed hasher.
func span(fn func(h *Hasher, andLo, andHi, freeLo, freeHi int), andLo, andHi, freeLo, freeHi int) {
	h := hasherPool.Get().(*Hasher)
	fn(h, andLo, andHi, freeLo, freeHi)
	hasherPool.Put(h)
}

// level is one validated run of a schedule level as the kernel reads it:
// the AND gates, full ones first, with the global AND index of ands[0];
// the free gates; and the table regions of the two AND kinds (see vec.go's
// file comment for the layout).
type level struct {
	ands, frees []circuit.Gate
	gidBase     uint64
	nFull       int
	full, half  []byte
}

// staged is one AND gate-instance waiting for its hash wave: label-array
// indices of its operands and output, its sample, its gate's global AND
// index, and the offset of its ciphertexts in its kind's table region.
type staged struct {
	a, b, out, s int
	gid          uint64
	off          int
	half         bool
}

// stage walks ands[andLo:andHi] of lv for all B samples, staging the
// gate-instances in h.units, and calls wave(n) on each batch of at most
// HashLanes hashes there: fullLanes per full AND — four garbling (both
// labels of each operand), two evaluating (one active label each) — and
// half that per half AND.
// Instances fill waves in (gate, sample) order across gate and kind
// boundaries, so small-B levels still hash 8 lanes at a time.
func (st *labelStore) stage(h *Hasher, lv *level, andLo, andHi, fullLanes int, wave func(n int)) {
	us := &h.units
	n, k := 0, 0
	b := st.b
	for i := andLo; i < andHi; i++ {
		gt := &lv.ands[i]
		half, per, off, size := false, fullLanes, i*b*TableSize, TableSize
		if i >= lv.nFull {
			half, per, off, size = true, fullLanes/2, (i-lv.nFull)*b*LabelSize, LabelSize
		}
		gid := lv.gidBase + uint64(i)
		a, bb, out := int(gt.A)*b, int(gt.B)*b, int(gt.Out)*b
		for s := 0; s < b; s++ {
			if k+per > HashLanes {
				wave(n)
				n, k = 0, 0
			}
			// Field by field: a struct literal is built in a stack
			// temporary and copied, which stalls store forwarding.
			u := &us[n]
			u.a, u.b, u.out, u.s, u.gid, u.off, u.half = a+s, bb+s, out+s, s, gid, off+s*size, half
			n, k = n+1, k+per
		}
		st.have[gt.Out] = true
	}
	if n > 0 {
		wave(n)
	}
}

// garbleSpan garbles ands[andLo:andHi] and frees[freeLo:freeHi] of lv for
// all B samples.
//
// A full AND is a generator half (A's labels under tweak 2·gid; it
// corrects for B's permute bit) plus an evaluator half (B's labels under
// 2·gid+1; it computes a ∧ colour(B)), a ciphertext each. A half AND is
// the evaluator half alone: its B is an evaluator-input wire, drawn with
// permute bit 0, so colour(B) is b (with any other permute bit p it
// garbles a ∧ (b ⊕ p), still on authentic labels). Every label is doubled
// once; its ⊕R twin's hash key is that double ⊕ 2R.
func (g *BatchGarbler) garbleSpan(h *Hasher, lv *level, andLo, andHi, freeLo, freeHi int) {
	g.stage(h, lv, andLo, andHi, 4, func(n int) { g.garbleWave(h, lv, h.units[:n]) })
	g.freeSpan(lv.frees[freeLo:freeHi], g.R)
}

// garbleWave hashes and completes one wave of staged instances.
func (g *BatchGarbler) garbleWave(h *Hasher, lv *level, us []staged) {
	labels := g.labels
	k := 0
	for i := range us {
		u := &us[i]
		r0, r1 := words(&g.r2[u.s])
		if !u.half {
			t := 2 * u.gid
			d0, d1 := dbl(words(&labels[u.a]))
			setWords(&h.lanes[k], d0^t, d1)
			setWords(&h.lanes[k+1], d0^r0^t, d1^r1)
			k += 2
		}
		t := 2*u.gid + 1
		d0, d1 := dbl(words(&labels[u.b]))
		setWords(&h.lanes[k], d0^t, d1)
		setWords(&h.lanes[k+1], d0^r0^t, d1^r1)
		k += 2
	}
	h.hashStaged(k)
	k = 0
	for i := range us {
		u := &us[i]
		a0, a1 := words(&labels[u.a])
		b0, _ := words(&labels[u.b])
		pb := -(b0 & 1) // all ones when B's zero-label has permute bit 1
		var w0, w1 uint64
		var dst []byte
		if u.half {
			dst = lv.half[u.off : u.off+LabelSize]
		} else {
			// Generator half: tg = H(A0) ⊕ H(A1) ⊕ pb·R, W_G = H(A0) ⊕ pa·tg.
			r0, r1 := words(&g.R[u.s])
			h0, h1 := words(&h.lanes[k])
			x0, x1 := words(&h.lanes[k+1])
			tg0, tg1 := h0^x0^r0&pb, h1^x1^r1&pb
			pa := -(a0 & 1)
			w0, w1 = h0^tg0&pa, h1^tg1&pa
			dst = lv.full[u.off : u.off+TableSize]
			setWordsAt(dst, tg0, tg1)
			dst = dst[LabelSize:]
			k += 2
		}
		// Evaluator half: te = H(B0) ⊕ H(B1) ⊕ A0, W_E = H(B_pb).
		h0, h1 := words(&h.lanes[k])
		x0, x1 := words(&h.lanes[k+1])
		setWordsAt(dst, h0^x0^a0, h1^x1^a1)
		setWords(&labels[u.out], w0^h0^(h0^x0)&pb, w1^h1^(h1^x1)&pb)
		k += 2
	}
}

// evalSpan is garbleSpan's mirror: every instance hashes its active
// labels once per half and combines them with its ciphertexts.
func (e *BatchEvaluator) evalSpan(h *Hasher, lv *level, andLo, andHi, freeLo, freeHi int) {
	e.stage(h, lv, andLo, andHi, 2, func(n int) { e.evalWave(h, lv, h.units[:n]) })
	// Free inversion: the label carries through; only the garbler's
	// semantics map flips.
	e.freeSpan(lv.frees[freeLo:freeHi], nil)
}

// evalWave hashes and completes one wave of staged instances.
func (e *BatchEvaluator) evalWave(h *Hasher, lv *level, us []staged) {
	labels := e.labels
	k := 0
	for i := range us {
		u := &us[i]
		if !u.half {
			d0, d1 := dbl(words(&labels[u.a]))
			setWords(&h.lanes[k], d0^2*u.gid, d1)
			k++
		}
		d0, d1 := dbl(words(&labels[u.b]))
		setWords(&h.lanes[k], d0^(2*u.gid+1), d1)
		k++
	}
	h.hashStaged(k)
	k = 0
	for i := range us {
		u := &us[i]
		a0, a1 := words(&labels[u.a])
		b0, _ := words(&labels[u.b])
		var w0, w1 uint64
		var tab []byte
		if u.half {
			tab = lv.half[u.off : u.off+LabelSize]
		} else {
			tab = lv.full[u.off : u.off+TableSize]
			tg0, tg1 := wordsAt(tab)
			pa := -(a0 & 1)
			h0, h1 := words(&h.lanes[k])
			w0, w1 = h0^tg0&pa, h1^tg1&pa
			tab = tab[LabelSize:]
			k++
		}
		te0, te1 := wordsAt(tab)
		pb := -(b0 & 1)
		h0, h1 := words(&h.lanes[k])
		setWords(&labels[u.out], w0^h0^(te0^a0)&pb, w1^h1^(te1^a1)&pb)
		k++
	}
}

// freeSpan runs free gates for all B samples: XOR is label XOR on both
// sides; INV XORs inv — the garbler's deltas — or, for the evaluator (inv
// nil), carries the label through.
func (st *labelStore) freeSpan(frees []circuit.Gate, inv []Label) {
	b, labels, have := st.b, st.labels, st.have
	for i := range frees {
		gt := &frees[i]
		a, out := int(gt.A)*b, int(gt.Out)*b
		x, xs := 0, inv
		if gt.Op == circuit.XOR {
			x, xs = int(gt.B)*b, labels
		}
		for s := 0; s < b; s++ {
			a0, a1 := words(&labels[a+s])
			if xs != nil {
				x0, x1 := words(&xs[x+s])
				a0, a1 = a0^x0, a1^x1
			}
			setWords(&labels[out+s], a0, a1)
		}
		have[gt.Out] = true
	}
}

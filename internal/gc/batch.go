package gc

import (
	"sync"

	"deepsecure/internal/circuit"
	"deepsecure/internal/sched"
)

// This file is the GC engine's kernel in Go, behind the level kernels
// (BatchGarbler.GarbleLevel/BatchEvaluator.EvaluateLevel, vec.go): the
// worker Pool that stripes a level of mutually independent gates and the
// half-gates cryptography over a span of it. The kernel checks nothing about
// the gates it runs: a session's levels were proved by its schedule's
// compile-time Check (circuit.NewSchedule), and a §3.3 stream's by the same
// check, carried from fragment to fragment (circuit.Stream). A level's
// global AND index base fixes every tweak, and each
// AND gate writes its ciphertexts at a rank-derived offset inside a
// caller-provided table block, so nothing depends on execution order
// inside a level and the produced bytes are identical for any worker count.
//
// One switch, hasKernel, picks the kernel a span runs: the assembly kernel
// (kernel_amd64.s) on amd64 with AES-NI and SSSE3, the Go kernel here
// everywhere else. The Go kernel computes on labels as blocks, two
// little-endian uint64 words, which is what the label store holds. A span
// walks its ANDs gate-instance by gate-instance in (gate, sample) order,
// hashing each key through the Hasher's crypto/aes core, and then its free
// gates. It is also the reference the assembly kernel is pinned to.

// Pool is a width-capped view of a sched.Pool: it owns no workers, and a
// level run submits its per-worker spans as chunks of one scheduler region,
// which the scheduler's fixed worker set (and the caller) claim across every
// session's runs. A Pool keeps no per-call state, so one instance is safe
// for concurrent level runs and can back a whole server.
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

// hasherPool recycles Hashers: a span on the Go kernel borrows one for its
// lifetime. The AES key is fixed, so any hasher is interchangeable with any
// other.
var hasherPool = sync.Pool{New: func() any { return NewHasher() }}

// laneMinANDs and laneMinFrees are the fan-out thresholds: a level is split
// only as many ways as gives each worker this many AND gate-instances, or
// this many free-gate instances (the two add as fractions), so anything
// smaller runs inline. They are measured, not guessed: on a 2-core x86-64
// host at GOMAXPROCS 2, a 2-way split of a B=1 level took 0.67–1.08× the
// inline run's time at 2 048 ANDs and 0.64–0.93× at 3 072, and 0.85–1.14× at
// 12 288 free gates and 0.67–0.96× at 16 384 (assembly kernel, min of 200
// timings, three runs; on the Go kernel free gates gained from 8 192 on), so
// below that a span handed to another worker costs more than it saves.
// Compiled levels hold at most 1 024 gates, so a B = 1 level runs inline;
// a batch (a full level from B = 3) and concurrent sessions use the cores.
const (
	laneMinANDs  = 1536
	laneMinFrees = 8192
)

// spanner is a party's two kernels over one span of a level: the AND gates
// [andLo, andHi) and the free gates [freeLo, freeHi) of lv, for all B
// samples. Both write the same bytes.
type spanner interface {
	spanGo(lv *level, andLo, andHi, freeLo, freeHi int)
	spanAsm(lv *level, andLo, andHi, freeLo, freeHi int)
}

// span runs k over one span of lv on the kernel this CPU has.
func span(k spanner, lv *level, andLo, andHi, freeLo, freeHi int) {
	if hasKernel {
		k.spanAsm(lv, andLo, andHi, freeLo, freeHi)
	} else {
		k.spanGo(lv, andLo, andHi, freeLo, freeHi)
	}
}

// run executes k over per-worker spans of lv's AND gates and of its free
// gates. The two populations are striped separately — a single partition of
// the concatenation would hand every AES-heavy AND gate to the first workers
// and leave the rest doing only label XORs. Small levels run inline, which
// allocates nothing: lv lies in the state's store, and only a level that
// fans out builds the closure its chunks share. A span that panics on a
// scheduler worker comes back as run's error.
//
// scale is the per-gate work multiplier: the level kernel processes
// scale (= batch size B) samples inside every gate visit, so the fan-out
// thresholds compare nAND×scale gate-instances — a level of 256 ANDs at
// B=16 is 4 096 AES-heavy units and worth striping — while the spans
// handed to workers remain gate ranges (samples stay innermost, per
// worker, for cache locality). Striping never affects the bytes produced,
// so the thresholds are a pure scheduling choice.
func (p *Pool) run(k spanner, lv *level, scale int) error {
	nAND, nFree := len(lv.ands), len(lv.frees)
	w := min(p.width, nAND+nFree, (nAND*scale)/laneMinANDs+(nFree*scale)/laneMinFrees)
	if w <= 1 {
		span(k, lv, 0, nAND, 0, nFree)
		return nil
	}
	// The w spans are the chunks of one scheduler region: workers (and this
	// goroutine) steal chunks across every active region in the process, and
	// a panicking span comes back as the region's error.
	return p.sched.Do(w, func(i int) error {
		andLo, andHi := i*nAND/w, (i+1)*nAND/w
		freeLo, freeHi := i*nFree/w, (i+1)*nFree/w
		if andLo < andHi || freeLo < freeHi {
			span(k, lv, andLo, andHi, freeLo, freeHi)
		}
		return nil
	})
}

// level is one laid-out run of a schedule level as the kernel reads it:
// the AND gates, full ones first, with the global AND index of ands[0];
// the free gates; and the table regions of the two AND kinds (see vec.go's
// file comment for the layout).
type level struct {
	ands, frees []circuit.Gate
	gidBase     uint64
	nFull       int
	full, half  []byte
}

// spanGo garbles ands[andLo:andHi] and frees[freeLo:freeHi] of lv for all B
// samples on the Go kernel.
//
// A full AND is a generator half (A's labels under tweak 2·gid; it
// corrects for B's permute bit) plus an evaluator half (B's labels under
// 2·gid+1; it computes a ∧ colour(B)), a ciphertext each, both with the
// sample's ordinal beside the tweak. A half AND is the evaluator half
// alone: its B is an evaluator-input wire, drawn with permute bit 0, so
// colour(B) is b (with any other permute bit p it garbles a ∧ (b ⊕ p),
// still on authentic labels). Every label is doubled once; its ⊕R twin's
// hash key is that double ⊕ 2R.
func (g *BatchGarbler) spanGo(lv *level, andLo, andHi, freeLo, freeHi int) {
	h := hasherPool.Get().(*Hasher)
	g.garbleANDs(h, lv, andLo, andHi)
	hasherPool.Put(h)
	g.freeSpan(lv.frees[freeLo:freeHi])
}

// spanAsm is spanGo on the assembly kernel.
func (g *BatchGarbler) spanAsm(lv *level, andLo, andHi, freeLo, freeHi int) {
	g.asm(lv, andLo, andHi, freeLo, freeHi, garbleFull, garbleHalf, &g.r2[0], &g.inv[0])
}

// asmANDs is an assembly AND routine of one party and kind (hash_amd64.go).
type asmANDs func(labels *block, gates *circuit.Gate, n, b int, t, first uint64, table *byte, r2, inv *block)

// asm runs a span on the assembly kernel (kernel_amd64.s): full and half are
// the party's AND routines, r2 and inv the garbler's 2R and R per sample.
func (st *labelStore) asm(lv *level, andLo, andHi, freeLo, freeHi int, full, half asmANDs, r2, inv *block) {
	b, seam := st.b, min(max(lv.nFull, andLo), andHi)
	if andLo < seam {
		full(&st.labels[0], &lv.ands[andLo], seam-andLo, b, 2*(lv.gidBase+uint64(andLo)), st.first, &lv.full[andLo*b*TableSize], r2, inv)
	}
	if seam < andHi {
		half(&st.labels[0], &lv.ands[seam], andHi-seam, b, 2*(lv.gidBase+uint64(seam)), st.first, &lv.half[(seam-lv.nFull)*b*LabelSize], r2, inv)
	}
	if freeLo < freeHi {
		freeGates(&st.labels[0], &lv.frees[freeLo], freeHi-freeLo, b, st.n)
	}
}

// tweak returns the tweak (t, o) gate i of lv hashes sample s under:
// t = 2·(gidBase+i), +1 for the evaluator half, goes into the key block's
// low word and o = first+s, the sample's session ordinal, into its high
// word.
func (st *labelStore) tweak(lv *level, i, s int) (t, o uint64) {
	return 2 * (lv.gidBase + uint64(i)), st.first + uint64(s)
}

// tweakSeen, when a test sets it before any level runs, is called with
// every tweak (t, o) the garbler hashes under: the seam through which the
// tweak-uniqueness test records a whole session's.
var tweakSeen func(t, o uint64)

// recordTweaks hands tweakSeen the tweaks of lv's ANDs in every sample:
// both halves' of a full AND, the evaluator half's of a half AND.
func (g *BatchGarbler) recordTweaks(lv *level) {
	for i := range lv.ands {
		for s := range g.b {
			t, o := g.tweak(lv, i, s)
			if i < lv.nFull {
				tweakSeen(t, o)
			}
			tweakSeen(t|1, o)
		}
	}
}

// garbleANDs garbles ands[lo:hi] of lv, instance by instance: four hashes
// per full AND (both labels of each operand), two per half.
func (g *BatchGarbler) garbleANDs(h *Hasher, lv *level, lo, hi int) {
	b, labels := g.b, g.labels
	for i := lo; i < hi; i++ {
		gt := &lv.ands[i]
		for s := range b {
			t, o := g.tweak(lv, i, s)
			a, bl, r2 := labels[int(gt.A)*b+s], labels[int(gt.B)*b+s], g.r2[s]
			pb := -(bl.lo & 1) // all ones when B's zero-label has permute bit 1
			var w block
			var dst []byte
			if i >= lv.nFull {
				off := ((i-lv.nFull)*b + s) * LabelSize
				dst = lv.half[off : off+LabelSize]
			} else {
				// Generator half: tg = H(A0) ⊕ H(A1) ⊕ pb·R, W_G = H(A0) ⊕ pa·tg.
				d, r := dbl(a), g.inv[s]
				h0 := h.hashKey(block{d.lo ^ t, d.hi ^ o})
				h1 := h.hashKey(block{d.lo ^ r2.lo ^ t, d.hi ^ r2.hi ^ o})
				tg := block{h0.lo ^ h1.lo ^ r.lo&pb, h0.hi ^ h1.hi ^ r.hi&pb}
				pa := -(a.lo & 1)
				w = block{h0.lo ^ tg.lo&pa, h0.hi ^ tg.hi&pa}
				off := (i*b + s) * TableSize
				dst = lv.full[off : off+TableSize]
				tg.put(dst)
				dst = dst[LabelSize:]
			}
			// Evaluator half: te = H(B0) ⊕ H(B1) ⊕ A0, W_E = H(B_pb).
			d := dbl(bl)
			h0 := h.hashKey(block{d.lo ^ t ^ 1, d.hi ^ o})
			h1 := h.hashKey(block{d.lo ^ r2.lo ^ t ^ 1, d.hi ^ r2.hi ^ o})
			block{h0.lo ^ h1.lo ^ a.lo, h0.hi ^ h1.hi ^ a.hi}.put(dst)
			labels[int(gt.Out)*b+s] = block{w.lo ^ h0.lo ^ (h0.lo^h1.lo)&pb, w.hi ^ h0.hi ^ (h0.hi^h1.hi)&pb}
		}
	}
}

// spanGo is the garbler's spanGo mirrored: every instance hashes its active
// labels once per half and combines them with its ciphertexts.
func (e *BatchEvaluator) spanGo(lv *level, andLo, andHi, freeLo, freeHi int) {
	h := hasherPool.Get().(*Hasher)
	e.evalANDs(h, lv, andLo, andHi)
	hasherPool.Put(h)
	e.freeSpan(lv.frees[freeLo:freeHi])
}

// spanAsm is spanGo on the assembly kernel.
func (e *BatchEvaluator) spanAsm(lv *level, andLo, andHi, freeLo, freeHi int) {
	e.asm(lv, andLo, andHi, freeLo, freeHi, evalFull, evalHalf, nil, nil)
}

// evalANDs evaluates ands[lo:hi] of lv, instance by instance: two hashes
// per full AND, one per half, under the garbler's tweaks.
func (e *BatchEvaluator) evalANDs(h *Hasher, lv *level, lo, hi int) {
	b, labels := e.b, e.labels
	for i := lo; i < hi; i++ {
		gt := &lv.ands[i]
		for s := range b {
			t, o := e.tweak(lv, i, s)
			a, bl := labels[int(gt.A)*b+s], labels[int(gt.B)*b+s]
			pb := -(bl.lo & 1)
			var w block
			var tab []byte
			if i >= lv.nFull {
				off := ((i-lv.nFull)*b + s) * LabelSize
				tab = lv.half[off : off+LabelSize]
			} else {
				off := (i*b + s) * TableSize
				tab = lv.full[off : off+TableSize]
				d, tg := dbl(a), blockAt(tab)
				hh := h.hashKey(block{d.lo ^ t, d.hi ^ o})
				pa := -(a.lo & 1)
				w = block{hh.lo ^ tg.lo&pa, hh.hi ^ tg.hi&pa}
				tab = tab[LabelSize:]
			}
			d, te := dbl(bl), blockAt(tab)
			hh := h.hashKey(block{d.lo ^ t ^ 1, d.hi ^ o})
			labels[int(gt.Out)*b+s] = block{w.lo ^ hh.lo ^ (te.lo^a.lo)&pb, w.hi ^ hh.hi ^ (te.hi^a.hi)&pb}
		}
	}
}

// freeSpan runs free gates for all B samples, each one XOR on both sides:
// an XOR's output is A ⊕ B, an INV's is A ⊕ the inversion slot — A ⊕ R on
// the garbler, A itself on the evaluator, whose slot is zero.
func (st *labelStore) freeSpan(frees []circuit.Gate) {
	b, labels, slot := st.b, st.labels, st.n*st.b
	for i := range frees {
		gt := &frees[i]
		a, x, out := int(gt.A)*b, int(gt.B)*b, int(gt.Out)*b
		if gt.Op == circuit.INV {
			x = slot
		}
		for s := 0; s < b; s++ {
			labels[out+s] = labels[a+s].xor(labels[x+s])
		}
	}
}

// Package bank implements garble-ahead execution banks: the offline/online
// split of ot/precomp extended from OTs to whole inferences. The netlist
// is public and fixed per model, so everything the garbler does except
// choosing input labels can happen before a request arrives — during idle
// time the garbling side pre-garbles future inferences for a compiled
// program, banking each one's Free-XOR delta, input zero-labels, full
// garbled-table stream, and output zero-labels. An online inference then
// costs only input-label selection (XORs), stream writes from the bank,
// and the OT derandomization exchange.
//
// The policy machinery mirrors precomp.Pool: a depth targeted by fills, a
// low-water mark that triggers a refill, and an optional background
// refiller that garbles on a helper goroutine while the session is
// wire-bound. Banked executions are strictly single-use: they are
// seq-numbered at garble time, handed out in FIFO order, removed from the
// bank permanently on TakeN (a consumer that dies mid-stream discards its
// execution; it is never re-issued), and zeroed on release. Exhaustion
// never blocks — TakeN reports a miss and the caller falls back to live
// garbling, so a cold or drained bank degrades to exactly the bank-off
// protocol.
//
// A banked execution lives in memory only — its table bytes (the
// schedule's TableBytes per execution) are key material and are never written anywhere else — so
// Depth is the bank's memory budget.
//
// Determinism: a fill garbles each execution by driving a one-sample live
// table source — the one an inference without a bank garbles through —
// along the engine's walk and recording what it hands out (source.go), so
// for the same rng state a banked execution's bytes are identical to what
// live garbling would have put on the wire: the conformance property the
// core tests pin. This package is also the only one that knows what an
// execution stores: the engine reads one back through the same Source
// interface it garbles live through.
package bank

import (
	"io"
	"sync"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/obs"
)

// Config sizes a garble-ahead execution bank.
type Config struct {
	// Depth is the number of pre-garbled executions targeted by the
	// initial fill and by each refill. 0 disables banking entirely (every
	// inference garbles live, the bank-off protocol).
	Depth int
	// Background refills the bank on a helper goroutine after a TakeN
	// leaves it below low water (a quarter of Depth, at least 1), so
	// banked executions regenerate while the session is wire-bound; without
	// it only Fill garbles. Requires an rng that is safe for concurrent use
	// (crypto/rand; deterministic test readers are only for
	// Background=false banks — the reason this is a field and not the one
	// mode).
	Background bool
}

// Enabled reports whether this configuration turns banking on.
func (c Config) Enabled() bool { return c.Depth > 0 }

// Execution is one pre-garbled inference: everything the garbler's side
// of the protocol produces except the input-bit-dependent label
// selection, each kind as one flat sequence in the order the walk asks for
// it. Consumers read it through a Source (Banked); Release zeroes the
// secret material when the consumer is done (or has died mid-stream).
type Execution struct {
	seq int64

	// r is the execution's Free-XOR delta; the active label of input bit
	// b on a wire with zero-label Z is Z ⊕ b·r.
	r gc.Label
	// consts holds the active constant-wire labels the garbler sends at
	// inference start: false, then true.
	consts []byte
	// inZero holds the zero-labels of every input wire, both parties'
	// steps in schedule order, each step's wires in declaration order.
	inZero []gc.Label
	// tables holds the full garbled-table byte stream (level runs and
	// their levels contiguous, gate rank within a level fixing each
	// table's offset — the exact bytes live garbling streams).
	tables []byte
	// outZero are the output wires' zero-labels, what output
	// authentication needs. Release keeps them: ownership transfers to
	// the pending inference.
	outZero []gc.Label
}

// Seq returns the execution's bank sequence number (strictly monotone
// across a bank's lifetime — single-use instrumentation, like
// precomp.ReceiverPool.Seq).
func (ex *Execution) Seq() int64 { return ex.seq }

// Release zeroes the execution's table bytes and input labels. Call it
// once the stream is flushed — or on a failed inference, where the
// execution is discarded (it was already removed from the bank, so it
// can never be re-issued). The output zero-labels and the delta are kept:
// output authentication still needs them after the stream is gone.
func (ex *Execution) Release() { ex.zero(false) }

func (ex *Execution) zero(full bool) {
	clear(ex.tables)
	clear(ex.inZero)
	clear(ex.consts)
	ex.tables, ex.inZero, ex.consts = nil, nil, nil
	if full {
		clear(ex.outZero)
		ex.outZero = nil
		ex.r = gc.Label{}
	}
}

// Bank is a FIFO of pre-garbled executions for one compiled schedule.
// TakeN/Fill are safe for concurrent use (a client may share
// one bank across sessions of the same program); the rng must then be
// concurrency-safe too, like any multi-session randomness source.
type Bank struct {
	sched *circuit.Schedule
	rng   io.Reader
	cfg   Config
	pool  *gc.Pool

	// fillMu serializes garbling (Fill calls and the background
	// refiller): one stateful walk at a time against the shared pool.
	fillMu sync.Mutex

	mu        sync.Mutex
	fifo      []*Execution
	head      int
	nextSeq   int64 // seq assigned to the next banked execution
	seq       int64 // seq of the next execution to be consumed
	refilling bool
	closed    bool
	fillErr   error // sticky background-fill failure (bank stops refilling)
	wg        sync.WaitGroup

	set *obs.Set // the ledger this bank records in
}

// New creates a bank for one compiled schedule that garbles on the
// caller's pool — the engine's view of the shared scheduler, so background
// fills steal idle machine capacity rather than adding goroutines. The bank
// serializes its own fills (one stateful schedule walk at a time).
func New(sched *circuit.Schedule, rng io.Reader, pool *gc.Pool, cfg Config) *Bank {
	return &Bank{sched: sched, rng: rng, cfg: cfg, pool: pool, set: obs.NewSet(obs.Root)}
}

// Metrics returns the ledger the bank records in: one of its own under
// obs.Root, until SetMetrics.
func (b *Bank) Metrics() *obs.Set { return b.set }

// SetMetrics makes the bank record into its owner's ledger — the client's,
// which the ledgers of the sessions that take from the bank are under, so
// that their hits and misses land in it too. Banks that share an owner
// share its ledger, which then counts them together. Call before the first
// Fill.
func (b *Bank) SetMetrics(s *obs.Set) { b.set = s }

// Err returns the sticky background-fill error, if any: the bank stops
// refilling after one, and consumers fall back to live garbling.
func (b *Bank) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fillErr
}

// Available returns the number of banked, unconsumed executions.
func (b *Bank) Available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.available()
}

func (b *Bank) available() int { return len(b.fifo) - b.head }

// Seq returns the sequence number of the next execution to be consumed:
// strictly monotone, so tests can prove consumed executions never
// overlap (single-use safety).
func (b *Bank) Seq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Fill tops the bank up to Depth synchronously — the initial offline
// fill at session setup (and a test/bench hook to re-warm between
// runs). Concurrent Fills serialize; a Fill overlapping a background
// refill waits for it.
func (b *Bank) Fill() error {
	if !b.cfg.Enabled() {
		return nil
	}
	b.fillMu.Lock()
	defer b.fillMu.Unlock()
	return b.fillLocked()
}

// fillLocked garbles executions until the bank holds Depth. Caller holds
// fillMu.
func (b *Bank) fillLocked() error {
	banked := false
	for {
		b.mu.Lock()
		if b.closed || b.available() >= b.cfg.Depth {
			if banked {
				b.set.BankFills.Inc()
			}
			b.mu.Unlock()
			return nil
		}
		b.mu.Unlock()
		start := time.Now()
		ex, err := record(b.rng, b.sched, b.pool)
		if err != nil {
			return err
		}
		b.insert(ex, time.Since(start))
		banked = true
	}
}

// insert banks one freshly garbled execution, assigning its sequence
// number. A bank closed mid-garble discards the execution.
func (b *Bank) insert(ex *Execution, dt time.Duration) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ex.zero(true)
		return
	}
	ex.seq = b.nextSeq
	b.nextSeq++
	if b.head > 0 && b.head*2 >= len(b.fifo) {
		b.fifo = append(b.fifo[:0], b.fifo[b.head:]...)
		b.head = 0
	}
	b.fifo = append(b.fifo, ex)
	avail := b.available()
	b.mu.Unlock()
	b.set.Phase[obs.PhaseBankRefill].Observe(int64(dt))
	b.set.BankRefills.Inc()
	b.set.BankAvailable.Set(int64(avail))
}

// TakeN removes and returns the n oldest banked executions —
// all-or-nothing: a bank holding fewer than n hands out none of them and
// returns nil, the miss that tells the caller to garble live; it
// never blocks. Batched consumers assemble their fused stream from n
// single executions (Banked). A taken execution is gone from the bank
// permanently, whatever its consumer's fate, and a take that leaves the
// bank below low water kicks off a background refill. The outcome — n
// hits or n misses, one per sample the taker will garble — is recorded in
// rec, the taker's ledger (the bank's own or one under it).
func (b *Bank) TakeN(n int, rec *obs.Set) []*Execution {
	b.mu.Lock()
	if b.available() < n {
		b.mu.Unlock()
		rec.BankMisses.Add(int64(n))
		b.maybeRefill()
		return nil
	}
	exs := make([]*Execution, n)
	copy(exs, b.fifo[b.head:b.head+n])
	for i := b.head; i < b.head+n; i++ {
		b.fifo[i] = nil
	}
	b.head += n
	b.seq = exs[n-1].seq + 1
	b.mu.Unlock()

	rec.BankHits.Add(int64(n))
	b.set.BankAvailable.Set(int64(b.Available()))
	b.maybeRefill()
	return exs
}

// maybeRefill starts the background refiller when the policy calls for
// one.
func (b *Bank) maybeRefill() {
	if !b.cfg.Background {
		return
	}
	b.mu.Lock()
	if b.closed || b.refilling || b.fillErr != nil || b.available() >= max(b.cfg.Depth/4, 1) {
		b.mu.Unlock()
		return
	}
	b.refilling = true
	b.wg.Add(1)
	b.mu.Unlock()
	go func() {
		defer b.wg.Done()
		err := func() (err error) {
			// A panic mid-fill is contained into fillErr — the bank
			// degrades to a permanent live-garbling fallback instead of
			// killing the process — and must not leak fillMu, or every
			// later fill (and Close) would deadlock on it.
			defer func() {
				if v := recover(); v != nil {
					err = obs.Panicked("bank: background refill", v)
				}
			}()
			b.fillMu.Lock()
			defer b.fillMu.Unlock()
			return b.fillLocked()
		}()
		b.mu.Lock()
		b.refilling = false
		if err != nil && b.fillErr == nil {
			b.fillErr = err
		}
		b.mu.Unlock()
	}()
}

// Close stops background refilling, waits for an in-flight refill to
// finish, and zeroes every banked execution.
// Further Takes miss; a closed bank is a permanent fallback to live
// garbling.
func (b *Bank) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wg.Wait()
	b.mu.Lock()
	for i := b.head; i < len(b.fifo); i++ {
		ex := b.fifo[i]
		b.mu.Unlock()
		ex.zero(true)
		b.mu.Lock()
		b.fifo[i] = nil
	}
	b.fifo, b.head = nil, 0
	b.mu.Unlock()
}

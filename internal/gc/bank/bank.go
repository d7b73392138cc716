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
// With SpillDir set, each banked execution's table bytes (the dominant
// memory cost, ANDs×32 bytes per execution) are spilled to disk and read
// back (and the file deleted — single-use on disk too) on TakeN; labels
// stay in memory. Spilled tables are plaintext garbled tables: protect
// the directory like any key material.
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
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	// LowWater triggers a background refill once the unconsumed bank
	// drops below it. 0 defaults to Depth/4 (minimum 1).
	LowWater int
	// Background refills the bank on a helper goroutine after a TakeN
	// leaves it below low water, so banked executions regenerate while
	// the session is wire-bound. Requires an rng that is safe for
	// concurrent use (crypto/rand; deterministic test readers are only
	// for Background=false banks).
	Background bool
	// SpillDir, when non-empty, spills each banked execution's table
	// bytes to a file under the directory instead of holding them in
	// memory; TakeN reads the file back and deletes it.
	SpillDir string
}

// Enabled reports whether this configuration turns banking on.
func (c Config) Enabled() bool { return c.Depth > 0 }

func (c Config) lowWater() int {
	lw := c.Depth / 4
	if c.LowWater > 0 {
		lw = c.LowWater
	}
	if c.Enabled() && lw < 1 {
		lw = 1
	}
	// A low-water mark above depth would demand a refill from a full
	// bank: clamp so "full" always satisfies the policy.
	if c.Enabled() && lw > c.Depth {
		lw = c.Depth
	}
	return lw
}

// Stats is a bank's read-out of its ledger: its offline and online
// activity. RefillTime is the wall time spent garbling executions into the
// bank — the crypto the online path no longer pays; it accumulates on
// whichever goroutine ran the fill.
type Stats struct {
	Hits   int64 // executions taken from the bank
	Misses int64 // executions asked of a bank that was empty, short or unreadable
	Banked int64 // executions garbled into the bank
	Spills int64 // executions whose tables were spilled to disk

	Refills    int64 // fill rounds (the initial fill included)
	RefillTime time.Duration
}

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
	// table's offset — the exact bytes live garbling streams); nil while
	// spilled.
	tables []byte
	// outZero are the output wires' zero-labels, what output
	// authentication needs. Release keeps them: ownership transfers to
	// the pending inference.
	outZero []gc.Label

	spill string // path of the spilled tables file, "" when in memory
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
	if ex.spill != "" {
		os.Remove(ex.spill) //nolint:errcheck — best-effort cleanup
		ex.spill = ""
	}
	if full {
		clear(ex.outZero)
		ex.outZero = nil
		ex.r = gc.Label{}
	}
}

// Bank is a FIFO of pre-garbled executions for one compiled schedule.
// TakeN/Fill/Stats are safe for concurrent use (a client may share
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
// share its ledger: Stats then counts them together. Call before the
// first Fill.
func (b *Bank) SetMetrics(s *obs.Set) { b.set = s }

// Stats reads the bank's counters out of its ledger. An execution banked
// is one observation of the bank_refill phase, so that histogram holds the
// refill time.
func (b *Bank) Stats() Stats {
	return Stats{
		Hits:       b.set.BankHits.Value(),
		Misses:     b.set.BankMisses.Value(),
		Banked:     b.set.BankRefills.Value(),
		Spills:     b.set.BankSpills.Value(),
		Refills:    b.set.BankFills.Value(),
		RefillTime: time.Duration(b.set.Phase[obs.PhaseBankRefill].Sum()),
	}
}

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
		ex, err := b.garbleOne()
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
// reports (nil, nil), the miss that tells the caller to garble live; it
// never blocks. Batched consumers assemble their fused stream from n
// single executions (Banked). A taken execution is gone from the bank
// permanently, whatever its consumer's fate, and a take that leaves the
// bank below low water kicks off a background refill. The outcome — n
// hits or n misses, one per sample the taker will garble — is recorded in
// rec, the taker's ledger (the bank's own or one under it).
func (b *Bank) TakeN(n int, rec *obs.Set) ([]*Execution, error) {
	b.mu.Lock()
	if b.available() < n {
		b.mu.Unlock()
		rec.BankMisses.Add(int64(n))
		b.maybeRefill()
		return nil, nil
	}
	exs := make([]*Execution, n)
	copy(exs, b.fifo[b.head:b.head+n])
	for i := b.head; i < b.head+n; i++ {
		b.fifo[i] = nil
	}
	b.head += n
	b.seq = exs[n-1].seq + 1
	b.mu.Unlock()

	var loadErr error
	for _, ex := range exs {
		if loadErr == nil && ex.spill != "" {
			loadErr = b.load(ex)
		}
		if loadErr != nil {
			// A lost spill file loses the whole take (the executions are
			// already off the bank — single-use means no re-banking):
			// zero the survivors and report the miss; the caller garbles
			// live and the protocol proceeds.
			ex.zero(true)
		}
	}
	if loadErr != nil {
		rec.BankMisses.Add(int64(n))
	} else {
		rec.BankHits.Add(int64(n))
	}
	b.set.BankAvailable.Set(int64(b.Available()))
	b.maybeRefill()
	if loadErr != nil {
		return nil, loadErr
	}
	return exs, nil
}

// maybeRefill starts the background refiller when the policy calls for
// one.
func (b *Bank) maybeRefill() {
	if !b.cfg.Background {
		return
	}
	b.mu.Lock()
	if b.closed || b.refilling || b.fillErr != nil || b.available() >= b.cfg.lowWater() {
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
// finish, and zeroes every banked execution (removing spill files).
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

// garbleOne records one execution (source.go) and, with a SpillDir, moves
// its tables to disk.
func (b *Bank) garbleOne() (*Execution, error) {
	ex, err := record(b.rng, b.sched, b.pool)
	if err == nil && b.cfg.SpillDir != "" {
		err = b.spillTables(ex)
	}
	return ex, err
}

// spillTables writes the execution's tables to a fresh file and drops them
// from memory.
func (b *Bank) spillTables(ex *Execution) error {
	b.mu.Lock()
	n := b.nextSeq + int64(b.available()) // unique enough: inserts are serialized by fillMu
	spillID := fmt.Sprintf("exec-%d-%d.tables", n, time.Now().UnixNano())
	b.mu.Unlock()
	name := filepath.Join(b.cfg.SpillDir, spillID)
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err == nil {
		_, err = f.Write(ex.tables)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(name) //nolint:errcheck — best-effort cleanup
		}
	}
	if err != nil {
		return fmt.Errorf("bank: spill: %w", err)
	}
	clear(ex.tables)
	ex.tables = nil
	ex.spill = name
	b.set.BankSpills.Inc()
	return nil
}

// load reads a spilled execution's tables back (deleting the file —
// single-use on disk too).
func (b *Bank) load(ex *Execution) error {
	data, err := os.ReadFile(ex.spill)
	os.Remove(ex.spill) //nolint:errcheck — single-use: gone either way
	ex.spill = ""
	if err != nil {
		return fmt.Errorf("bank: spill load: %w", err)
	}
	if want := b.sched.ANDs * gc.TableSize; int64(len(data)) != want {
		return fmt.Errorf("bank: spill file is %d bytes, schedule wants %d", len(data), want)
	}
	ex.tables = data
	return nil
}

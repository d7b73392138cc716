// Package sched provides the process-wide work-stealing worker pool the
// garbling/evaluation engines share across sessions: one sched.Pool owns a
// fixed worker set sized to the machine and every session's level runs
// submit chunks to it (a gc.Pool is a width-capped view of one), so S
// sessions at window depth d never oversubscribe the machine with
// S×d×workers goroutines.
//
// The scheduling unit is a region: one parallel level run, split into a
// fixed number of chunks claimed by atomic cursor increments. Workers
// scan the active regions round-robin and steal chunks wherever work
// remains — chunk-granular work stealing with no per-chunk channel
// traffic. The caller of Do always participates in its own region, so a
// Do call makes progress even when every background worker is busy on
// other sessions' regions (or the pool is closed): submission can never
// deadlock, only degrade to inline execution.
//
// The pool is pure scheduling: which goroutine runs a chunk never
// affects the bytes the chunk produces, so the engines' worker-count
// byte-determinism carries over unchanged (pinned by the width 1 ≡ width N
// conformance tests in internal/gc and internal/core).
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"deepsecure/internal/obs"
)

// region is one submitted parallel run: n chunks claimed by atomic
// increments of next, completion tracked by wg, first error wins.
type region struct {
	fn   func(chunk int) error
	n    int32
	next atomic.Int32
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error
}

// exec runs one claimed chunk and records its outcome. A panicking
// chunk is contained here and recorded as the region's error: chunks
// run on shared workers serving every session in the process, so a
// panic that escaped would kill all of them, not just the session whose
// level run misbehaved. The recover covers the caller-drain path too —
// Do must return an error, never unwind its caller's stack with another
// session's panic.
func (r *region) exec(c int32) {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.fail(obs.Panicked(fmt.Sprintf("sched: chunk %d", c), v))
		}
	}()
	if err := r.fn(int(c)); err != nil {
		r.fail(err)
	}
}

// fail records the region's first error.
func (r *region) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// drain claims and executes chunks until the region is exhausted.
func (r *region) drain() {
	for {
		c := r.next.Add(1) - 1
		if c >= r.n {
			return
		}
		r.exec(c)
	}
}

// Pool is a shared work-stealing worker set. Many goroutines may call Do
// concurrently; their regions coexist in the pool and workers steal
// chunks across all of them.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	regions []*region
	rr      int // round-robin scan offset, for cross-region fairness
	closed  bool
	workers int
}

// New starts a pool with n background workers (n < 1 is clamped to 1).
// Size it to the machine, not the session count: callers participate in
// their own regions, so n workers serve any number of concurrent Do
// calls without oversubscribing cores.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: n}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's background-worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the background workers. In-flight and future Do calls
// still complete — their callers drain the chunks inline — so Close is
// safe at any time; it only removes the parallelism.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *Pool) worker() {
	for {
		r := p.wait()
		if r == nil {
			return
		}
		r.drain()
	}
}

// wait blocks until some region has unclaimed chunks (returning it) or
// the pool closes (returning nil). The scan starts at a rotating offset
// so one long region at the front cannot monopolize every worker.
func (p *Pool) wait() *region {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil
		}
		if n := len(p.regions); n > 0 {
			start := p.rr
			p.rr++
			for i := 0; i < n; i++ {
				r := p.regions[(start+i)%n]
				if r.next.Load() < r.n {
					return r
				}
			}
		}
		p.cond.Wait()
	}
}

// Do runs fn(0) … fn(nchunks-1), striped across the pool's workers and
// the calling goroutine, and returns after every chunk has finished.
// The first chunk error wins. fn must be safe for concurrent calls with
// distinct chunk indexes. A nil pool runs the chunks inline.
func (p *Pool) Do(nchunks int, fn func(chunk int) error) error {
	if nchunks <= 0 {
		return nil
	}
	r := &region{fn: fn, n: int32(nchunks)}
	r.wg.Add(nchunks)
	published := false
	if p != nil && nchunks > 1 {
		p.mu.Lock()
		if !p.closed {
			p.regions = append(p.regions, r)
			published = true
		}
		p.mu.Unlock()
		if published {
			p.cond.Broadcast()
		}
	}
	// Caller participation: claim chunks like a worker. This is what
	// makes submission deadlock-free — with every worker busy (or the
	// pool closed) the region still drains on this goroutine.
	r.drain()
	r.wg.Wait()
	if published {
		p.mu.Lock()
		for i, q := range p.regions {
			if q == r {
				p.regions = append(p.regions[:i], p.regions[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
	}
	// wg.Wait orders every exec's error write before this read.
	return r.err
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use
// with GOMAXPROCS background workers. Every session's engine submits
// here.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = New(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}

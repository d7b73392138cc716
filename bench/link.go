package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// linkStats is what the benchmark observes on the client's side of the
// wire, summed over every connection of a workload: bytes each way and
// direction reversals. It is the source of wire_mb_per_infer and
// core.flights_per_infer, deliberately independent of core.Stats.
type linkStats struct {
	sent, recv atomic.Int64
	// reversals counts changes of direction of the byte flow (a write
	// after a read or a read after a write). One request/response round
	// trip is two reversals.
	reversals atomic.Int64
}

// linkCounts is a point-in-time copy of a linkStats.
type linkCounts struct{ sent, recv, reversals int64 }

func (s *linkStats) snapshot() linkCounts {
	return linkCounts{s.sent.Load(), s.recv.Load(), s.reversals.Load()}
}

func (a linkCounts) sub(b linkCounts) linkCounts {
	return linkCounts{a.sent - b.sent, a.recv - b.recv, a.reversals - b.reversals}
}

const (
	dirNone int32 = iota
	dirWrite
	dirRead
)

// countConn counts the bytes and direction reversals of one connection
// into a shared linkStats.
type countConn struct {
	net.Conn
	stats *linkStats
	last  atomic.Int32 // direction of the latest bytes moved
}

func (c *countConn) moved(dir int32, n int, total *atomic.Int64) {
	if n <= 0 {
		return
	}
	total.Add(int64(n))
	if prev := c.last.Swap(dir); prev != dirNone && prev != dir {
		c.stats.reversals.Add(1)
	}
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.moved(dirWrite, n, &c.stats.sent)
	return n, err
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.moved(dirRead, n, &c.stats.recv)
	return n, err
}

// delayConn adds a fixed one-way delay to each direction of a connection
// (no bandwidth cap): the WAN link model. Bytes written become visible to
// the peer delay later; bytes the peer sent become readable delay after
// they arrived. Both queues live on this side, so the peer sees an
// ordinary connection.
type delayConn struct {
	net.Conn
	out, in         *delayQueue
	outDone, inDone chan struct{} // closed when the pump goroutine has exited
}

func newDelayConn(c net.Conn, delay time.Duration) *delayConn {
	d := &delayConn{Conn: c, out: newDelayQueue(delay), in: newDelayQueue(delay),
		outDone: make(chan struct{}), inDone: make(chan struct{})}
	go func() { // deliver delayed writes to the peer
		defer close(d.outDone)
		failed := false // after a write error, keep emptying the queue
		for {
			b, ok := d.out.pop()
			if !ok {
				return
			}
			if !failed {
				_, err := c.Write(b)
				failed = err != nil
			}
		}
	}()
	go func() { // stamp bytes as they arrive from the peer
		defer close(d.inDone)
		defer d.in.close()
		for {
			buf := make([]byte, 64<<10)
			n, err := c.Read(buf)
			if n > 0 && !d.in.push(buf[:n]) {
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return d
}

func (d *delayConn) Write(b []byte) (int, error) {
	if !d.out.push(append([]byte(nil), b...)) {
		return 0, net.ErrClosed
	}
	return len(b), nil
}

func (d *delayConn) Read(b []byte) (int, error) { return d.in.read(b) }

// Close lets writes already queued reach the peer, then closes the
// connection and waits for both pump goroutines.
func (d *delayConn) Close() error {
	d.out.close()
	<-d.outDone
	err := d.Conn.Close()
	<-d.inDone
	return err
}

// delayQueue releases byte chunks a fixed delay after they were pushed,
// in order.
type delayQueue struct {
	delay  time.Duration
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []delayChunk
	closed bool
}

type delayChunk struct {
	due  time.Time
	data []byte
}

func newDelayQueue(delay time.Duration) *delayQueue {
	q := &delayQueue{delay: delay}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *delayQueue) push(b []byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.chunks = append(q.chunks, delayChunk{due: time.Now().Add(q.delay), data: b})
	q.cond.Broadcast()
	return true
}

// head blocks until the oldest chunk is due and returns it without
// removing it; ok is false once the queue is closed and empty. The caller
// holds q.mu.
func (q *delayQueue) head() (c *delayChunk, ok bool) {
	for {
		for len(q.chunks) == 0 {
			if q.closed {
				return nil, false
			}
			q.cond.Wait()
		}
		wait := time.Until(q.chunks[0].due)
		if wait <= 0 {
			return &q.chunks[0], true
		}
		q.mu.Unlock()
		time.Sleep(wait)
		q.mu.Lock()
	}
}

func (q *delayQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	c, ok := q.head()
	if !ok {
		return nil, false
	}
	b := c.data
	q.chunks = q.chunks[1:]
	return b, true
}

func (q *delayQueue) read(b []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	c, ok := q.head()
	if !ok {
		return 0, io.EOF
	}
	n := copy(b, c.data)
	c.data = c.data[n:]
	if len(c.data) == 0 {
		q.chunks = q.chunks[1:]
	}
	return n, nil
}

// close refuses further pushes; chunks already queued are still released.
func (q *delayQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// dial opens the workload's client connection: loopback TCP, delayed when
// the workload models a WAN, with every byte counted into stats.
func dial(addr string, delay time.Duration, stats *linkStats) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		c = newDelayConn(c, delay)
	}
	return &countConn{Conn: c, stats: stats}, nil
}

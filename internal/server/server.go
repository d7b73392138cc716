// Package server turns a model-owning core.Server into a long-lived
// concurrent network service: a net.Listener accept loop with one
// goroutine per connection, where every session shares the one compiled
// netlist tape (read-only) and pays the handshake and OT base phase only
// once per connection. This is the deployment shape the paper's
// scalability argument (§3.5, streaming constant-memory execution) is
// aimed at: the server's marginal cost per client is the cryptography,
// not netlist generation.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// Stats is a read-out of a server's ledger: what the server itself
// records — sessions and admission — and, embedded, the core.Stats of all
// its sessions' work so far, which lands in the same ledger from theirs
// (sums; Duration is the wall time of the finished sessions).
type Stats struct {
	Sessions       int64 // sessions accepted
	ActiveSessions int64 // sessions currently being served
	Errors         int64 // sessions that ended with a protocol error

	// Admission accounting (zero unless WithAdmission is configured):
	// sessions that waited in the admission queue, sessions refused with
	// MsgBusy, and the instantaneous queue depth.
	QueuedSessions int64
	ShedSessions   int64
	QueueDepth     int64

	core.Stats
}

// Server serves secure-inference sessions over TCP (or any net.Listener).
// Create with New, start with Serve, ServeContext, or ListenAndServe,
// stop with Shutdown (graceful) or Close (abrupt).
type Server struct {
	core *core.Server

	// Logf, when set, receives per-session log lines (e.g. log.Printf).
	Logf func(format string, args ...any)

	idleTimeout time.Duration
	adm         *admission // nil unless WithAdmission configured

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	// set is the server's ledger, under obs.Root and above each of its
	// sessions': accepts, errors and admission are recorded here, and Stats
	// is its read-out.
	set *obs.Set
}

// Option configures a Server at construction.
type Option func(*Server)

// WithEngine selects the session execution-engine configuration every
// session of this server evaluates with: worker count, table chunk size,
// the in-flight window (Pipeline) and batch cap (MaxBatch) the server
// announces and enforces, and the phase deadlines.
func WithEngine(cfg core.EngineConfig) Option {
	return func(s *Server) { s.core.Engine = cfg }
}

// WithOTPool sizes the offline OT pool every session of this server
// precomputes at setup, keyed to the model's weight bits, and refills
// between inferences: a weight transfer costs the client one masked-label
// frame and XORs, with no reply and no cryptography on the critical path.
// Without it (or with a zero Capacity) the pool is sized from the model:
// its weight bits × the in-flight window. The server owns the policy;
// clients follow the announcement.
func WithOTPool(cfg precomp.PoolConfig) Option {
	return func(s *Server) { s.core.OTPool = cfg }
}

// WithIdleTimeout bounds how long a session connection may sit idle.
// Each read and each write arms a deadline of d; a client that stalls
// mid-protocol — never speaking, or holding the connection open while
// refusing to drain the server's writes — has its connection closed
// instead of pinning a goroutine and its engine state forever. Zero
// (the default) disables the timeout.
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) { s.idleTimeout = d }
}

// New builds a server around the private model and eagerly compiles the
// inference netlist, so the first client doesn't pay generation latency
// and every session replays the same shared program.
func New(model *nn.Network, f fixed.Format, opts ...Option) (*Server, error) {
	cs := &core.Server{Net: model, Fmt: f}
	s := &Server{core: cs, conns: make(map[net.Conn]struct{}), set: obs.NewSet(obs.Root)}
	cs.SetMetrics(s.set)
	for _, o := range opts {
		o(s)
	}
	if _, err := cs.Program(); err != nil {
		return nil, fmt.Errorf("server: compile netlist: %w", err)
	}
	return s, nil
}

// ProgramStats exposes gate counts of the compiled netlist (for logging).
func (s *Server) ProgramStats() (andGates, totalGates int64) {
	prog, err := s.core.Program()
	if err != nil {
		return 0, 0
	}
	st := prog.Stats
	return st.AND, st.Total()
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown
// or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown or Close, mirroring
// net/http's contract.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln and serves one session per connection,
// each in its own goroutine. It blocks until the listener fails or the
// server is shut down, in which case it returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext is Serve with cancellation propagation: when ctx is
// cancelled, the listener stops accepting and every in-flight session
// connection is closed, unblocking its goroutine mid-protocol. It
// returns ErrServerClosed after a cancellation, like any other shutdown.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listener = ln
	s.mu.Unlock()

	// Cancellation force-closes the whole server: no new accepts, every
	// session connection closed (which unblocks its read).
	stop := context.AfterFunc(ctx, func() { s.Close() })
	defer stop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// idleConn arms a deadline before every read and write, so a session
// stalls for at most the idle timeout no matter where in the protocol
// the peer went quiet — including a peer that keeps the connection open
// but stops draining its receive window (which would otherwise pin the
// server in a blocked Write that no read deadline can interrupt).
//
// On a session the reader goroutine has a read pending whenever its
// ring has room, including during an inference's evaluation tail, when a
// conforming client is legitimately silent (it is waiting for the
// output labels). A timed-out read therefore only counts as a stall if
// the session made no compute progress since the previous deadline:
// progress points at the transport.Conn's activity counter, which the
// evaluation engine bumps per gate level.
type idleConn struct {
	net.Conn
	idle time.Duration

	progress     *atomic.Int64
	lastProgress int64 // only touched by the (single) reading goroutine
}

func (c *idleConn) Read(p []byte) (int, error) {
	for {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
			return 0, err
		}
		n, err := c.Conn.Read(p)
		if err == nil || n > 0 {
			return n, err
		}
		var ne net.Error
		if c.progress != nil && errors.As(err, &ne) && ne.Timeout() {
			if cur := c.progress.Load(); cur != c.lastProgress {
				// Quiet wire but a busy evaluator: re-arm and keep
				// waiting. A genuinely stalled peer stops advancing the
				// counter and times out on the next pass.
				c.lastProgress = cur
				continue
			}
		}
		return n, err
	}
}

func (c *idleConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// shed answers an un-admitted connection with MsgBusy. The client's
// MsgHello is read first: closing a socket with unread inbound data may
// reset the connection and destroy the in-flight busy frame. The whole
// exchange is bounded by shedTimeout.
func (s *Server) shed(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(shedTimeout))
	tc := transport.New(conn)
	tc.SetMetrics(s.set)
	if _, err := tc.Recv(transport.MsgHello); err != nil {
		return
	}
	retry := s.adm.cfg.retryAfter()
	payload := binary.AppendUvarint(nil, uint64(retry/time.Millisecond))
	if tc.Send(transport.MsgBusy, payload) == nil {
		tc.Flush()
	}
	s.logf("session from %s shed at admission (retry after %v)", conn.RemoteAddr(), retry)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// Last-resort per-connection panic containment: the session layers
	// below contain panics at every goroutine they own, but a bug on this
	// goroutine's own path (admission, stats folding, logging) must also
	// cost one session, not the process. Registered first so it runs
	// after the cleanup defers below.
	defer func() {
		if v := recover(); v != nil {
			err := obs.Panicked(fmt.Sprintf("server: connection from %s", conn.RemoteAddr()), v)
			s.set.Errors.Inc()
			s.logf("session from %s: %v", conn.RemoteAddr(), err)
		}
	}()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if s.adm != nil {
		release, ok := s.adm.acquire()
		if !ok {
			s.shed(conn)
			return
		}
		defer release()
	}
	s.set.Sessions.Inc()
	s.set.SessionsActive.Add(1)
	defer s.set.SessionsActive.Add(-1)

	start := time.Now()
	rw := io.ReadWriter(conn)
	var ic *idleConn
	if s.idleTimeout > 0 {
		ic = &idleConn{Conn: conn, idle: s.idleTimeout}
		rw = ic
	}
	tc := transport.New(rw)
	if ic != nil {
		ic.progress = &tc.Progress
	}
	// Phase-deadline enforcement (core's watchdogs) unblocks stalled I/O
	// by breaking the connection; the watchdog rewrites the resulting
	// error into the DeadlineError that explains it.
	tc.SetBreaker(conn.Close)
	st, err := s.core.ServeSession(tc)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.set.Errors.Inc()
		s.logf("session from %s failed after %d inference(s): %v",
			conn.RemoteAddr(), st.Inferences, err)
		return
	}
	base := "fresh" // the session ran the OT base phase, or extended a stored correlation
	if st.SessionsResumed > 0 {
		base = "resumed"
	}
	s.logf("session from %s: %d inference(s), %.2f MB out, %.2f MB in, %v (OT offline %v / online %v, %d pooled, %d consumed, %d refill(s), base %s; crypto core %.2f Mgates/s over %v)",
		conn.RemoteAddr(), st.Inferences,
		float64(st.BytesSent)/1e6, float64(st.BytesReceived)/1e6,
		time.Since(start).Round(time.Millisecond),
		st.OTOfflineTime.Round(time.Millisecond), st.OTOnlineTime.Round(time.Millisecond),
		st.OTsPooled, st.OTsConsumed, st.OTRefills, base,
		st.GatesPerSec()/1e6, st.GateTime.Round(time.Millisecond))
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Stats reads the server's counters out of its ledger.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:       s.set.Sessions.Value(),
		ActiveSessions: s.set.SessionsActive.Value(),
		Errors:         s.set.Errors.Value(),
		QueuedSessions: s.set.SessionsQueued.Value(),
		ShedSessions:   s.set.SessionsShed.Value(),
		QueueDepth:     s.set.AdmissionQueueDepth.Value(),
		Stats:          *core.StatsOf(s.set),
	}
}

// Shutdown stops accepting new connections and waits for in-flight
// sessions to finish, or for ctx to expire — in which case the remaining
// connections are force-closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeListener()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close stops the listener and force-closes every active connection.
func (s *Server) Close() error {
	s.closeListener()
	s.closeConns()
	s.wg.Wait()
	return nil
}

func (s *Server) closeListener() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	if s.adm != nil {
		s.adm.close() // unblock admission-queue waiters
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

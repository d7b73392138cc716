package deepsecure

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"deepsecure/internal/core"
	"deepsecure/internal/transport"
)

// RetryPolicy drives session establishment through transient failures:
// exponential backoff with jitter across re-dials, honoring the server's
// BusyError retry-after hint as a backoff floor. The zero value is a
// sensible default policy (5 attempts, 100ms base doubling to a 5s cap,
// ±20% jitter); set MaxAttempts to 1 to disable retrying.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts, the first included (0 = 5).
	MaxAttempts int
	// BaseBackoff is the wait after the first failure (0 = 100ms); each
	// further failure doubles it, up to 5s.
	BaseBackoff time.Duration
	// DialTimeout bounds each TCP dial (0 = 10s).
	DialTimeout time.Duration
	// OnRetry, when set, observes every scheduled retry: the attempt
	// that just failed (1-based), its error, and the wait before the
	// next attempt. Load generators hang their busy/retry counters here.
	OnRetry func(attempt int, err error, wait time.Duration)

	// jitter spreads each wait uniformly by ±jitter fraction so
	// synchronized clients do not re-dial in lockstep (0 = 0.2; negative
	// disables jitter, which this package's tests do to time the waits).
	jitter float64
}

// maxBackoff caps a RetryPolicy's exponential growth.
const maxBackoff = 5 * time.Second

func (p RetryPolicy) maxAttempts() int { return intOr(p.MaxAttempts, 5) }

func intOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func durOr(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

// backoff returns the wait before the attempt after the given 1-based
// failed attempt, folding in the server's retry-after hint when the
// failure was a shed.
func (p RetryPolicy) backoff(attempt int, err error) time.Duration {
	wait := float64(durOr(p.BaseBackoff, 100*time.Millisecond))
	for i := 1; i < attempt && wait < float64(maxBackoff); i++ {
		wait *= 2
	}
	wait = min(wait, float64(maxBackoff))
	jitter := p.jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		wait *= 1 + jitter*(2*rand.Float64()-1)
	}
	d := time.Duration(wait)
	// A shedding server's hint is authoritative: never come back sooner.
	var be *BusyError
	if errors.As(err, &be) && be.RetryAfter > d {
		d = be.RetryAfter
	}
	return d
}

// Retryable reports whether a session-establishment error is worth a
// fresh dial: admission sheds (BusyError), network-level failures
// (timeouts, resets, refused or dropped connections), peer death
// mid-handshake (EOF), and phase deadlines (a stalled peer may be one
// bad instance behind a load balancer). Protocol-level rejections — a
// version mismatch, a malformed architecture — are permanent and do not
// retry.
func (p RetryPolicy) Retryable(err error) bool {
	if err == nil {
		return false
	}
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var de *DeadlineError
	if errors.As(err, &de) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed)
}

// DialSession dials addr and opens a session under the retry policy:
// transient failures (see RetryPolicy.Retryable) re-dial a fresh
// connection after a backoff, busy responses wait at least the server's
// retry-after hint, and permanent protocol errors fail immediately. On
// success the caller owns both the session and the returned net.Conn
// (close the conn after Session.Close). The client's
// EngineConfig.Deadlines.Handshake is enforced per attempt — DialSession
// installs the connection breaker the deadline needs — so a stalled
// server costs one bounded attempt, not a hang.
func DialSession(addr string, cli *Client, p RetryPolicy) (*Session, net.Conn, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		sess, nc, err := dialOnce(addr, cli, durOr(p.DialTimeout, 10*time.Second))
		if err == nil {
			return sess, nc, nil
		}
		lastErr = err
		if !p.Retryable(err) {
			return nil, nil, err
		}
		if attempt >= p.maxAttempts() {
			break
		}
		wait := p.backoff(attempt, err)
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, wait)
		}
		time.Sleep(wait)
	}
	return nil, nil, fmt.Errorf("deepsecure: no session after %d attempts: %w", p.maxAttempts(), lastErr)
}

func dialOnce(addr string, cli *Client, dialTimeout time.Duration) (*Session, net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	tc := transport.New(nc)
	// The breaker lets the client-side handshake deadline (when
	// configured) cut a stalled attempt; unset deadlines never use it.
	tc.SetBreaker(nc.Close)
	sess, err := cli.NewSession(tc)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return sess, nc, nil
}

// Type re-exports backing the retry/deadline surface.
type (
	// DeadlineConfig bounds the protocol's phases (handshake, OT setup,
	// per-inference) by wall time; set it in EngineConfig.Deadlines on
	// either side. Enforcement needs a connection breaker — the server
	// installs one on every accepted connection, clients get one from
	// DialSession (or their own Conn.SetBreaker call).
	DeadlineConfig = core.DeadlineConfig
	// DeadlineError is what sessions return when a phase deadline cut
	// them down; detect it with errors.As.
	DeadlineError = core.DeadlineError
)

package core

import (
	"fmt"
	"sync"
	"time"
)

// Per-phase deadlines. A peer can starve a session while staying
// "live" — trickling handshake bytes, stretching the OT base phase, or
// pausing mid-inference — and it can simply go quiet. DeadlineConfig
// bounds both by wall time: a watchdog armed around the phase or the wait
// breaks the connection (transport.Conn.Break) when the limit passes, the
// blocked I/O fails, and normal session teardown runs — with the surfaced
// error rewritten to the DeadlineError that explains it, rather than the
// incidental "use of closed network connection" the break produced.

// DeadlineConfig bounds the protocol's phases by wall time. Zero fields
// disable that phase's deadline; enforcing any of them requires a
// breaker on the session's transport.Conn (the server installs one for
// every accepted connection; clients get one via the facade's
// DialSession or their own SetBreaker call).
type DeadlineConfig struct {
	// Handshake bounds session establishment: hello through the
	// architecture/pipeline announcement on the server, the whole
	// NewSession call on the client.
	Handshake time.Duration
	// OTSetup bounds the per-session OT setup: the base-OT phase plus
	// the set-up OT of the weight labels.
	OTSetup time.Duration
	// Inference bounds each inference (or fused batch) from the arrival
	// of its begin frame to its outputs being flushed, the wait behind
	// the inferences begun before it included.
	Inference time.Duration
	// Idle bounds each wait a server session makes on its client: a
	// set-up phase whose own limit above is zero, each awaited frame once
	// an inference or the next begin is due, and each answer the client
	// must drain. It is measured per frame, not per read, and an
	// inference the server is evaluating is no wait, so a long evaluation
	// is not a stall. Clients ignore it.
	Idle time.Duration
}

// Validate rejects negative phase limits.
func (d DeadlineConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    time.Duration
	}{{"handshake", d.Handshake}, {"ot-setup", d.OTSetup}, {"inference", d.Inference}, {"idle", d.Idle}} {
		if p.v < 0 {
			return fmt.Errorf("core: negative %s deadline %v", p.name, p.v)
		}
	}
	return nil
}

// setup is the limit a server's serial set-up phase runs under: its own,
// or Idle when that is zero.
func (d DeadlineConfig) setup(phase string, v time.Duration) (string, time.Duration) {
	if v == 0 {
		return "idle", d.Idle
	}
	return phase, v
}

// DeadlineError reports a phase that exceeded its configured limit. It
// is what sessions return in place of the broken-connection error the
// enforcement produced; detect it with errors.As.
type DeadlineError struct {
	Phase string        // "handshake", "ot-setup", "inference" or "idle"
	Limit time.Duration // the configured bound that was exceeded
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("core: %s deadline exceeded (limit %v)", e.Phase, e.Limit)
}

// watchdog enforces phase deadlines over one session. arm/disarm bracket
// the serial setup phases; after times a span that began earlier (an
// inference, from its begin frame) or a wait that begins now (idle).
// Expiry records the first deadline to fire and breaks the connection;
// wrap then rewrites the resulting teardown error into that
// DeadlineError. A nil watchdog is inert, so unarmed paths pay nothing.
type watchdog struct {
	brk func() error // transport.Conn.Break of the session's conn

	mu    sync.Mutex
	timer *time.Timer
	fired *DeadlineError
}

func newWatchdog(brk func() error) *watchdog { return &watchdog{brk: brk} }

// arm replaces the current serial-phase timer with one for the named
// phase; d <= 0 just disarms.
func (w *watchdog) arm(phase string, d time.Duration) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if d > 0 {
		w.timer = time.AfterFunc(d, func() { w.expire(phase, d) })
	}
	w.mu.Unlock()
}

// disarm cancels the serial-phase timer.
func (w *watchdog) disarm() { w.arm("", 0) }

// after times a span limited to d that began at start (it fires at once
// when nothing of d remains); the caller calls stop when its part of the
// span settles. d <= 0 times nothing.
func (w *watchdog) after(phase string, d time.Duration, start time.Time) (stop func() bool) {
	if d <= 0 {
		return func() bool { return false }
	}
	return time.AfterFunc(time.Until(start.Add(d)), func() { w.expire(phase, d) }).Stop
}

func (w *watchdog) expire(phase string, d time.Duration) {
	w.mu.Lock()
	if w.fired == nil {
		w.fired = &DeadlineError{Phase: phase, Limit: d}
	}
	w.mu.Unlock()
	if w.brk != nil {
		w.brk() // the resulting I/O error is rewritten by wrap
	}
}

// wrap substitutes the fired DeadlineError for the error the broken
// connection caused, a clean end included: a break can read as the
// client's disconnect at an inference boundary, and once the watchdog has
// broken the connection the session did not end on its own.
func (w *watchdog) wrap(err error) error {
	if w == nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fired != nil {
		return w.fired
	}
	return err
}

package server

import (
	"fmt"
	"sync"
	"time"

	"deepsecure/internal/obs"
)

// This file is the global admission controller: the piece that keeps a
// saturated server predictable instead of letting every accepted
// connection fight for the shared engine pool. New sessions first pass
// admission — a bounded concurrency gate with a bounded wait queue — and
// are shed with a protocol MsgBusy (plus retry-after hint) when the
// server is past its limits, so clients degrade to backoff-and-retry
// instead of timing out mid-handshake. Queue depth and queued/shed counts are recorded in the
// server's ledger, next to the session gauges they are derived from.

// AdmissionConfig tunes the admission controller. The zero value
// disables admission entirely (every connection is served immediately).
type AdmissionConfig struct {
	// MaxActive bounds how many sessions may be inside the protocol at
	// once; admission is disabled when it is 0. Size it from memory: each
	// admitted session holds a NumWires × B × 16-byte label array (B its
	// largest batch) from its first inference until it closes, idle or not,
	// plus its table ring; the shared engine pool already bounds the CPU.
	MaxActive int
	// MaxQueue bounds how many sessions may wait for a slot before new
	// arrivals are shed immediately. 0 means no queue: anything past
	// MaxActive is shed at once.
	MaxQueue int
	// QueueTimeout bounds one session's wait in the queue; a session
	// that cannot get a slot in time is shed. 0 defaults to 10s.
	QueueTimeout time.Duration
	// RetryAfter is the backoff hint sent inside MsgBusy. 0 defaults
	// to 1s.
	RetryAfter time.Duration
}

// Enabled reports whether this configuration turns admission on.
func (c AdmissionConfig) Enabled() bool { return c.MaxActive > 0 }

func (c AdmissionConfig) queueTimeout() time.Duration {
	if c.QueueTimeout > 0 {
		return c.QueueTimeout
	}
	return 10 * time.Second
}

func (c AdmissionConfig) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}

// shedTimeout bounds the shed handshake (read the client's hello, answer
// MsgBusy): a shed must never pin a goroutine on a slow or hostile peer.
const shedTimeout = 2 * time.Second

// Validate rejects configurations that cannot mean anything: negative
// limits and negative timeouts. The zero value stays valid (admission
// disabled, defaults applied).
func (c AdmissionConfig) Validate() error {
	switch {
	case c.MaxActive < 0:
		return fmt.Errorf("server: negative admission MaxActive %d", c.MaxActive)
	case c.MaxQueue < 0:
		return fmt.Errorf("server: negative admission MaxQueue %d", c.MaxQueue)
	case c.QueueTimeout < 0:
		return fmt.Errorf("server: negative admission QueueTimeout %v", c.QueueTimeout)
	case c.RetryAfter < 0:
		return fmt.Errorf("server: negative admission RetryAfter %v", c.RetryAfter)
	}
	return nil
}

type admission struct {
	cfg   AdmissionConfig
	slots chan struct{}
	set   *obs.Set // the server's ledger

	stopOnce sync.Once
	stop     chan struct{}
}

func newAdmission(cfg AdmissionConfig, set *obs.Set) *admission {
	return &admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxActive),
		set:   set,
		stop:  make(chan struct{}),
	}
}

func (a *admission) close() { a.stopOnce.Do(func() { close(a.stop) }) }

// acquire decides one arriving session's fate: admitted now (free
// slot), admitted after a bounded queue wait, or shed. On admission it
// returns the release to defer; on shed it returns ok=false and the
// caller answers MsgBusy.
func (a *admission) acquire() (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
		return a.release, true
	default:
	}
	// The depth gauge is the queue's occupancy: a session counts from the
	// moment it asks for a place, so one turned away at a full queue shows
	// for an instant.
	depth := a.set.AdmissionQueueDepth
	waiting := depth.Add(1)
	defer depth.Add(-1)
	if int(waiting) > a.cfg.MaxQueue {
		a.set.SessionsShed.Inc()
		return nil, false
	}
	a.set.SessionsQueued.Inc()
	t := time.NewTimer(a.cfg.queueTimeout())
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.release, true
	case <-t.C:
		a.set.SessionsShed.Inc()
		return nil, false
	case <-a.stop:
		// Server shutting down; shed so the waiter unblocks and the
		// client gets a definitive answer instead of a hang.
		a.set.SessionsShed.Inc()
		return nil, false
	}
}

func (a *admission) release() { <-a.slots }

// WithAdmission installs the global admission controller: at most
// cfg.MaxActive sessions in flight, up to cfg.MaxQueue more waiting
// (bounded by cfg.QueueTimeout), everything beyond that refused with a
// protocol MsgBusy carrying cfg.RetryAfter. A zero cfg disables
// admission.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) {
		if cfg.Enabled() {
			s.adm = newAdmission(cfg, s.set)
		} else {
			s.adm = nil
		}
	}
}

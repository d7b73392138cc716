package obs

import (
	"fmt"
	"log"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

// This file defines the deepsecure serving metric set — a ledger every
// instrumented layer records into — its catalogue of exported series, the
// process root, and the log-line renderer deepsecure-serve prints, which
// reads the same fields as /metrics and /debug/stats.

// Phase names one timed stage of the secure-inference protocol.
type Phase uint8

const (
	// PhaseGarbleLive is the garbler's per-level crypto (the garbling
	// engine's GateTime).
	PhaseGarbleLive Phase = iota
	// PhaseTableWrite is time the garbling goroutine spends in Send on its
	// garbled-table chunks: the wait on the wire between two levels.
	PhaseTableWrite
	// PhaseTableRead is time the evaluator spends waiting on table
	// frames from the wire.
	PhaseTableRead
	// PhaseEval is the evaluator's per-level crypto (the evaluation
	// engine's GateTime).
	PhaseEval
	// PhaseOutputRoundTrip is the client's wait from final flush to
	// decoded output.
	PhaseOutputRoundTrip

	numPhases
)

var phaseNames = [numPhases]string{
	"garble_live",
	"table_write",
	"table_read",
	"eval",
	"output_roundtrip",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// DefaultLatencyBounds are the latency bucket edges of every ledger
// histogram, in nanoseconds, 50µs to 60s roughly ×2–2.5 apart: tight
// enough at the bottom for one table wait, wide enough at the top
// for WAN-model batched inferences. They are strictly increasing, as
// Observe's bucket scan assumes. p50/p95/p99 are derived from these
// buckets by linear interpolation.
var DefaultLatencyBounds = []int64{
	50_000, 100_000, 250_000, 500_000, // 50µs … 500µs
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, // 1ms … 50ms
	100_000_000, 250_000_000, 500_000_000, // 100ms … 500ms
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000, 30_000_000_000, 60_000_000_000, // 1s … 60s
}

// Set is one ledger of the serving metric set. Sets form a tree —
// inference → session → server (or client) → Root — and an
// event recorded in a set also lands in each of its ancestors, so every
// count is written at one site, once, and every surface is a read-out of
// some set: core.Stats of an inference's or a session's, server.Stats of a
// server's, /metrics, /debug/stats and the log line of Root's. A layer
// records into the set its owner attached (SetMetrics) and into one of its
// own under Root until then. All fields are safe for concurrent use.
type Set struct {
	Sessions       *Counter
	SessionsActive *Gauge
	Inferences     *Counter // samples: a batch of B counts B
	Batches        *Counter
	Errors         *Counter

	// SessionsResumed counts sessions that extended a stored OT base
	// correlation instead of running the base phase, ResumeMisses those
	// whose hello offered stored ones of which the server held none; each
	// party counts its own sessions.
	SessionsResumed, ResumeMisses *Counter

	BytesSent, BytesReceived *Counter

	InferenceSeconds *Histogram
	Phase            [numPhases]*Histogram

	// OTConsumed counts the OTs of sessions' set-up OTs: W per session,
	// one per weight bit, however many inferences the session runs.
	OTConsumed *Counter

	AdmissionQueueDepth *Gauge
	SessionsQueued      *Counter
	SessionsShed        *Counter

	// Panics is recorded at Root only: a recover() site has no ledger at
	// hand (see Panicked).
	Panics *Counter

	GatesAnd, GatesFree *Counter
	GateTime            *Counter // ns

	// Counted like the rest and read by the Stats read-outs, but not
	// exported as series: OT time (base phase and set-up OT; ns) and the
	// wall time of finished server sessions (ns).
	OTOfflineTime *Counter
	SessionTime   *Counter

	// The storage behind the fields above, in catalogue order, so that a
	// child finds its twin at the same index.
	counters []Counter
	gauges   []Gauge
	hists    []Histogram
}

// Root is the process ledger: the set /metrics, /debug/stats and the
// serving log line read.
var Root = NewSet(nil)

// series is one entry of the catalogue: a field of Set and how it is
// exported. Series sharing a name are adjacent, and the first of them
// carries the help text. An unnamed series is counted but not exported.
// Names, help texts and labels are written verbatim: they hold no quote,
// backslash or newline.
type series struct {
	name, help string
	label      string         // static label, key=value; empty for none
	scale      float64        // render scale: 1e-9 turns nanoseconds into seconds (every histogram); 0 for none
	field      func(*Set) any // &s.X: a **Counter, **Gauge or **Histogram
}

// catalogue is every series of a Set, in /metrics order. It is built
// once; NewSet lays a set out by it and the renderers walk it.
var catalogue = func() []series {
	t := []series{
		{name: "deepsecure_sessions_total", help: "Protocol sessions accepted since process start.",
			field: func(s *Set) any { return &s.Sessions }},
		{name: "deepsecure_sessions_active", help: "Sessions currently being served.",
			field: func(s *Set) any { return &s.SessionsActive }},
		{name: "deepsecure_inferences_total", help: "Inferences completed (each sample of a batch counts once).",
			field: func(s *Set) any { return &s.Inferences }},
		{name: "deepsecure_batches_total", help: "Inferences of more than one sample (fused batches) completed.",
			field: func(s *Set) any { return &s.Batches }},
		{name: "deepsecure_session_errors_total", help: "Sessions that ended with a protocol or transport error.",
			field: func(s *Set) any { return &s.Errors }},
		{name: "deepsecure_sessions_resumed_total", help: "Sessions that ran on their client–server pair's stored weight labels, with no OT.",
			field: func(s *Set) any { return &s.SessionsResumed }},
		{name: "deepsecure_resume_misses_total", help: "Sessions that offered stored weight labels of which the server held none.",
			field: func(s *Set) any { return &s.ResumeMisses }},
		{name: "deepsecure_bytes_total", help: "Transport bytes moved by this process, by direction.", label: "direction=sent",
			field: func(s *Set) any { return &s.BytesSent }},
		{name: "deepsecure_bytes_total", label: "direction=received",
			field: func(s *Set) any { return &s.BytesReceived }},
		{name: "deepsecure_inference_seconds", help: "End-to-end per-inference (or per-batch) latency.", scale: 1e-9,
			field: func(s *Set) any { return &s.InferenceSeconds }},
	}
	for ph := range numPhases {
		e := series{name: "deepsecure_phase_seconds", label: "phase=" + ph.String(), scale: 1e-9,
			field: func(s *Set) any { return &s.Phase[ph] }}
		if ph == 0 {
			e.help = "Per-phase wall time of the secure-inference protocol."
		}
		t = append(t, e)
	}
	return append(t, []series{
		{name: "deepsecure_ot_consumed_total", help: "OTs run by sessions' set-up OTs: one per weight bit per session.",
			field: func(s *Set) any { return &s.OTConsumed }},
		{name: "deepsecure_admission_queue_depth", help: "Sessions currently waiting in the admission queue.",
			field: func(s *Set) any { return &s.AdmissionQueueDepth }},
		{name: "deepsecure_sessions_queued_total", help: "Sessions that waited in the admission queue before being served.",
			field: func(s *Set) any { return &s.SessionsQueued }},
		{name: "deepsecure_sessions_shed_total", help: "Sessions refused with MsgBusy by the admission controller.",
			field: func(s *Set) any { return &s.SessionsShed }},
		{name: "deepsecure_panics_total", help: "Panics recovered at session-owned goroutine boundaries and converted into session errors.",
			field: func(s *Set) any { return &s.Panics }},
		{name: "deepsecure_gates_total", help: "Gates processed by the crypto cores, by kind.", label: "kind=and",
			field: func(s *Set) any { return &s.GatesAnd }},
		{name: "deepsecure_gates_total", label: "kind=free",
			field: func(s *Set) any { return &s.GatesFree }},
		{name: "deepsecure_gate_time_seconds_total", help: "Cumulative crypto-core time (garbling + evaluation kernels).", scale: 1e-9,
			field: func(s *Set) any { return &s.GateTime }},
		{field: func(s *Set) any { return &s.OTOfflineTime }},
		{field: func(s *Set) any { return &s.SessionTime }},
	}...)
}()

// layout counts the catalogue's series of each kind: the lengths of a
// set's storage.
var layout = func() (n struct{ counters, gauges, hists int }) {
	var s Set
	for _, e := range catalogue {
		switch e.field(&s).(type) {
		case **Counter:
			n.counters++
		case **Gauge:
			n.gauges++
		case **Histogram:
			n.hists++
		}
	}
	return n
}()

// NewSet returns an empty ledger under parent (nil: under nothing), each
// series parented to parent's series at the same catalogue position. It
// runs once per connection, session and inference, so the series are
// carved out of one array per kind rather than allocated one by one.
func NewSet(parent *Set) *Set {
	s := &Set{
		counters: make([]Counter, layout.counters),
		gauges:   make([]Gauge, layout.gauges),
		hists:    make([]Histogram, layout.hists),
	}
	nb := len(DefaultLatencyBounds) + 1
	buckets := make([]atomic.Int64, layout.hists*nb)
	var c, g, h int
	for _, e := range catalogue {
		switch f := e.field(s).(type) {
		case **Counter:
			*f = &s.counters[c]
			if parent != nil {
				(*f).parent = &parent.counters[c]
			}
			c++
		case **Gauge:
			*f = &s.gauges[g]
			if parent != nil {
				(*f).parent = &parent.gauges[g]
			}
			g++
		case **Histogram:
			*f = &s.hists[h]
			(*f).bounds = DefaultLatencyBounds
			(*f).counts = buckets[h*nb : (h+1)*nb : (h+1)*nb]
			if parent != nil {
				(*f).parent = &parent.hists[h]
			}
			h++
		}
	}
	return s
}

// Panicked converts a recovered panic value into a session error and
// counts it. Every session-owned goroutine boundary (mux reader,
// evaluation contexts, scheduler chunks) funnels
// its recover() through here, so deepsecure_panics_total is the single
// "a bug fired but the process kept serving" signal. The returned error
// carries the panic site and value; the goroutine stack goes to stderr
// via log so the trace survives even when the session error is dropped.
func Panicked(site string, v any) error {
	Root.Panics.Inc()
	log.Printf("obs: recovered panic in %s: %v\n%s", site, v, debug.Stack())
	return fmt.Errorf("%s: recovered panic: %v", site, v)
}

// ServingLine renders the one-line operational summary deepsecure-serve
// logs periodically and at exit. It reads the same fields of s as
// /metrics and /debug/stats, so the log line cannot drift from the scrape
// surface.
func ServingLine(s *Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d active=%d inferences=%d batches=%d errors=%d",
		s.Sessions.Value(), s.SessionsActive.Value(), s.Inferences.Value(), s.Batches.Value(), s.Errors.Value())
	fmt.Fprintf(&b, " sent=%.1fMB recv=%.1fMB",
		float64(s.BytesSent.Value())/1e6, float64(s.BytesReceived.Value())/1e6)
	if lat := s.InferenceSeconds.Snapshot(); lat.Count() > 0 {
		fmt.Fprintf(&b, " inf_p50=%s inf_p95=%s",
			time.Duration(lat.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(lat.Quantile(0.95)).Round(time.Microsecond))
	}
	if q, sh := s.AdmissionQueueDepth.Value(), s.SessionsShed.Value(); q > 0 || sh > 0 {
		fmt.Fprintf(&b, " adm_queue=%d shed=%d", q, sh)
	}
	if p := s.Panics.Value(); p > 0 {
		fmt.Fprintf(&b, " panics=%d", p)
	}
	gates := s.GatesAnd.Value() + s.GatesFree.Value()
	if gateNs := s.GateTime.Value(); gates > 0 && gateNs > 0 {
		fmt.Fprintf(&b, " gates=%.2fM (%.2f Mgates/s)",
			float64(gates)/1e6, float64(gates)/1e6/(float64(gateNs)/1e9))
	}
	return b.String()
}

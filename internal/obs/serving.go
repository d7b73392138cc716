package obs

import (
	"fmt"
	"log"
	"runtime/debug"
	"strings"
	"time"
)

// This file defines the deepsecure serving metric set — a ledger every
// instrumented layer records into — its process root on the Default
// registry, and the log-line renderer deepsecure-serve prints, fed from
// the same registry snapshot as /metrics and /debug/stats.

// Default is the process-global registry: Root's series, which every
// ledger in the process adds up to.
var Default = NewRegistry()

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
	// PhaseOTDerand is the online half of the precomputed OTs: masking
	// one input step's label pairs (garbler) or unmasking them
	// (evaluator).
	PhaseOTDerand
	// PhaseEval is the evaluator's per-level crypto (the evaluation
	// engine's GateTime).
	PhaseEval
	// PhaseOutputRoundTrip is the client's wait from final flush to
	// decoded output.
	PhaseOutputRoundTrip
	// PhaseOTRefill is OT pool refill work, per extension run.
	PhaseOTRefill

	numPhases
)

var phaseNames = [numPhases]string{
	"garble_live",
	"table_write",
	"table_read",
	"ot_derand",
	"eval",
	"output_roundtrip",
	"ot_refill",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// DefaultLatencyBounds are the shared latency bucket edges in
// nanoseconds, 50µs to 60s roughly ×2–2.5 apart: tight enough at the
// bottom for single derand exchanges, wide
// enough at the top for WAN-model batched inferences. p50/p95/p99 are
// derived from these buckets by linear interpolation.
var DefaultLatencyBounds = []int64{
	50_000, 100_000, 250_000, 500_000, // 50µs … 500µs
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, // 1ms … 50ms
	100_000_000, 250_000_000, 500_000_000, // 100ms … 500ms
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000, 30_000_000_000, 60_000_000_000, // 1s … 60s
}

// OTRole distinguishes the two precomputed-OT pool sides for the pool
// depth gauge.
type OTRole uint8

const (
	OTReceiver OTRole = iota // evaluator/server side
	OTSender                 // garbler/client side
	numOTRoles
)

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

	OTPoolDepth [numOTRoles]*Gauge
	OTPooled    *Counter
	OTConsumed  *Counter
	OTRefills   *Counter

	AdmissionQueueDepth *Gauge
	SessionsQueued      *Counter
	SessionsShed        *Counter

	// Panics is recorded at Root only: a recover() site has no ledger at
	// hand (see Panicked).
	Panics *Counter

	GatesAnd, GatesFree *Counter
	GateTime            *Counter // ns

	// Counted like the rest and read by the Stats read-outs, but not
	// exported as series: OT offline time (base phase, refill crypto and
	// exchanges; ns) and the wall time of finished server sessions (ns).
	OTOfflineTime *Counter
	SessionTime   *Counter

	// Every series in creation order, so that a child finds its twin.
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// Root is the process ledger: the one set whose series are registered on
// Default.
var Root = newSet(Default, nil)

// NewSet returns an empty ledger under parent (nil: under nothing).
func NewSet(parent *Set) *Set { return newSet(nil, parent) }

// newSet makes every series once, in /metrics order: the named ones
// registered on reg if there is one, each parented to p's series in the
// same position if there is a p.
func newSet(reg *Registry, p *Set) *Set {
	s := &Set{}
	counter := func(d Desc) *Counter {
		c := &Counter{}
		if reg != nil && d.Name != "" {
			c = reg.Counter(d)
		}
		if p != nil {
			c.parent = p.counters[len(s.counters)]
		}
		s.counters = append(s.counters, c)
		return c
	}
	gauge := func(d Desc) *Gauge {
		g := &Gauge{}
		if reg != nil && d.Name != "" {
			g = reg.Gauge(d)
		}
		if p != nil {
			g.parent = p.gauges[len(s.gauges)]
		}
		s.gauges = append(s.gauges, g)
		return g
	}
	latency := func(d Desc) *Histogram {
		h := newHistogram(DefaultLatencyBounds, nil)
		if reg != nil {
			d.Scale = 1e-9
			h = reg.Histogram(d, DefaultLatencyBounds)
		}
		if p != nil {
			h.parent = p.hists[len(s.hists)]
		}
		s.hists = append(s.hists, h)
		return h
	}

	s.Sessions = counter(Desc{Name: "deepsecure_sessions_total",
		Help: "Protocol sessions accepted since process start."})
	s.SessionsActive = gauge(Desc{Name: "deepsecure_sessions_active",
		Help: "Sessions currently being served."})
	s.Inferences = counter(Desc{Name: "deepsecure_inferences_total",
		Help: "Inferences completed (each sample of a batch counts once)."})
	s.Batches = counter(Desc{Name: "deepsecure_batches_total",
		Help: "Inferences of more than one sample (fused batches) completed."})
	s.Errors = counter(Desc{Name: "deepsecure_session_errors_total",
		Help: "Sessions that ended with a protocol or transport error."})
	s.SessionsResumed = counter(Desc{Name: "deepsecure_sessions_resumed_total",
		Help: "Sessions that extended a stored OT base correlation, skipping the base phase."})
	s.ResumeMisses = counter(Desc{Name: "deepsecure_resume_misses_total",
		Help: "Sessions that offered stored OT base correlations of which the server held none."})

	s.BytesSent = counter(Desc{Name: "deepsecure_bytes_total",
		Help:   "Transport bytes moved by this process, by direction.",
		Labels: []Label{{"direction", "sent"}}})
	s.BytesReceived = counter(Desc{Name: "deepsecure_bytes_total",
		Labels: []Label{{"direction", "received"}}})

	s.InferenceSeconds = latency(Desc{Name: "deepsecure_inference_seconds",
		Help: "End-to-end per-inference (or per-batch) latency."})
	for ph := range s.Phase {
		d := Desc{Name: "deepsecure_phase_seconds", Labels: []Label{{"phase", Phase(ph).String()}}}
		if ph == 0 {
			d.Help = "Per-phase wall time of the secure-inference protocol."
		}
		s.Phase[ph] = latency(d)
	}

	for role, name := range [numOTRoles]string{"receiver", "sender"} {
		d := Desc{Name: "deepsecure_ot_pool_depth", Labels: []Label{{"role", name}}}
		if role == 0 {
			d.Help = "Precomputed OTs currently available in the pool."
		}
		s.OTPoolDepth[role] = gauge(d)
	}
	s.OTPooled = counter(Desc{Name: "deepsecure_ot_pooled_total",
		Help: "Weight-keyed OTs precomputed into pools since process start."})
	s.OTConsumed = counter(Desc{Name: "deepsecure_ot_consumed_total",
		Help: "Pooled OTs spent masking or unmasking a weight-label pair."})
	s.OTRefills = counter(Desc{Name: "deepsecure_ot_refills_total",
		Help: "OT pool refill runs (setup fills and background refills)."})

	s.AdmissionQueueDepth = gauge(Desc{Name: "deepsecure_admission_queue_depth",
		Help: "Sessions currently waiting in the admission queue."})
	s.SessionsQueued = counter(Desc{Name: "deepsecure_sessions_queued_total",
		Help: "Sessions that waited in the admission queue before being served."})
	s.SessionsShed = counter(Desc{Name: "deepsecure_sessions_shed_total",
		Help: "Sessions refused with MsgBusy by the admission controller."})

	s.Panics = counter(Desc{Name: "deepsecure_panics_total",
		Help: "Panics recovered at session-owned goroutine boundaries and converted into session errors."})

	s.GatesAnd = counter(Desc{Name: "deepsecure_gates_total",
		Help:   "Gates processed by the crypto cores, by kind.",
		Labels: []Label{{"kind", "and"}}})
	s.GatesFree = counter(Desc{Name: "deepsecure_gates_total",
		Labels: []Label{{"kind", "free"}}})
	s.GateTime = counter(Desc{Name: "deepsecure_gate_time_seconds_total",
		Help:  "Cumulative crypto-core time (garbling + evaluation kernels).",
		Scale: 1e-9})

	s.OTOfflineTime = counter(Desc{})
	s.SessionTime = counter(Desc{})
	return s
}

// Panicked converts a recovered panic value into a session error and
// counts it. Every session-owned goroutine boundary (mux reader,
// evaluation contexts, scheduler chunks, OT refill workers) funnels
// its recover() through here, so deepsecure_panics_total is the single
// "a bug fired but the process kept serving" signal. The returned error
// carries the panic site and value; the goroutine stack goes to stderr
// via log so the trace survives even when the session error is dropped.
func Panicked(site string, v any) error {
	Root.Panics.Inc()
	log.Printf("obs: recovered panic in %s: %v\n%s", site, v, debug.Stack())
	return fmt.Errorf("%s: recovered panic: %v", site, v)
}

// PanicCount returns the number of panics recovered so far, for tests.
func PanicCount() int64 { return Root.Panics.Value() }

// ServingLine renders the one-line operational summary deepsecure-serve
// logs periodically. It is computed from a registry Snapshot — the same
// source /metrics and /debug/stats serve — so the log line cannot drift
// from the scrape surface.
func ServingLine(s Snapshot) string {
	cv := func(name string, labels ...Label) int64 {
		m, _ := s.Get(name, labels...)
		return m.Value
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d active=%d inferences=%d batches=%d errors=%d",
		cv("deepsecure_sessions_total"),
		cv("deepsecure_sessions_active"),
		cv("deepsecure_inferences_total"),
		cv("deepsecure_batches_total"),
		cv("deepsecure_session_errors_total"))
	fmt.Fprintf(&b, " sent=%.1fMB recv=%.1fMB",
		float64(cv("deepsecure_bytes_total", Label{"direction", "sent"}))/1e6,
		float64(cv("deepsecure_bytes_total", Label{"direction", "received"}))/1e6)
	if lat, ok := s.Get("deepsecure_inference_seconds"); ok && lat.Hist.Count() > 0 {
		fmt.Fprintf(&b, " inf_p50=%s inf_p95=%s",
			time.Duration(lat.Hist.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(lat.Hist.Quantile(0.95)).Round(time.Microsecond))
	}
	if q, sh := cv("deepsecure_admission_queue_depth"), cv("deepsecure_sessions_shed_total"); q > 0 || sh > 0 {
		fmt.Fprintf(&b, " adm_queue=%d shed=%d", q, sh)
	}
	if p := cv("deepsecure_panics_total"); p > 0 {
		fmt.Fprintf(&b, " panics=%d", p)
	}
	fmt.Fprintf(&b, " ot_pool=%d", cv("deepsecure_ot_pool_depth", Label{"role", "receiver"}))
	gates := cv("deepsecure_gates_total", Label{"kind", "and"}) +
		cv("deepsecure_gates_total", Label{"kind", "free"})
	gateNs := cv("deepsecure_gate_time_seconds_total")
	if gates > 0 && gateNs > 0 {
		fmt.Fprintf(&b, " gates=%.2fM (%.2f Mgates/s)",
			float64(gates)/1e6, float64(gates)/1e6/(float64(gateNs)/1e9))
	}
	return b.String()
}

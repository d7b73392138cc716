// Package obs is the process-wide observability core for deepsecure:
// dependency-free atomic counters, gauges, and fixed-bucket histograms
// behind a named registry, with mergeable snapshots, bucket-interpolated
// quantiles (p50/p95/p99), a Prometheus text-format encoder, and a JSON
// live view.
//
// The package imports nothing outside the standard library and nothing
// from deepsecure, so every layer — transport, OT pools, engines,
// server — records into it without import cycles. Hot-path
// instrumentation is allocation-free: histogram buckets are preallocated
// at registration and an observation is one bounds scan plus two atomic
// adds per ledger it lands in (see Set).
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one static name=value pair attached to a series at
// registration time. Labels distinguish series that share a metric name
// (deepsecure_bytes_total{direction="sent"} vs {direction="received"}).
type Label struct{ Key, Value string }

// Kind discriminates what a registered series measures.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing atomic int64. A counter with a
// parent also adds to it (and so to every ancestor): that is how one
// recorded event lands in each ledger above the one that saw it.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Add increments the counter and its ancestors by n.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Inc increments the counter and its ancestors by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic int64. Like a Counter it writes
// through to its ancestors: Add keeps an ancestor the sum of its
// descendants, Set leaves it at the last value written below it.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set replaces the gauge value, here and in every ancestor.
func (g *Gauge) Set(n int64) {
	for ; g != nil; g = g.parent {
		g.v.Store(n)
	}
}

// Add moves the gauge and its ancestors by n (negative to decrease) and
// returns this gauge's own new value.
func (g *Gauge) Add(n int64) int64 {
	own := g.v.Add(n)
	for p := g.parent; p != nil; p = p.parent {
		p.v.Add(n)
	}
	return own
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets whose inclusive
// upper bounds are set at registration, in base units (nanoseconds for
// latency series, bytes for size series). Values above the last bound
// land in a preallocated overflow bucket, so Observe never allocates.
// A histogram with a parent (same bounds) observes into it too.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Int64
	parent *Histogram
}

func newHistogram(bounds []int64, parent *Histogram) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1), parent: parent}
}

// Observe records one value, here and in every ancestor. Negative values
// clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	for ; h != nil; h = h.parent {
		h.counts[i].Add(1)
		h.sum.Add(v)
	}
}

// Sum returns the total of the observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot copies the current bucket counts and sum. Buckets are read
// individually (not under a lock), so a snapshot taken while observers
// are running is approximate by at most the observations in flight.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: per-bucket
// counts (the last entry is the overflow bucket), the observation sum,
// and the bucket bounds. Snapshots from histograms with identical
// bounds merge by addition.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []int64
	Sum    int64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observed value in base units, or 0 when
// empty.
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) in base units by
// linear interpolation inside the bucket holding the target rank. An
// empty histogram reports 0; ranks falling in the overflow bucket
// report the last bound (a known underestimate, which is why the top
// bound should exceed any expected observation).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < target || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no upper edge to interpolate toward.
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		var lower int64
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := (target - float64(cum-c)) / float64(c)
		return float64(lower) + frac*float64(upper-lower)
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Delta returns s minus an earlier snapshot of the same histogram: the
// observations recorded in the window between the two. This is how the
// admission controller's p99 guard sees recent latency from a cumulative
// histogram. The two snapshots must have identical bounds; a zero-value
// prev yields a copy of s.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) (HistogramSnapshot, error) {
	d := HistogramSnapshot{
		Bounds: append([]int64(nil), s.Bounds...),
		Counts: append([]int64(nil), s.Counts...),
		Sum:    s.Sum,
	}
	if len(prev.Bounds) == 0 && len(prev.Counts) == 0 {
		return d, nil
	}
	if len(s.Bounds) != len(prev.Bounds) || len(s.Counts) != len(prev.Counts) {
		return HistogramSnapshot{}, errBoundsMismatch
	}
	for i, b := range s.Bounds {
		if b != prev.Bounds[i] {
			return HistogramSnapshot{}, errBoundsMismatch
		}
	}
	for i, c := range prev.Counts {
		d.Counts[i] -= c
	}
	d.Sum -= prev.Sum
	return d, nil
}

var errBoundsMismatch = errorString("obs: histogram bounds mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

// Desc names a series: metric name, help text, optional static labels,
// and an optional render scale. Scale multiplies values (and histogram
// bounds) at exposition time only — storage stays integer base units.
// The convention is nanosecond storage with Scale 1e-9 for *_seconds
// series.
type Desc struct {
	Name   string
	Help   string
	Labels []Label
	Scale  float64 // 0 means 1 (unscaled)
}

func (d Desc) scale() float64 {
	if d.Scale == 0 {
		return 1
	}
	return d.Scale
}

type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind
	scale  float64
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Registry is an ordered set of named series. Registration is
// idempotent: re-registering a name+labels pair of the same kind
// returns the existing series (a kind clash panics — it is a
// programming error). Reads (Snapshot) and writes (Add/Observe) are
// safe from any goroutine.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

func (r *Registry) register(d Desc, kind Kind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(d.Name, d.Labels)
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic("obs: series " + key + " re-registered as a different kind")
		}
		return m
	}
	m := &metric{
		name:   d.Name,
		help:   d.Help,
		labels: append([]Label(nil), d.Labels...),
		kind:   kind,
		scale:  d.scale(),
	}
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	return m
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(d Desc) *Counter {
	m := r.register(d, KindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(d Desc) *Gauge {
	m := r.register(d, KindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or fetches) a histogram series with the given
// inclusive upper bucket bounds (sorted and deduplicated here; an
// overflow bucket is always appended). Bounds are fixed for the life of
// the series — that is what keeps Observe allocation-free.
func (r *Registry) Histogram(d Desc, bounds []int64) *Histogram {
	m := r.register(d, KindHistogram)
	if m.h == nil {
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		uniq := bs[:0]
		for i, b := range bs {
			if i == 0 || b != bs[i-1] {
				uniq = append(uniq, b)
			}
		}
		m.h = newHistogram(uniq, nil)
	}
	return m.h
}

// MetricSnapshot is one series at a point in time.
type MetricSnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	Scale  float64
	Value  int64             // counter/gauge value in base units
	Hist   HistogramSnapshot // set when Kind == KindHistogram
}

// Snapshot is a point-in-time copy of every series in a registry, in
// registration order. It is the single source for the Prometheus
// exposition, the JSON live view, and the periodic log line, so the
// three can never drift apart.
type Snapshot struct {
	Metrics []MetricSnapshot
}

// Snapshot copies every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	s := Snapshot{Metrics: make([]MetricSnapshot, 0, len(metrics))}
	for _, m := range metrics {
		ms := MetricSnapshot{
			Name:   m.name,
			Help:   m.help,
			Kind:   m.kind,
			Labels: m.labels,
			Scale:  m.scale,
		}
		switch m.kind {
		case KindCounter:
			ms.Value = m.c.Value()
		case KindGauge:
			ms.Value = m.g.Value()
		case KindHistogram:
			ms.Hist = m.h.Snapshot()
		}
		s.Metrics = append(s.Metrics, ms)
	}
	return s
}

// Get finds a series by name and (exact) label set.
func (s Snapshot) Get(name string, labels ...Label) (MetricSnapshot, bool) {
	key := seriesKey(name, labels)
	for _, m := range s.Metrics {
		if seriesKey(m.Name, m.Labels) == key {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

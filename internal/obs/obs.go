// Package obs is the process-wide observability core for deepsecure:
// dependency-free atomic counters, gauges and fixed-bucket histograms,
// gathered into ledgers (Set) whose one catalogue of series renders as
// Prometheus text, as a JSON live view and as a log line, with
// bucket-interpolated quantiles (p50/p95/p99).
//
// The package imports nothing outside the standard library and nothing
// from deepsecure, so every layer — transport, OT pools, engines,
// server — records into it without import cycles. Hot-path
// instrumentation is allocation-free: histogram buckets are preallocated
// with the ledger and an observation is one bounds scan plus two atomic
// adds per ledger it lands in (see Set).
package obs

import "sync/atomic"

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
// upper bounds are set with the ledger, in base units (nanoseconds for
// latency series, bytes for size series). Values above the last bound
// land in a preallocated overflow bucket, so Observe never allocates.
// A histogram with a parent (same bounds) observes into it too.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Int64
	parent *Histogram
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
// and the bucket bounds.
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

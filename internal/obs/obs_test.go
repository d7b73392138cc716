package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "c_total"})
	g := r.Gauge(Desc{Name: "g"})
	c.Inc()
	c.Add(41)
	g.Set(7)
	g.Add(-3)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(Desc{Name: "x_total", Labels: []Label{{"k", "v"}}})
	b := r.Counter(Desc{Name: "x_total", Labels: []Label{{"k", "v"}}})
	if a != b {
		t.Fatal("re-registering the same series must return the same counter")
	}
	c := r.Counter(Desc{Name: "x_total", Labels: []Label{{"k", "w"}}})
	if a == c {
		t.Fatal("different label values must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Gauge(Desc{Name: "x_total", Labels: []Label{{"k", "v"}}})
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "h"}, []int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10, 11, 100, 500, 1000, 1001, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Buckets: ≤10 gets -5(→0), 0, 10; ≤100 gets 11, 100; ≤1000 gets
	// 500, 1000; overflow gets 1001 and 1<<40.
	want := []int64{3, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count() != 9 {
		t.Fatalf("count = %d, want 9", s.Count())
	}
}

// oracleBucket returns the [lower, upper] edges of the bucket that
// holds v, the range any bucket-based quantile estimate must fall in.
func oracleBucket(bounds []int64, v int64) (lo, hi float64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	if i >= len(bounds) {
		return float64(bounds[len(bounds)-1]), float64(bounds[len(bounds)-1])
	}
	if i > 0 {
		lo = float64(bounds[i-1])
	}
	return lo, float64(bounds[i])
}

// TestQuantileOracle pins the bucket-interpolated quantiles against a
// sorted-slice oracle: the estimate must land inside the bucket that
// contains the true quantile value.
func TestQuantileOracle(t *testing.T) {
	bounds := DefaultLatencyBounds
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "lat"}, bounds)
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 20000)
	for i := range vals {
		// Log-uniform over ~30µs..30s so every bucket scale is hit.
		v := int64(30e3 * math.Pow(1e6, rng.Float64()))
		vals[i] = v
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		rank := int(q*float64(len(vals))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := vals[rank]
		lo, hi := oracleBucket(bounds, truth)
		got := s.Quantile(q)
		if got < lo || got > hi {
			t.Errorf("q=%v: estimate %v outside oracle bucket [%v, %v] (truth %d)", q, got, lo, hi, truth)
		}
	}
	if s.Quantile(0.5) > s.Quantile(0.99) {
		t.Error("quantiles must be monotone")
	}
}

func TestQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "e"}, []int64{1, 2})
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestConcurrentHammer drives one registry from many goroutines — the
// -race CI job runs this package — and checks the totals are exact and
// snapshots taken mid-flight are internally consistent.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "ops_total"})
	g := r.Gauge(Desc{Name: "depth"})
	h := r.Histogram(Desc{Name: "lat"}, DefaultLatencyBounds)
	const workers = 8
	const perWorker = 20000
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot readers while writers hammer.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				for _, m := range s.Metrics {
					if m.Kind == KindHistogram && m.Hist.Count() < 0 {
						t.Error("negative histogram count")
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(rng.Intn(int(2 * DefaultLatencyBounds[len(DefaultLatencyBounds)-1]))))
			}
		}(int64(w))
	}
	// Drain writers, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			goto drained
		case <-time.After(time.Millisecond):
			r.Snapshot() // keep the main goroutine snapshotting too
		}
	}
drained:
	close(stop)
	readers.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count(), workers*perWorker)
	}
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != s.Count() {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count())
	}
}

// TestSetRecordsUpTheTree pins the ledger's one rule: an event recorded
// in a set lands there and in every ancestor — Root and its registered
// series included — and nowhere else.
func TestSetRecordsUpTheTree(t *testing.T) {
	rootBefore := Root.BytesSent.Value()
	promBefore, _ := Default.Snapshot().Get("deepsecure_bytes_total", Label{"direction", "sent"})
	server := NewSet(Root)
	session, sibling := NewSet(server), NewSet(server)
	inference := NewSet(session)

	inference.BytesSent.Add(7)
	session.BytesSent.Add(5)
	for _, c := range []struct {
		name string
		set  *Set
		want int64
	}{{"inference", inference, 7}, {"session", session, 12}, {"server", server, 12}, {"sibling", sibling, 0}} {
		if got := c.set.BytesSent.Value(); got != c.want {
			t.Errorf("%s ledger: BytesSent = %d, want %d", c.name, got, c.want)
		}
	}
	if got := Root.BytesSent.Value() - rootBefore; got != 12 {
		t.Errorf("Root moved by %d, want 12", got)
	}
	promAfter, _ := Default.Snapshot().Get("deepsecure_bytes_total", Label{"direction", "sent"})
	if got := promAfter.Value - promBefore.Value; got != 12 {
		t.Errorf("registered series moved by %d, want 12", got)
	}
	if got := server.BytesReceived.Value(); got != 0 {
		t.Errorf("a different series moved: BytesReceived = %d", got)
	}

	// Histograms observe upwards too, gauges add up, and a raised peak is
	// the highest any descendant reached.
	inference.Phase[PhaseEval].Observe(int64(3 * time.Millisecond))
	sibling.Phase[PhaseEval].Observe(int64(time.Millisecond))
	if h := server.Phase[PhaseEval]; h.Count() != 2 || h.Sum() != int64(4*time.Millisecond) {
		t.Errorf("server eval phase: count %d sum %d, want 2 and 4ms", h.Count(), h.Sum())
	}
	if h := session.Phase[PhaseEval]; h.Count() != 1 {
		t.Errorf("session eval phase: count %d, want 1", h.Count())
	}
	if own := session.SessionsActive.Add(1); own != 1 {
		t.Errorf("Gauge.Add returned %d, want this gauge's own value 1", own)
	}
	sibling.SessionsActive.Add(1)
	if got := server.SessionsActive.Value(); got != 2 {
		t.Errorf("server SessionsActive = %d, want 2", got)
	}

	// A set under nothing is a ledger of its own.
	NewSet(nil).BytesSent.Add(100)
	if got := Root.BytesSent.Value() - rootBefore; got != 12 {
		t.Errorf("a detached set moved Root by %d", got-12)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
		if _, ok := Default.Snapshot().Get("deepsecure_phase_seconds", Label{"phase", name}); !ok {
			t.Fatalf("phase %q not pre-registered", name)
		}
	}
}

func TestServingLine(t *testing.T) {
	line := ServingLine(Default.Snapshot())
	for _, want := range []string{"sessions=", "active=", "inferences=", "sent=", "ot_pool="} {
		if !contains(line, want) {
			t.Fatalf("serving line %q missing %q", line, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

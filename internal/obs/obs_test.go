package obs

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testHistogram returns a histogram under nothing with the given bounds.
func testHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func TestCounterGauge(t *testing.T) {
	s := NewSet(nil)
	c, g := s.Sessions, s.SessionsActive
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

// TestLatencyBoundsSortedUnique pins what Observe's bucket scan and
// Quantile's interpolation assume of the one set of bounds every ledger
// histogram has: strictly increasing, and positive.
func TestLatencyBoundsSortedUnique(t *testing.T) {
	if DefaultLatencyBounds[0] <= 0 {
		t.Fatalf("first bound %d is not positive", DefaultLatencyBounds[0])
	}
	for i := 1; i < len(DefaultLatencyBounds); i++ {
		if DefaultLatencyBounds[i] <= DefaultLatencyBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, DefaultLatencyBounds)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := testHistogram([]int64{10, 100, 1000})
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
	h := NewSet(nil).InferenceSeconds
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
	h := testHistogram([]int64{1, 2})
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestConcurrentHammer drives one ledger from many goroutines — the -race
// CI job runs this package — while readers render it, and checks the
// totals are exact and renders taken mid-flight are well formed.
func TestConcurrentHammer(t *testing.T) {
	s := NewSet(nil)
	c, g, h := s.Inferences, s.SessionsActive, s.Phase[PhaseEval]
	const workers = 8
	const perWorker = 20000
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	render := func() {
		if err := WritePrometheus(io.Discard, s); err != nil {
			t.Error(err)
		}
		if err := WriteJSON(io.Discard, s); err != nil {
			t.Error(err)
		}
		if !strings.HasPrefix(ServingLine(s), "sessions=") {
			t.Error("malformed serving line")
		}
	}
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
				render()
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
			render() // keep the main goroutine rendering too
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
	snap := h.Snapshot()
	if snap.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", snap.Count(), workers*perWorker)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	if want := `deepsecure_phase_seconds_count{phase="eval"} 160000`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition after the writers drained lacks %q", want)
	}
}

// TestSetRecordsUpTheTree pins the ledger's one rule: an event recorded
// in a set lands there and in every ancestor — Root included — and
// nowhere else.
func TestSetRecordsUpTheTree(t *testing.T) {
	rootBefore := Root.BytesSent.Value()
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
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewSet(nil)); err != nil {
		t.Fatal(err)
	}
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
		if !strings.Contains(buf.String(), `deepsecure_phase_seconds_count{phase="`+name+`"} 0`) {
			t.Fatalf("phase %q not exported", name)
		}
	}
}

func TestServingLine(t *testing.T) {
	line := ServingLine(NewSet(nil))
	for _, want := range []string{"sessions=", "active=", "inferences=", "sent="} {
		if !strings.Contains(line, want) {
			t.Fatalf("serving line %q missing %q", line, want)
		}
	}
}

// TestNewSetAllocs holds the per-inference cost of a ledger to the set
// itself and one array per kind of series plus the buckets behind its
// histograms.
func TestNewSetAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewSet(Root) }); n > 5 {
		t.Fatalf("NewSet allocates %v times, want at most 5", n)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func exampleRegistry() *Registry {
	r := NewRegistry()
	r.Counter(Desc{Name: "demo_ops_total", Help: "Ops."}).Add(7)
	r.Counter(Desc{Name: "demo_bytes_total", Labels: []Label{{"direction", "sent"}}}).Add(100)
	r.Counter(Desc{Name: "demo_bytes_total", Labels: []Label{{"direction", "received"}}}).Add(50)
	r.Gauge(Desc{Name: "demo_depth", Help: "Depth."}).Set(3)
	h := r.Histogram(Desc{Name: "demo_seconds", Help: "Lat.", Scale: 1e-9}, []int64{1_000_000, 1_000_000_000})
	h.Observe(500_000)       // ≤1ms bucket
	h.Observe(2_000_000)     // ≤1s bucket
	h.Observe(5_000_000_000) // overflow
	return r
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := exampleRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP demo_ops_total Ops.",
		"# TYPE demo_ops_total counter",
		"demo_ops_total 7",
		`demo_bytes_total{direction="sent"} 100`,
		`demo_bytes_total{direction="received"} 50`,
		"# TYPE demo_depth gauge",
		"demo_depth 3",
		"# TYPE demo_seconds histogram",
		`demo_seconds_bucket{le="0.001"} 1`,
		`demo_seconds_bucket{le="1"} 2`,
		`demo_seconds_bucket{le="+Inf"} 3`,
		"demo_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The TYPE header for a multi-series name must appear exactly once.
	if strings.Count(out, "# TYPE demo_bytes_total") != 1 {
		t.Errorf("grouped series must share one TYPE header:\n%s", out)
	}
	// _sum is scaled to seconds: (0.5+2+5000)ms = 5.0025s.
	if !strings.Contains(out, "demo_seconds_sum 5.0025") {
		t.Errorf("scaled _sum missing:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := exampleRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, buf.String())
	}
	if parsed["demo_ops_total"] != float64(7) {
		t.Errorf("demo_ops_total = %v", parsed["demo_ops_total"])
	}
	if parsed["demo_bytes_total{direction=sent}"] != float64(100) {
		t.Errorf("labeled counter = %v", parsed["demo_bytes_total{direction=sent}"])
	}
	hist, ok := parsed["demo_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("demo_seconds = %T", parsed["demo_seconds"])
	}
	for _, k := range []string{"count", "sum", "mean", "p50", "p95", "p99"} {
		if _, ok := hist[k]; !ok {
			t.Errorf("histogram JSON missing %q: %v", k, hist)
		}
	}
	if hist["count"] != float64(3) {
		t.Errorf("count = %v", hist["count"])
	}
}

func TestHTTPEndpoints(t *testing.T) {
	mux := ServeMux(Default, true)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"deepsecure_inference_seconds_bucket",
		"deepsecure_sessions_active",
		"deepsecure_ot_pool_depth",
		`deepsecure_bytes_total{direction="sent"}`,
		`deepsecure_phase_seconds_bucket{phase="ot_derand"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/stats status %d", rec.Code)
	}
	var parsed map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("/debug/stats JSON: %v", err)
	}
	if _, ok := parsed["deepsecure_inference_seconds"]; !ok {
		t.Error("/debug/stats missing deepsecure_inference_seconds")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d (pprof opt-in broken)", rec.Code)
	}

	// Without the opt-in, pprof must not be mounted.
	bare := ServeMux(NewRegistry(), false)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code == 200 {
		t.Fatal("pprof mounted without opt-in")
	}
}

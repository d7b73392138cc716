package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// exampleSet returns a detached ledger with a few series moved.
func exampleSet() *Set {
	s := NewSet(nil)
	s.Inferences.Add(7)
	s.BytesSent.Add(100)
	s.BytesReceived.Add(50)
	s.SessionsActive.Set(3)
	s.InferenceSeconds.Observe(500_000)        // ≤1ms bucket
	s.InferenceSeconds.Observe(2_000_000)      // ≤2.5ms bucket
	s.InferenceSeconds.Observe(70_000_000_000) // overflow
	return s
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, exampleSet()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP deepsecure_inferences_total Inferences completed (each sample of a batch counts once).",
		"# TYPE deepsecure_inferences_total counter",
		"\ndeepsecure_inferences_total 7\n",
		`deepsecure_bytes_total{direction="sent"} 100`,
		`deepsecure_bytes_total{direction="received"} 50`,
		"# TYPE deepsecure_sessions_active gauge",
		"\ndeepsecure_sessions_active 3\n",
		"# TYPE deepsecure_inference_seconds histogram",
		`deepsecure_inference_seconds_bucket{le="0.001"} 1`,
		`deepsecure_inference_seconds_bucket{le="0.0025"} 2`,
		`deepsecure_inference_seconds_bucket{le="0.005"} 2`,
		`deepsecure_inference_seconds_bucket{le="+Inf"} 3`,
		"deepsecure_inference_seconds_count 3",
		`deepsecure_phase_seconds_bucket{phase="eval",le="0.001"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The TYPE header for a multi-series name must appear exactly once.
	if strings.Count(out, "# TYPE deepsecure_bytes_total") != 1 {
		t.Errorf("grouped series must share one TYPE header:\n%s", out)
	}
	// _sum is scaled to seconds: 0.5ms + 2ms + 70s = 70.0025s.
	if !strings.Contains(out, "deepsecure_inference_seconds_sum 70.0025\n") {
		t.Errorf("scaled _sum missing:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, exampleSet()); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, buf.String())
	}
	if parsed["deepsecure_inferences_total"] != float64(7) {
		t.Errorf("deepsecure_inferences_total = %v", parsed["deepsecure_inferences_total"])
	}
	if parsed["deepsecure_bytes_total{direction=sent}"] != float64(100) {
		t.Errorf("labeled counter = %v", parsed["deepsecure_bytes_total{direction=sent}"])
	}
	hist, ok := parsed["deepsecure_inference_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("deepsecure_inference_seconds = %T", parsed["deepsecure_inference_seconds"])
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

// fieldsOf lists every exported *Counter, *Gauge and *Histogram field of
// s, array elements included, by path, in struct order.
func fieldsOf(s *Set) (paths []string, vals []any) {
	rv := reflect.ValueOf(s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, sf := rv.Field(i), rv.Type().Field(i)
		switch {
		case !sf.IsExported():
		case f.Kind() == reflect.Array:
			for j := 0; j < f.Len(); j++ {
				paths = append(paths, fmt.Sprintf("%s[%d]", sf.Name, j))
				vals = append(vals, f.Index(j).Interface())
			}
		default:
			paths = append(paths, sf.Name)
			vals = append(vals, f.Interface())
		}
	}
	return paths, vals
}

// seriesOf maps each sample of an exposition to its series: the sample
// name without a histogram suffix, and its labels without le.
func seriesOf(line string) string {
	name, _, _ := strings.Cut(line, " ")
	name, labels, _ := strings.Cut(name, "{")
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if n, ok := strings.CutSuffix(name, suf); ok && strings.HasSuffix(n, "_seconds") {
			name = n
		}
	}
	var kept []string
	for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if l != "" && !strings.HasPrefix(l, "le=") {
			kept = append(kept, l)
		}
	}
	return name + "{" + strings.Join(kept, ",") + "}"
}

// TestEverySeriesRendered pins the catalogue against the struct: NewSet
// lays out every field; moving any one field of a fresh set moves exactly
// one series of /metrics and one key of /debug/stats; no two fields move
// the same one; every series is some field's; and the two unexported
// counters move nothing.
func TestEverySeriesRendered(t *testing.T) {
	render := func(s *Set) (prom map[string][]string, stats map[string]string) {
		var pb, jb bytes.Buffer
		if err := WritePrometheus(&pb, s); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&jb, s); err != nil {
			t.Fatal(err)
		}
		prom = map[string][]string{}
		for _, line := range strings.Split(strings.TrimSpace(pb.String()), "\n") {
			if !strings.HasPrefix(line, "#") {
				prom[seriesOf(line)] = append(prom[seriesOf(line)], line)
			}
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(jb.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		stats = map[string]string{}
		for k, v := range raw {
			stats[k] = string(v)
		}
		return prom, stats
	}
	baseProm, baseStats := render(NewSet(nil))
	if len(baseProm) != len(baseStats) {
		t.Fatalf("/metrics has %d series, /debug/stats %d", len(baseProm), len(baseStats))
	}
	owner := map[string]string{}
	paths, _ := fieldsOf(NewSet(nil))
	for i, path := range paths {
		s := NewSet(nil)
		_, vals := fieldsOf(s)
		if reflect.ValueOf(vals[i]).IsNil() {
			t.Errorf("NewSet left %s nil: it has no catalogue entry", path)
			continue
		}
		switch v := vals[i].(type) {
		case *Counter:
			v.Add(1)
		case *Gauge:
			v.Set(1)
		case *Histogram:
			v.Observe(1)
		default:
			t.Fatalf("field %s is a %T", path, v)
		}
		prom, stats := render(s)
		var moved []string
		for id, lines := range prom {
			if !reflect.DeepEqual(lines, baseProm[id]) {
				moved = append(moved, id)
			}
		}
		var movedKeys []string
		for k, v := range stats {
			if v != baseStats[k] {
				movedKeys = append(movedKeys, k)
			}
		}
		if path == "OTOfflineTime" || path == "SessionTime" {
			if len(moved)+len(movedKeys) != 0 {
				t.Errorf("%s is not exported, but it moved %v and %v", path, moved, movedKeys)
			}
			continue
		}
		if len(moved) != 1 || len(movedKeys) != 1 {
			t.Errorf("%s moved %v on /metrics and %v on /debug/stats, want one series each", path, moved, movedKeys)
			continue
		}
		if prev, dup := owner[moved[0]]; dup {
			t.Errorf("%s and %s both render as %s", prev, path, moved[0])
		}
		owner[moved[0]] = path
	}
	if len(owner) != len(baseProm) || len(paths) != len(baseProm)+2 {
		t.Errorf("%d fields own %d of the %d series on /metrics", len(paths), len(owner), len(baseProm))
	}
}

func TestHTTPEndpoints(t *testing.T) {
	mux := ServeMux(exampleSet(), true)

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
		`deepsecure_inference_seconds_bucket{le="+Inf"} 3`,
		"deepsecure_sessions_active 3",
		"deepsecure_ot_consumed_total",
		`deepsecure_bytes_total{direction="sent"} 100`,
		`deepsecure_phase_seconds_bucket{phase="eval"`,
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
	if parsed["deepsecure_inferences_total"] != float64(7) {
		t.Errorf("/debug/stats deepsecure_inferences_total = %v, want 7", parsed["deepsecure_inferences_total"])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d (pprof opt-in broken)", rec.Code)
	}

	// Without the opt-in, pprof must not be mounted.
	bare := ServeMux(NewSet(nil), false)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code == 200 {
		t.Fatal("pprof mounted without opt-in")
	}
}

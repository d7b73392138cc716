package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module. Spans are
// recorded in the benchmark's own code, around calls into the public API;
// nothing inside internal/* is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // span id, -1 for a root
	Op     int    `json:"op"`     // operation id, -1 outside the timed window
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part covered by child spans
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced operations run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// timed runs fn and returns how long it took. With a tracer the call is
// also recorded as a span under parent; fn receives the new span's id so
// it can parent its own spans.
func timed(t *tracer, name string, parent, op int, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	id := t.begin(name, parent, op)
	err := fn(id)
	t.end(id)
	return time.Since(start), err
}

// durations returns the duration of every finished span with the given
// name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write fills in self times and writes every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID])
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered returns the total length of the union of the intervals, so
// child spans that overlap (concurrent children) are not counted twice.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

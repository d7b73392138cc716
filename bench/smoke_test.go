package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs every workload BENCHMARK.json lists at tiny operation
// counts and holds the output to that file: every workload and metric
// named there is emitted under a well-formed name, nothing fails, and the
// wire bytes per inference repeat exactly.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	listed := 0
	for i := range workloads {
		if !workloads[i].paperScale {
			listed++
		}
	}
	if len(mf.Workloads) != listed {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d to list", len(mf.Workloads), listed)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, mw := range mf.Workloads {
		w := findWorkload(mw.Name)
		if w == nil || w.paperScale || !name.MatchString(mw.Name) {
			t.Errorf("BENCHMARK.json workload %q: unknown or malformed", mw.Name)
			continue
		}
		var wire []float64
		for seed, trace := range []int{0, 0, 1} {
			rec, err := runWorkload(w, options{seed: int64(seed + 1), ops: 3, smoke: true, trace: trace})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if rec.Failed != 0 || rec.Operations != 3 {
				t.Errorf("%s trace %d: %d of %d operations failed, want 0 of 3: %v", w.name, trace, rec.Failed, rec.Operations, rec.Failures)
			}
			want := mf.EndToEnd
			if trace == 1 {
				want = mf.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(rec.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := rec.Metrics[mm.Name]
				if !ok || got.Unit != mm.Unit || !name.MatchString(mm.Name) {
					t.Errorf("%s trace %d: metric %q [%s]: emitted %v as %+v", w.name, trace, mm.Name, mm.Unit, ok, got)
				}
			}
			if trace == 0 {
				wire = append(wire, rec.Metrics["wire_mb_per_infer"].Value)
			}
		}
		if wire[0] != wire[1] || wire[0] <= 0 {
			t.Errorf("%s: wire_mb_per_infer %v then %v over the same operation count", w.name, wire[0], wire[1])
		}
	}
}

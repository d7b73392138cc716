package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// manifestFile is the part of BENCHMARK.json that -compare reads.
type manifestFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) gives them (exclusive method), so
// the spread agrees with the one the benchmark's bounds were set by. A
// single value is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, for every workload and end-to-end metric, both
// sides' medians, the ratio with its base, the bound and a verdict. worse
// is true if any metric got worse by more than its bound.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) (worse bool, err error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return false, err
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return false, fmt.Errorf("%s: %w", manifestPath, err)
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	// values of one metric on one workload, from the runs of one side
	values := func(recs []*record, workload string, trace int, name string) []float64 {
		var vs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median (n, IQR)\tB median (n, IQR)\tB/A\tbound\tverdict\n")
	for _, w := range mf.Workloads {
		for _, mm := range mf.EndToEnd {
			a, b := values(recsA, w.Name, 0, mm.Name), values(recsB, w.Name, 0, mm.Name)
			if len(a) == 0 || len(b) == 0 {
				return false, fmt.Errorf("%s %s: %d runs in %s, %d in %s", w.Name, mm.Name, len(a), pathA, len(b), pathB)
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worseBy := (b2 - a2) / a2
			if mm.Better == "higher" {
				worseBy = -worseBy
			}
			verdict := "ok"
			switch {
			case (a3-a1)/a2 > mm.Bound || (b3-b1)/b2 > mm.Bound:
				verdict = "unresolved"
			case worseBy > mm.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d, %.1f%%)\t%.6g %s (%d, %.1f%%)\t%.4f of A=%.6g\t%.0f%% %s\t%s\n",
				w.Name, mm.Name, a2, mm.Unit, len(a), (a3-a1)/a2*100, b2, mm.Unit, len(b), (b3-b1)/b2*100,
				b2/a2, a2, mm.Bound*100, mm.Better, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return worse, err
	}
	// Counts the program makes must repeat exactly between two sets.
	for _, w := range mf.Workloads {
		for _, mm := range mf.PerLayer {
			a, b := values(recsA, w.Name, 1, mm.Name), values(recsB, w.Name, 1, mm.Name)
			if mm.Unit != "count" || len(a) == 0 || len(b) == 0 || a[0] == b[0] {
				continue
			}
			fmt.Fprintf(out, "count differs: %s %s: A=%g B=%g\n", w.Name, mm.Name, a[0], b[0])
		}
	}
	return worse, nil
}

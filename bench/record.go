package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepsecure"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failure identifies one operation that errored, was refused, or returned
// a wrong label; (workload, op, seed) is enough to replay it.
type failure struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Seed     int64  `json:"seed"`
	Reason   string `json:"reason"`
}

// record is the full result of one run of one workload. The same schema
// serves every workload; -out files hold a list of them.
type record struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Smoke    bool     `json:"smoke,omitempty"`
	Command  []string `json:"command"`
	Host     hostInfo `json:"host"`

	// Operation and sample counts of the timed window. Every percentile
	// in Metrics is over LatencySamples operation latencies.
	Operations     int       `json:"operations"`
	Failed         int       `json:"failed"`
	Inferences     int       `json:"inferences"`
	LatencySamples int       `json:"latency_samples"`
	SetupSamples   int       `json:"setup_samples"`
	WindowS        float64   `json:"window_s"`
	Segments       int       `json:"segments"` // infer_per_s and cpu_s_per_infer are medians over this many
	Failures       []failure `json:"failures,omitempty"`
	// OpMs is the latency of every untraced operation that succeeded, in
	// the order they completed.
	OpMs []float64 `json:"op_ms"`

	Metrics map[string]metric `json:"metrics"`
}

// recordFile is what -out writes: the records of one or more runs.
type recordFile struct {
	Records []*record `json:"records"`
}

func writeRecords(path string, recs []*record) error {
	data, err := json.MarshalIndent(recordFile{recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f recordFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Records, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostInfo says where a record was measured.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	WideHash   bool   `json:"wide_hash_available"`
}

func host() hostInfo {
	h := hostInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", WideHash: deepsecure.WideHashAvailable(),
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPU = v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// text file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpuTime is the process's user+system CPU time so far; client and server
// run in this one process, so it covers both parties.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The timed window is cut into at most maxSegments runs of consecutive
// operations, each of the same count and of at least minSegmentOps.
const (
	maxSegments   = 15
	minSegmentOps = 3
)

// segments cuts the window's operations, in the order they returned, into
// runs of equal count and gives for each run its correct inferences per
// second of wall time and the process's CPU seconds per correct inference.
// The metrics are the medians over the runs, so a spell in which the host
// had less CPU to give moves them only once it covers half the window.
func segments(start time.Time, cpu0 time.Duration, res []opResult) (perS, cpuPer []float64) {
	nseg := max(1, min(maxSegments, len(res)/minSegmentOps))
	at, cpu := start, cpu0
	for j := 0; j < nseg; j++ {
		run := res[j*len(res)/nseg : (j+1)*len(res)/nseg]
		correct := 0
		for _, r := range run {
			correct += r.correct
		}
		last := run[len(run)-1]
		if correct > 0 {
			perS = append(perS, float64(correct)/last.done.Sub(at).Seconds())
			cpuPer = append(cpuPer, (last.cpu-cpu).Seconds()/float64(correct))
		}
		at, cpu = last.done, last.cpu
	}
	return perS, cpuPer
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

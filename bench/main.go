// Command bench is the repository's one live benchmark: it starts a real
// deepsecure.NewServer on a loopback listener in this process, drives it
// through NewSession/Infer with one of four traffic shapes, checks every
// label against nn.PredictFixed, and prints every metric by name with its
// unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"deepsecure"
	"deepsecure/internal/nn"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json, \"all\" for those, or \"b3c_lan\"")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced window and a layer pass")
		procs    = flag.Int("procs", 1, "GOMAXPROCS of the run; 0 means one per CPU")
		ops      = flag.Int("ops", 0, "issue exactly this many operations instead of running for -seconds")
		smoke    = flag.Bool("smoke", false, "cut the workload down to two-sample batches, one set-up, a small OT pool and a 2 ms link (for tests)")
		out      = flag.String("out", "", "also write the full record(s) as JSON to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as JSON to this file")
		runs     = flag.Int("runs", 5, "with -workload all: untraced runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: bench -compare A.json B.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "with -compare: the file holding each metric's direction and bound")
	)
	flag.Parse()
	if *procs <= 0 {
		*procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(*procs)
	os.Exit(run(*name, options{
		seed: *seed, seconds: *seconds, trace: *trace, procs: *procs, ops: *ops, smoke: *smoke,
		out: *out, traceOut: *traceOut, runs: *runs,
	}, *compare, *manifest, flag.Args()))
}

func run(name string, opt options, compare bool, manifest string, args []string) int {
	switch {
	case compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, manifest, args[0], args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case name == "all":
		if err := runAll(opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(name)
	if w == nil || (opt.trace != 0 && opt.trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or -trace %d\n", name, opt.trace)
		return 2
	}
	rec, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if opt.out != "" {
		if err := writeRecords(opt.out, []*record{rec}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	printRecord(rec)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// printRecord lists every metric by name with its unit, then the failed
// operations, and ends with the one-line JSON result.
func printRecord(rec *record) {
	fmt.Printf("workload %s seed %d trace %d: %d operations, %d failed, %d correct inferences in %.3f s (%d latency samples, %d set-ups)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Operations, rec.Failed, rec.Inferences, rec.WindowS, rec.LatencySamples, rec.SetupSamples)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Printf("  %-36s %16s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED workload=%s op=%d seed=%d: %s\n", f.Workload, f.Op, f.Seed, f.Reason)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Operations, rec.Failed, rec.Metrics})
	if err != nil {
		panic(err) // a map of plain numbers and strings always marshals
	}
	fmt.Println(string(line))
}

// runAll runs every workload BENCHMARK.json lists, each run in a child process of its own so
// that peak_rss_mb and CPU time belong to that run alone: opt.runs
// untraced runs on consecutive seeds, then one traced run, per workload.
// All records go to opt.out, and each traced run's spans to
// opt.traceOut.<workload>.json when that is set.
func runAll(opt options) error {
	if opt.out == "" {
		return fmt.Errorf("-workload all needs -out FILE")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	part := opt.out + ".part"
	defer os.Remove(part)
	var all []*record
	failed := false
	for i := range workloads {
		if workloads[i].paperScale {
			continue
		}
		for r := 0; r <= opt.runs; r++ {
			seed, trace := opt.seed+int64(r), 0
			if r == opt.runs {
				seed, trace = opt.seed, 1
			}
			args := []string{
				"-workload", workloads[i].name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-procs", strconv.Itoa(opt.procs), "-ops", strconv.Itoa(opt.ops), "-out", part,
			}
			if opt.smoke {
				args = append(args, "-smoke")
			}
			if trace == 1 && opt.traceOut != "" {
				args = append(args, "-trace-out", opt.traceOut+"."+workloads[i].name+".json")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			err := cmd.Run()
			recs, rerr := readRecords(part)
			if rerr != nil {
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", workloads[i].name, seed, err)
				}
				return rerr
			}
			os.Remove(part)
			failed = failed || err != nil
			all = append(all, recs...)
		}
	}
	if err := writeRecords(opt.out, all); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("some operations failed; see the FAILED lines above and %s", opt.out)
	}
	return nil
}

// warmupOps is the number of unmeasured operations before the timed window.
const warmupOps = 4

// options are the settings of one run.
type options struct {
	seed     int64
	seconds  float64
	trace    int
	procs    int
	ops      int
	smoke    bool
	out      string
	traceOut string
	runs     int
}

// runWorkload runs one workload in this process: set-up (several times
// where that is cheap), warm-up, the timed window, tear-down, and with
// -trace 1 the layer pass.
func runWorkload(w *workload, opt options) (*record, error) {
	model, err := w.buildModel()
	if err != nil {
		return nil, err
	}
	warmups := warmupOps
	if opt.smoke {
		w, warmups = w.forSmoke(), 1
	}
	var tr *tracer
	root := noSpan
	if opt.trace == 1 {
		tr = newTracer()
		root = tr.begin("workload", noSpan, -1)
	}
	link := &linkStats{}
	e, setups, err := setUpRepeatedly(w, model, link, tr, root)
	if err != nil {
		return nil, err
	}

	// Warm-up: on b3c_lan the first half-dozen operations on a fresh heap
	// take up to twice the steady time (heap growth, first-touch page
	// faults), so a few run before the window, on inputs of their own, and
	// are not measured.
	warmup := &window{seed: ^opt.seed, maxOps: warmups}
	e.run(warmup)
	for _, r := range warmup.res {
		if r.failed() {
			return nil, fmt.Errorf("warm-up operation %d failed: %v %s", r.op, r.err, r.wrong)
		}
	}

	wd := &window{seed: opt.seed, seconds: opt.seconds, maxOps: opt.ops, tr: tr}
	wd.root = tr.begin("window", root, -1)
	cpu0 := cpuTime()
	link0 := link.snapshot()
	e.run(wd)
	wire := link.snapshot().sub(link0)
	tr.end(wd.root)

	rec := &record{
		Workload: w.name, Why: w.why, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Smoke: opt.smoke,
		Command: os.Args, Host: host(), SetupSamples: len(setups),
		WindowS: wd.end.Sub(wd.start).Seconds(), Metrics: map[string]metric{},
	}
	var lat, latTraced []float64 // ms; untraced and traced operations that succeeded
	for _, r := range wd.res {
		rec.Operations++
		rec.Inferences += r.correct
		switch {
		case r.failed():
			rec.Failed++
			reason := r.wrong
			if r.err != nil {
				reason = r.err.Error()
			}
			rec.Failures = append(rec.Failures, failure{w.name, r.op, opt.seed, reason})
		case r.traced:
			latTraced = append(latTraced, r.latency.Seconds()*1e3)
		default:
			lat = append(lat, r.latency.Seconds()*1e3)
		}
	}
	rec.LatencySamples, rec.OpMs = len(lat), lat
	if len(lat) == 0 || (opt.trace == 1 && len(latTraced) == 0) {
		// No latency to report: either everything failed, which the record
		// says, or the window was too short to measure anything.
		if err := e.tearDown(nil, noSpan); err != nil {
			fmt.Fprintln(os.Stderr, "bench: tear-down:", err)
		}
		if rec.Failed == 0 {
			return nil, fmt.Errorf("the window held %d operations, too few to measure", rec.Operations)
		}
		return rec, nil
	}
	n := float64(rec.Inferences)
	rates, cpus := segments(wd.start, cpu0, wd.res)
	rec.Segments = len(rates)
	inferPerS := median(rates)

	if opt.trace == 0 {
		if err := e.tearDown(nil, noSpan); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rec.Metrics = map[string]metric{
			"setup_s":           {median(setups), "s"},
			"infer_per_s":       {inferPerS, "1/s"},
			"op_ms_p50":         {median(lat), "ms"},
			"cpu_s_per_infer":   {median(cpus), "s"},
			"wire_mb_per_infer": {float64(wire.sent+wire.recv) / 1e6 / n, "MB"},
			"peak_rss_mb":       {rss, "MB"},
		}
		return rec, nil
	}

	// Per-layer numbers: spans around this run's own session-level calls,
	// then the layer pass on the workload's program and sizes.
	ready, err := e.warmOpen(tr, root)
	if err != nil {
		return nil, fmt.Errorf("warm session open: %w", err)
	}
	busy := e.srv.Stats().ShedSessions
	if err := e.tearDown(tr, root); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	freeHeap()
	layerRoot := tr.begin("layers", root, -1)
	m, err := layerPass(w, model, opt.seed, tr, layerRoot)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	tr.end(layerRoot)
	tr.end(root)

	spanMedian := func(name string) float64 { return median(tr.durations(name)) }
	mgates := (m["netgen.and_gates"].Value + m["netgen.free_gates"].Value) * inferPerS / 1e6
	m["core.session_open_s"] = metric{spanMedian("core.session_open"), "s"}
	m["core.client_compile_s"] = metric{spanMedian("core.session_open_cold") - spanMedian("core.session_open"), "s"}
	m["core.infer_ms"] = metric{spanMedian("core.infer") * 1e3, "ms"}
	m["core.op_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
	m["core.close_ms"] = metric{spanMedian("core.close") * 1e3, "ms"}
	m["core.flights_per_infer"] = metric{float64(wire.reversals) / 2 / n, "flights"}
	m["core.session_mgates_per_s"] = metric{mgates, "Mgates/s"}
	m["core.kernel_share"] = metric{mgates / m["gc.garble_w1_mgates_per_s"].Value, "ratio"}
	m["server.new_s"] = metric{spanMedian("server.new"), "s"}
	m["server.busy_responses"] = metric{float64(busy), "count"}
	m["server.dial_to_ready_ms"] = metric{ready.Seconds() * 1e3, "ms"}
	m["trace.overhead_pct"] = metric{(median(latTraced) - median(lat)) / median(lat) * 100, "%"}
	rec.Metrics = m
	if opt.traceOut != "" {
		if err := tr.write(opt.traceOut); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// setUpRepeatedly sets the workload up w.setups times from nothing and
// returns the last instance, which the run then drives, with the wall time
// of each set-up.
func setUpRepeatedly(w *workload, model *nn.Network, link *linkStats, tr *tracer, root int) (*env, []float64, error) {
	var e *env
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if e != nil {
			if err := e.tearDown(nil, noSpan); err != nil {
				return nil, nil, fmt.Errorf("tear-down between set-ups: %w", err)
			}
			e = nil
			freeHeap() // so that every set-up starts from the heap the first one saw
		}
		d, err := timed(tr, "setup", root, -1, func(id int) (err error) {
			e, err = setUp(w, model, link, tr, id)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	return e, setups, nil
}

// freeHeap collects what the previous phase left behind and returns it to
// the operating system, so the next phase is not measured on its garbage.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// warmOpen measures dial → NewSession returned on a client that has the
// program cached, and closes that session again.
func (e *env) warmOpen(tr *tracer, parent int) (time.Duration, error) {
	var conn net.Conn
	var sess *deepsecure.Session
	ready, err := timed(tr, "server.dial_to_ready", parent, -1, func(id int) (err error) {
		conn, sess, err = e.open(tr, id, -1, "core.session_open")
		return err
	})
	if err != nil {
		return 0, err
	}
	_, err = timed(tr, "core.close", parent, -1, func(int) error { return closeSession(sess, conn) })
	return ready, err
}

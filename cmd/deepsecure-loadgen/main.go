// deepsecure-loadgen drives a deepsecure-serve daemon with many
// concurrent secure-inference sessions and reports latency percentiles
// — the measurement half of the shared-engine-pool work: per-session
// pools look fine at S=1 and fall over at S=64, and only a load
// generator with open-loop arrivals and a percentile report shows it.
//
//	deepsecure-loadgen -connect 127.0.0.1:9090 -sessions 64 -rate 32 -inferences 4
//
// -sessions sessions arrive open-loop at -rate per second (all at once
// when 0), each runs -inferences serial secure inferences on random
// samples seeded by its index and closes. A server shedding
// load answers with protocol busy frames; the loadgen backs off by the
// server's retry-after hint and retries up to -retries times, counting
// every busy response — so an admission-controlled server under
// overload shows up as busy_responses and queue waits, not as client
// timeouts. The JSON report (stdout, or -json FILE) carries session
// outcomes, aggregate inferences/sec, and setup/inference latency
// percentiles taken from the exact per-operation samples.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepsecure"
)

type config struct {
	Connect    string  `json:"connect"`
	Sessions   int     `json:"sessions"`
	Rate       float64 `json:"rate_per_sec"`
	Inferences int     `json:"inferences_per_session"`
	Retries    int     `json:"busy_retries"`
}

type histReport struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

type report struct {
	Config      config  `json:"config"`
	WallSeconds float64 `json:"wall_seconds"`
	Sessions    struct {
		Launched  int64 `json:"launched"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Busy      int64 `json:"busy_responses"`
		Retries   int64 `json:"retries"`
		Dropped   int64 `json:"dropped"` // shed past the retry budget
	} `json:"sessions"`
	Inferences struct {
		Total  int64   `json:"total"`
		PerSec float64 `json:"per_sec"`
	} `json:"inferences"`
	LatencyMs histReport `json:"latency_ms"`
	SetupMs   histReport `json:"setup_ms"`
}

// samples collects one latency per operation from every session
// goroutine.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

// report sorts the samples and reads the percentiles off them: the q-th is
// the smallest sample with at least a share q of all samples at or below
// it.
func (s *samples) report() histReport {
	if len(s.d) == 0 {
		return histReport{}
	}
	sort.Slice(s.d, func(i, j int) bool { return s.d[i] < s.d[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	at := func(q float64) float64 { return ms(s.d[int(math.Ceil(q*float64(len(s.d))))-1]) }
	var sum time.Duration
	for _, d := range s.d {
		sum += d
	}
	return histReport{P50: at(0.50), P95: at(0.95), P99: at(0.99), Mean: ms(sum) / float64(len(s.d))}
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.Connect, "connect", "127.0.0.1:9090", "server address")
	flag.IntVar(&cfg.Sessions, "sessions", 64, "total sessions to run")
	flag.Float64Var(&cfg.Rate, "rate", 0, "open-loop session arrival rate per second (0 = all at once)")
	flag.IntVar(&cfg.Inferences, "inferences", 4, "inferences per session")
	flag.IntVar(&cfg.Retries, "retries", 16, "busy-response retries per session before dropping it")
	jsonPath := flag.String("json", "-", "write the JSON report here (- = stdout)")
	flag.Parse()

	var setupLat, inferLat samples

	// One shared client: the compiled netlist is cached per model spec,
	// so only the first session pays compilation — matching a real
	// multi-session client process.
	cli := &deepsecure.Client{}

	var rep report
	rep.Config = cfg
	var completed, failed, busy, retries, dropped, inferences atomic.Int64

	runSession := func(idx int) {
		rng := rand.New(rand.NewSource(1 + int64(idx)))
		// Session establishment rides the facade's retry policy: busy
		// responses back off by at least the server's retry-after hint,
		// and transient network failures (dial errors, peers dying
		// mid-handshake) re-dial instead of failing the session outright.
		// t0 tracks the start of the latest attempt so setup latency
		// measures the successful handshake, not the backoff waits.
		t0 := time.Now()
		sess, conn, err := deepsecure.DialSession(cfg.Connect, cli, deepsecure.RetryPolicy{
			MaxAttempts: cfg.Retries + 1,
			OnRetry: func(_ int, err error, wait time.Duration) {
				retries.Add(1)
				var be *deepsecure.BusyError
				if errors.As(err, &be) {
					busy.Add(1)
				}
				t0 = time.Now().Add(wait)
			},
		})
		if err != nil {
			var be *deepsecure.BusyError
			if errors.As(err, &be) {
				busy.Add(1)
				dropped.Add(1)
				return
			}
			log.Printf("session %d: setup: %v", idx, err)
			failed.Add(1)
			return
		}
		setupLat.add(time.Since(t0))
		defer conn.Close()

		x := make([]float64, sess.InputLen())
		sample := func() []float64 {
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			return x
		}
		for range cfg.Inferences {
			t0 := time.Now()
			if _, _, err := sess.Infer(sample()); err != nil {
				log.Printf("session %d: infer: %v", idx, err)
				failed.Add(1)
				return
			}
			inferLat.add(time.Since(t0))
			inferences.Add(1)
		}
		if err := sess.Close(); err != nil {
			log.Printf("session %d: close: %v", idx, err)
			failed.Add(1)
			return
		}
		completed.Add(1)
	}

	var arrivals <-chan time.Time
	if cfg.Rate > 0 {
		tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer tick.Stop()
		arrivals = tick.C
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		if arrivals != nil {
			<-arrivals
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runSession(i)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep.WallSeconds = wall.Seconds()
	rep.Sessions.Launched = int64(cfg.Sessions)
	rep.Sessions.Completed = completed.Load()
	rep.Sessions.Failed = failed.Load()
	rep.Sessions.Busy = busy.Load()
	rep.Sessions.Retries = retries.Load()
	rep.Sessions.Dropped = dropped.Load()
	rep.Inferences.Total = inferences.Load()
	rep.Inferences.PerSec = float64(inferences.Load()) / wall.Seconds()
	rep.LatencyMs = inferLat.report()
	rep.SetupMs = setupLat.report()

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if *jsonPath == "-" {
		os.Stdout.Write(out)
	} else {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%d/%d sessions completed, %d inferences (%.1f inf/s), p50=%.1fms p99=%.1fms, %d busy response(s)\n",
		rep.Sessions.Completed, rep.Sessions.Launched, rep.Inferences.Total,
		rep.Inferences.PerSec, rep.LatencyMs.P50, rep.LatencyMs.P99, rep.Sessions.Busy)
	if rep.Sessions.Failed > 0 {
		os.Exit(1)
	}
}

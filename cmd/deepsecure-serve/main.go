// deepsecure-serve is the long-lived secure-inference daemon: it compiles
// the model's GC netlist once, then serves concurrent multi-inference
// sessions over TCP until interrupted.
//
//	deepsecure-serve -listen :9090 -model b3
//
// Clients connect with deepsecure.OpenSession / deepsecure.InferMany (or
// the deepsecure-demo client for a quick smoke test) and run any number
// of inferences per connection; the handshake, OT base phase, and netlist
// generation are paid once per session, and the compiled tape is shared
// read-only across all sessions. SIGINT/SIGTERM triggers a graceful
// drain; a second signal force-closes.
package main

import (
	"context"
	"flag"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"deepsecure"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/sched"
)

// drainTimeout bounds the graceful shutdown: how long in-flight sessions
// get to finish after the first interrupt.
const drainTimeout = 30 * time.Second

// idleTimeout reaps a session whose client has moved no byte for this long.
const idleTimeout = 2 * time.Minute

func main() {
	listen := flag.String("listen", ":9090", "listen address")
	model := flag.String("model", "small", "b1|b2|b3|b4|small")
	seed := flag.Int64("seed", 1, "weight-initialization seed")
	statsEvery := flag.Duration("stats", time.Minute, "stats log interval (0 disables)")
	workers := flag.Int("workers", 0, "engine workers per session (0 = GOMAXPROCS, 1 = sequential)")
	pipeline := flag.Int("pipeline", 0, "in-flight inferences per session (0 = default 2, 1 = serial)")
	otPool := flag.Int("ot-pool", 1<<16, "OT pool capacity per session (0 = sized from the model: weight bits × in-flight window)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/stats (JSON) on this address (empty disables)")
	pprofOn := flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the metrics address")
	maxSessions := flag.Int("max-sessions", 0, "admission control: max concurrent sessions in the protocol (0 disables admission)")
	maxQueue := flag.Int("max-queue", 0, "admission control: max sessions waiting for a slot before new arrivals are shed")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "admission control: max wait in the queue before a session is shed")
	retryAfter := flag.Duration("retry-after", time.Second, "admission control: backoff hint sent with busy responses")
	maxP99 := flag.Duration("max-p99", 0, "admission control: shed new sessions while the windowed inference p99 exceeds this (0 disables the latency guard)")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "per-session handshake deadline (0 disables)")
	otSetupTimeout := flag.Duration("ot-setup-timeout", 0, "per-session OT-setup deadline (0 disables)")
	inferTimeout := flag.Duration("infer-timeout", 0, "per-inference deadline, fused batches included (0 disables)")
	flag.Parse()

	// Negative tuning values are configuration mistakes, not requests
	// for a default: fail loudly instead of silently clamping.
	if *pipeline < 0 {
		log.Fatalf("-pipeline %d: must be >= 0 (0 selects the default depth %d, 1 is serial)", *pipeline, deepsecure.DefaultPipelineDepth)
	}
	if *otPool < 0 {
		log.Fatalf("-ot-pool %d: must be >= 0 (0 sizes the pool from the model)", *otPool)
	}
	if *workers < 0 {
		log.Fatalf("-workers %d: must be >= 0 (0 selects GOMAXPROCS, 1 is sequential)", *workers)
	}
	if *statsEvery < 0 {
		log.Fatalf("-stats %v: must be >= 0 (0 disables the stats line)", *statsEvery)
	}

	net0, err := benchmarks.ByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	net0.InitWeights(rand.New(rand.NewSource(*seed)))

	start := time.Now()
	poolCfg := deepsecure.PoolConfig{Capacity: *otPool, Background: true}
	admCfg := deepsecure.AdmissionConfig{
		MaxActive:    *maxSessions,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		RetryAfter:   *retryAfter,
		MaxP99:       *maxP99,
	}
	if err := admCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	deadlines := deepsecure.DeadlineConfig{
		Handshake: *handshakeTimeout,
		OTSetup:   *otSetupTimeout,
		Inference: *inferTimeout,
	}
	if err := deadlines.Validate(); err != nil {
		log.Fatal(err)
	}
	engine := deepsecure.EngineConfig{Workers: *workers, Pipeline: *pipeline, Deadlines: deadlines}
	srv, err := deepsecure.NewServer(net0, deepsecure.DefaultFormat,
		deepsecure.WithEngine(engine),
		deepsecure.WithIdleTimeout(idleTimeout),
		deepsecure.WithOTPool(poolCfg),
		deepsecure.WithAdmission(admCfg))
	if err != nil {
		log.Fatal(err)
	}
	srv.Logf = log.Printf
	andGates, totalGates := srv.ProgramStats()
	log.Printf("compiled %s netlist in %v: %d gates (%d non-XOR)",
		net0.Arch(), time.Since(start).Round(time.Millisecond), totalGates, andGates)
	depth := engine.PipelineDepth()
	eff := poolCfg.Sized(len(nn.WeightBits(net0, deepsecure.DefaultFormat)), depth)
	log.Printf("OT pool: %d weight-keyed OTs per session at setup, refill below %d", eff.Capacity, eff.RefillLowWater)
	fanout := *workers
	if fanout == 0 {
		fanout = runtime.GOMAXPROCS(0)
	}
	log.Printf("engine pool: shared work-stealing scheduler, %d worker(s) process-wide, per-session fan-out %d",
		sched.Default().Workers(), fanout)
	if admCfg.Enabled() {
		log.Printf("admission control on: %d active session(s) max, queue %d (timeout %v), retry-after %v, p99 guard %v",
			admCfg.MaxActive, admCfg.MaxQueue, *queueTimeout, *retryAfter, *maxP99)
	}
	if deadlines != (deepsecure.DeadlineConfig{}) {
		log.Printf("phase deadlines on: handshake %v, ot-setup %v, inference %v (0 = unbounded)",
			deadlines.Handshake, deadlines.OTSetup, deadlines.Inference)
	}
	if depth == 1 {
		log.Printf("cross-inference pipelining off: inferences on a session run serially")
	} else {
		log.Printf("cross-inference pipelining on: up to %d inference(s) in flight per session", depth)
	}
	log.Printf("batched inference: up to %d sample(s) per fused InferBatch call", engine.MaxBatchSize())
	if deepsecure.WideHashAvailable() {
		log.Printf("garbling hash core: 8-block pipelined AES-NI kernel")
	} else {
		log.Printf("garbling hash core: portable crypto/aes fallback (no AES-NI or purego build)")
	}

	if *metricsAddr != "" {
		mux := obs.ServeMux(obs.Default, *pprofOn)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics endpoint failed: %v", err)
			}
		}()
		if *pprofOn {
			log.Printf("metrics on http://%s/metrics (JSON at /debug/stats, profiles at /debug/pprof/)", *metricsAddr)
		} else {
			log.Printf("metrics on http://%s/metrics (JSON at /debug/stats)", *metricsAddr)
		}
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("stats: %s", obs.ServingLine(obs.Default.Snapshot()))
			}
		}()
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("shutting down (draining up to %v; interrupt again to force)", drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		go func() {
			<-sigs
			srv.Close()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("forced shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s", *listen)
	if err := srv.ListenAndServe(*listen); err != nil && err != deepsecure.ErrServerClosed {
		log.Fatal(err)
	}
	st := srv.Stats()
	log.Printf("served %d session(s), %d inference(s) total", st.Sessions, st.Inferences)
	log.Printf("final: %s", obs.ServingLine(obs.Default.Snapshot()))
}

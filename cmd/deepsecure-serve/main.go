// deepsecure-serve is the long-lived secure-inference daemon: it compiles
// the model's GC netlist once, then serves concurrent multi-inference
// sessions over TCP until interrupted.
//
//	deepsecure-serve -listen :9090 -model b3
//
// Clients connect with deepsecure.OpenSession / deepsecure.InferMany (or
// the deepsecure-demo client for a quick smoke test) and run any number
// of inferences per connection; the handshake is paid once per session,
// the OT base phase and the set-up OT of the weight labels once per
// client–server pair (a Client's repeat sessions run no OT), and the netlist
// is compiled once, at start-up, into the level schedule every session
// walks, shared read-only.
// SIGINT/SIGTERM triggers a graceful drain; a second signal force-closes.
//
// The model's weights are a fixed random initialization (seed 1), so a
// client's labels repeat from daemon to daemon. Sessions run the library's
// engine defaults: a fan-out of GOMAXPROCS on the shared scheduler and
// DefaultPipelineDepth inferences in flight. The flags set the deployment
// (-listen, -model), admission control (-max-sessions, -max-queue,
// -queue-timeout, -retry-after), the phase deadlines (-handshake-timeout,
// -ot-setup-timeout, -infer-timeout) and the operational surface
// (-metrics-addr, -pprof, -stats).
package main

import (
	"context"
	"flag"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
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

// idleTimeout reaps a session whose client has sent no awaited frame, or
// drained no answer, for this long (DeadlineConfig.Idle).
const idleTimeout = 2 * time.Minute

func main() {
	listen := flag.String("listen", ":9090", "listen address")
	model := flag.String("model", "small", "b1|b2|b3|b4|small")
	statsEvery := flag.Duration("stats", time.Minute, "stats log interval (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/stats (JSON) on this address (empty disables)")
	pprofOn := flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the metrics address")
	maxSessions := flag.Int("max-sessions", 0, "admission control: max concurrent sessions in the protocol (0 disables admission)")
	maxQueue := flag.Int("max-queue", 0, "admission control: max sessions waiting for a slot before new arrivals are shed")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "admission control: max wait in the queue before a session is shed")
	retryAfter := flag.Duration("retry-after", time.Second, "admission control: backoff hint sent with busy responses")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "per-session handshake deadline (0 disables)")
	otSetupTimeout := flag.Duration("ot-setup-timeout", 0, "per-session OT-setup deadline (0 disables)")
	inferTimeout := flag.Duration("infer-timeout", 0, "per-inference deadline, fused batches included (0 disables)")
	flag.Parse()

	// A negative interval is a configuration mistake, not a request for
	// a default: fail loudly instead of silently clamping.
	if *statsEvery < 0 {
		log.Fatalf("-stats %v: must be >= 0 (0 disables the stats line)", *statsEvery)
	}

	net0, err := benchmarks.ByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	net0.InitWeights(rand.New(rand.NewSource(1)))

	start := time.Now()
	admCfg := deepsecure.AdmissionConfig{
		MaxActive:    *maxSessions,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		RetryAfter:   *retryAfter,
	}
	if err := admCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	deadlines := deepsecure.DeadlineConfig{
		Handshake: *handshakeTimeout,
		OTSetup:   *otSetupTimeout,
		Inference: *inferTimeout,
		Idle:      idleTimeout,
	}
	if err := deadlines.Validate(); err != nil {
		log.Fatal(err)
	}
	engine := deepsecure.EngineConfig{Deadlines: deadlines}
	srv, err := deepsecure.NewServer(net0, deepsecure.DefaultFormat,
		deepsecure.WithEngine(engine),
		deepsecure.WithAdmission(admCfg))
	if err != nil {
		log.Fatal(err)
	}
	srv.Logf = log.Printf
	andGates, totalGates := srv.ProgramStats()
	log.Printf("compiled %s netlist in %v: %d gates (%d non-XOR)",
		net0.Arch(), time.Since(start).Round(time.Millisecond), totalGates, andGates)
	log.Printf("weight labels: %d OTs per session, once, at set-up", len(nn.WeightBits(net0, deepsecure.DefaultFormat)))
	log.Printf("engine pool: shared work-stealing scheduler, %d worker(s) process-wide",
		sched.Default().Workers())
	if admCfg.Enabled() {
		log.Printf("admission control on: %d active session(s) max, queue %d (timeout %v), retry-after %v",
			admCfg.MaxActive, admCfg.MaxQueue, *queueTimeout, *retryAfter)
	}
	log.Printf("phase deadlines: handshake %v, ot-setup %v, inference %v (0 = unbounded), idle %v",
		deadlines.Handshake, deadlines.OTSetup, deadlines.Inference, deadlines.Idle)
	log.Printf("batched inference: up to %d sample(s) per fused InferBatch call", engine.MaxBatchSize())
	if deepsecure.WideHashAvailable() {
		log.Printf("gate kernel: amd64 assembly (AES-NI, SSSE3)")
	} else {
		log.Printf("gate kernel: Go over crypto/aes (no AES-NI and SSSE3, or a purego build)")
	}

	if *metricsAddr != "" {
		mux := obs.ServeMux(obs.Root, *pprofOn)
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
				log.Printf("stats: %s", obs.ServingLine(obs.Root))
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
	log.Printf("final: %s", obs.ServingLine(obs.Root))
}

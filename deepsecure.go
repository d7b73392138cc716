// Package deepsecure is the public API of this DeepSecure reproduction
// (Rouhani, Riazi, Koushanfar — "DeepSecure: Scalable Provably-Secure
// Deep Learning", DAC 2018): privacy-preserving neural-network inference
// with Yao's garbled circuits, where the client's data and the server's
// model parameters both stay private and only the client learns the
// inference label.
//
// The typical flow mirrors the paper's Fig. 2:
//
//	net, _ := deepsecure.NewNetwork(deepsecure.Vec(617),
//	    deepsecure.NewDense(50),
//	    deepsecure.NewActivation(deepsecure.TanhCORDIC),
//	    deepsecure.NewDense(26))
//	// ... train net, optionally project + prune ...
//	clientConn, serverConn := deepsecure.Pipe()
//	go deepsecure.Serve(serverConn, net, deepsecure.DefaultFormat)
//	label, stats, _ := deepsecure.Infer(clientConn, sample)
//
// The heavy lifting lives in the internal packages (circuit, stdcell, gc,
// ot, netgen, core, ...); this package re-exports the surface a
// downstream user needs.
package deepsecure

import (
	"io"
	"net/http"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/project"
	"deepsecure/internal/prune"
	"deepsecure/internal/server"
	"deepsecure/internal/train"
	"deepsecure/internal/transport"
)

// Re-exported model-building types and constructors.
type (
	// Network is a bound stack of DL layers (Table 1).
	Network = nn.Network
	// Shape is a (channels, height, width) tensor shape.
	Shape = nn.Shape
	// Layer is one network stage.
	Layer = nn.Layer
	// Format is the fixed-point encoding used inside the circuits.
	Format = fixed.Format
	// ActKind selects a non-linearity realization (Table 3).
	ActKind = act.Kind
	// Stats reports gate counts of a generated netlist.
	Stats = circuit.Stats
	// InferStats summarizes one secure inference.
	InferStats = core.Stats
	// TrainConfig controls SGD training.
	TrainConfig = train.Config
	// ProjectConfig controls the data-projection pre-processing (Alg. 1).
	ProjectConfig = project.Config
	// ProjectResult carries the fitted projection and retrained model.
	ProjectResult = project.Result
	// PruneReport summarizes a prune-and-retrain pass.
	PruneReport = prune.Report
	// Conn is the framed two-party channel the protocol runs over.
	Conn = transport.Conn
	// Client caches compiled netlists across sessions against the same
	// model and sources protocol randomness.
	Client = core.Client
	// Session is an open multi-inference protocol session (client side):
	// one handshake, one OT base phase, one netlist compilation, many
	// inferences — pipelined across the in-flight window when the
	// session uses Session.InferAsync (or InferMany, which does).
	Session = core.Session
	// PendingInference is an inference whose garbled stream is on the
	// wire but whose result may not have returned yet; Wait blocks until
	// it has. Returned by Session.InferAsync, the cross-inference
	// pipelining primitive.
	PendingInference = core.PendingInference
	// PendingBatch is a batched inference whose fused garbled stream is
	// on the wire but whose results may not have returned yet; Wait
	// blocks until they have. Returned by Session.InferBatchAsync.
	PendingBatch = core.PendingBatch
	// InferenceServer is a concurrent network service answering secure
	// inference sessions with one shared compiled netlist.
	InferenceServer = server.Server
	// ServerStats is a snapshot of an InferenceServer's counters.
	ServerStats = server.Stats
	// EngineConfig tunes the level-scheduled execution engine: Workers
	// sets the garble/evaluate pool size (0 derives it from GOMAXPROCS,
	// 1 is the sequential mode), Pipeline the cross-inference in-flight
	// window (0 defaults to DefaultPipelineDepth, 1 is serial; a server
	// evaluates a session's inferences in begin order whatever the
	// window), and MaxBatch the batched-inference sample cap (0 defaults
	// to DefaultMaxBatch). Garbled tables stream in 1 MiB chunks of whole
	// levels under any configuration. Set it on a Client, or pass it to
	// NewServer via WithEngine.
	EngineConfig = core.EngineConfig
	// PoolConfig sizes the offline OT pool every session transfers its
	// weight labels through (chosen-choice OTs keyed to the model's weight
	// bits) — a session's only offline work, since every inference is
	// garbled online: Capacity OTs are bulk-generated at session setup and refilled
	// once fewer than RefillLowWater remain unassigned; Background starts
	// the refill crypto on a helper goroutine the moment a refill is
	// decided. The zero value sizes the pool from the model: its weight
	// bits × the in-flight window. Set it on a SessionServer, or pass it
	// to NewServer via WithOTPool; clients need no configuration (they
	// follow the server's in-band announcement).
	PoolConfig = precomp.PoolConfig
	// SessionServer answers secure-inference sessions on caller-provided
	// connections (the conn-level counterpart of InferenceServer) with
	// explicit randomness, engine, and OT-pool configuration.
	SessionServer = core.Server
	// ServerOption configures NewServer / ListenAndServe.
	ServerOption = server.Option
	// AdmissionConfig tunes the server's global admission controller:
	// at most MaxActive sessions in the protocol at once, up to
	// MaxQueue more waiting (bounded by QueueTimeout), and an optional
	// windowed-p99 latency guard (MaxP99). Anything past the limits is
	// refused with a protocol busy frame carrying RetryAfter, the whole
	// refusal bounded at 2 s against a slow or silent peer. Pass it
	// to NewServer via WithAdmission; the zero value disables
	// admission.
	AdmissionConfig = server.AdmissionConfig
	// BusyError is returned by NewSession/Infer when the server sheds
	// the session at admission: back off at least RetryAfter, then
	// retry on a fresh connection. Detect it with errors.As.
	BusyError = core.BusyError
	// PoolMismatchError is returned by NewSession when the server's OT
	// pool is keyed for a different number of weight bits than the
	// client's compiled netlist takes. Detect it with errors.As.
	PoolMismatchError = core.PoolMismatchError
	// ProgramMismatchError is returned by NewSession when the server
	// evaluates another netlist than the client compiles from the same
	// architecture (two builds whose generators differ): permanent, not
	// retried. Detect it with errors.As.
	ProgramMismatchError = core.ProgramMismatchError
)

// Server construction options.
var (
	// WithEngine selects the execution-engine configuration for every
	// session the server answers, the in-flight window (Pipeline) and the
	// batch cap (MaxBatch) it announces and enforces included.
	WithEngine = server.WithEngine
	// WithIdleTimeout bounds how long a session connection may sit idle
	// between reads before it is reaped.
	WithIdleTimeout = server.WithIdleTimeout
	// WithOTPool sizes the offline OT pool every session precomputes at
	// setup and refills between inferences, leaving one masked-label
	// frame per input step, and no reply, on the critical path.
	WithOTPool = server.WithOTPool
	// WithAdmission installs the global admission controller: sessions
	// past the configured limits are refused with a busy frame (clients
	// see *BusyError) instead of degrading every admitted session.
	WithAdmission = server.WithAdmission
)

// DefaultPipelineDepth is the in-flight window used when
// EngineConfig.Pipeline is zero.
const DefaultPipelineDepth = core.DefaultPipelineDepth

// DefaultMaxBatch is the batched-inference sample cap used when
// EngineConfig.MaxBatch is zero.
const DefaultMaxBatch = core.DefaultMaxBatch

// DefaultFormat is the paper's 1-sign/3-integer/12-fraction encoding.
var DefaultFormat = fixed.Default

// ErrServerClosed is returned by InferenceServer.Serve and ListenAndServe
// after Shutdown or Close (the net/http contract).
var ErrServerClosed = server.ErrServerClosed

// Layer constructors.
var (
	NewNetwork    = nn.NewNetwork
	NewDense      = nn.NewDense
	NewConv2D     = nn.NewConv2D
	NewActivation = nn.NewActivation
	NewMaxPool2D  = nn.NewMaxPool2D
	NewMeanPool2D = nn.NewMeanPool2D
	Vec           = nn.Vec
)

// Activation realizations (Table 3).
const (
	ReLU          = act.ReLU
	TanhLUT       = act.TanhLUT
	TanhTrunc     = act.TanhTrunc
	TanhPL        = act.TanhPL
	TanhCORDIC    = act.TanhCORDIC
	SigmoidLUT    = act.SigmoidLUT
	SigmoidTrunc  = act.SigmoidTrunc
	SigmoidPLAN   = act.SigmoidPLAN
	SigmoidCORDIC = act.SigmoidCORDIC
)

// Pipe returns two connected in-memory protocol channels (client end,
// server end) plus a closer.
func Pipe() (*Conn, *Conn, io.Closer) { return transport.Pipe() }

// NewConn wraps any reliable byte stream (e.g. a *net.TCPConn) as a
// protocol channel.
func NewConn(rw io.ReadWriter) *Conn { return transport.New(rw) }

// Serve answers one secure-inference session on conn with the private
// model (the cloud-server role, Fig. 3). The client learns only the
// label; the server learns nothing about the data or the result. The
// session runs as many inferences as the client asks for before closing.
func Serve(conn *Conn, net *Network, f Format) error {
	s := &core.Server{Net: net, Fmt: f}
	return s.Serve(conn)
}

// Infer runs one secure inference against a server (the client role) and
// returns the inference label.
func Infer(conn *Conn, x []float64) (int, *InferStats, error) {
	c := &core.Client{}
	return c.Infer(conn, x)
}

// InferMany classifies every sample over ONE session on conn: the
// handshake, OT base phase, and netlist compilation are paid once and
// amortized over all inferences, and consecutive inferences pipeline
// across the session's in-flight window (inference k+1 garbles while
// inference k's output round-trip and evaluation tail are pending),
// with results streaming in, in order, as they complete. Returned stats
// are session totals.
func InferMany(conn *Conn, xs [][]float64) ([]int, *InferStats, error) {
	c := &core.Client{}
	return c.InferMany(conn, xs)
}

// InferBatch classifies every sample in ONE fused batched inference:
// one session, one schedule walk, one interleaved garbled-table stream,
// and one masked-label frame per input step for the whole batch — the embarrassingly parallel same-model
// serving pattern. len(xs) must fit the negotiated batch cap
// (DefaultMaxBatch unless configured via EngineConfig.MaxBatch on either
// side); batching composes with pipelining, so larger workloads
// can split into several InferBatch calls on an open Session. Returned
// stats are session totals.
func InferBatch(conn *Conn, xs [][]float64) ([]int, *InferStats, error) {
	c := &core.Client{}
	return c.InferBatch(conn, xs)
}

// OpenSession opens a multi-inference session on conn. The caller runs
// any number of Session.Infer calls and must Close the session (the
// underlying connection stays open and owned by the caller). Each call
// uses a fresh Client; to also reuse the client-side compiled netlist
// across reconnects, create one Client and call its NewSession instead.
func OpenSession(conn *Conn) (*Session, error) {
	c := &Client{}
	return c.NewSession(conn)
}

// NewServer builds a concurrent inference server around the private
// model, compiling the inference netlist and its level schedule once up
// front; every client session executes the same program with fresh
// labels. Start it with ListenAndServe, Serve, or ServeContext, stop it
// with Shutdown or Close. Options tune the execution engine and session
// policies (WithEngine, WithIdleTimeout).
func NewServer(net *Network, f Format, opts ...ServerOption) (*InferenceServer, error) {
	return server.New(net, f, opts...)
}

// ListenAndServe compiles the model's netlist and serves secure
// inference sessions on addr until the process exits (the
// net/http-style convenience entry point).
func ListenAndServe(addr string, net *Network, f Format, opts ...ServerOption) error {
	srv, err := server.New(net, f, opts...)
	if err != nil {
		return err
	}
	return srv.ListenAndServe(addr)
}

// ServeOutsourced and friends expose the §3.3 constrained-client mode.
func ServeOutsourced(proxyConn, clientConn *Conn, net *Network, f Format) error {
	s := &core.Server{Net: net, Fmt: f}
	return s.ServeOutsourced(proxyConn, clientConn)
}

// RunProxy garbles on behalf of a constrained client (§3.3).
func RunProxy(clientConn, serverConn *Conn) error {
	p := &core.Proxy{}
	return p.Run(clientConn, serverConn)
}

// InferOutsourced is the constrained-client side: XOR-share the input
// between proxy and server, receive the two decode halves back.
func InferOutsourced(proxyConn, serverConn *Conn, x []float64) (int, *InferStats, error) {
	c := &core.Client{}
	return c.InferOutsourced(proxyConn, serverConn, x)
}

// Train fits the network with SGD (cross-entropy loss).
func Train(net *Network, xs [][]float64, ys []int, cfg TrainConfig) (float64, error) {
	return train.Run(net, xs, ys, cfg)
}

// DefaultTrainConfig returns a small-scale training configuration.
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// Accuracy returns classification accuracy of the float forward pass.
func Accuracy(net *Network, xs [][]float64, ys []int) float64 {
	return train.Accuracy(net, xs, ys)
}

// ProjectFit runs the data-projection pre-processing (Alg. 1): it returns
// the public projection basis and the model retrained on embeddings.
func ProjectFit(trainX [][]float64, trainY []int, valX [][]float64, valY []int,
	cfg ProjectConfig, factory func(inputDim int) (*Network, error)) (*ProjectResult, error) {
	return project.Fit(trainX, trainY, valX, valY, cfg, factory)
}

// DefaultProjectConfig returns the harness settings for Alg. 1.
func DefaultProjectConfig() ProjectConfig { return project.DefaultConfig() }

// Prune applies magnitude pruning followed by retraining (§3.2.2),
// leaving the public sparsity map installed on the network.
func Prune(net *Network, fraction float64, trainX [][]float64, trainY []int,
	valX [][]float64, valY []int, cfg TrainConfig) (*PruneReport, error) {
	return prune.Run(net, fraction, trainX, trainY, valX, valY, cfg)
}

// NetlistStats counts the gates of the model's secure-inference netlist
// without executing anything (Table 2's inputs).
func NetlistStats(net *Network, f Format) (Stats, error) {
	s, _, err := netgen.FastCount(net, f, netgen.Options{})
	return s, err
}

// WideHashAvailable reports whether the 8-block pipelined AES-NI garbling
// hash kernel is active on this machine (amd64 with AES-NI, not built
// with the purego tag). When false, garbling runs on the portable
// crypto/aes fallback — same bytes, lower throughput.
func WideHashAvailable() bool { return gc.WideAvailable() }

// MetricsHandler serves the process-wide metrics registry — per-phase
// latency histograms, session/inference/batch totals, OT pool depth, per-direction byte counters — in Prometheus text
// exposition format (the /metrics endpoint). Every connection, session,
// inference and server in the process records in a ledger that adds up
// to this registry — the same ledgers InferStats and ServerStats are read
// from — in client processes as in server ones, so mounting this handler
// is the only wiring a host process needs.
func MetricsHandler() http.Handler { return obs.MetricsHandler(obs.Default) }

// LiveStatsHandler serves the same registry as a JSON snapshot:
// one object keyed by series, histograms summarized as
// count/sum/mean/p50/p95/p99 (the /debug/stats endpoint).
func LiveStatsHandler() http.Handler { return obs.StatsHandler(obs.Default) }

// MetricsMux bundles the operational endpoints into one mux:
// /metrics (Prometheus text), /debug/stats (JSON), and — opt-in,
// because profiles leak timing detail — net/http/pprof under
// /debug/pprof/.
func MetricsMux(withPprof bool) http.Handler { return obs.ServeMux(obs.Default, withPprof) }

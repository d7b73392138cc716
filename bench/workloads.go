package main

import (
	"math/rand"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/nn"
)

// A workload is one traffic shape against one model. All four are closed
// loops: a client issues its next operation when the previous one (or, on
// mlp_wan, the oldest in its window) has returned.
type workload struct {
	name, why string
	model     func() (*nn.Network, error)
	// otPool is the server's random-OT pool capacity per session.
	otPool int
	// delay is the one-way link delay in each direction (0 = bare loopback).
	delay time.Duration
	// batch is the number of samples one operation fuses through
	// Session.InferBatch; 1 means a plain Session.Infer.
	batch int
	// async keeps the session's negotiated window full with InferAsync.
	async bool
	// churn > 0 makes every operation a whole session — dial, NewSession,
	// one Infer, Close — issued by that many concurrent clients sharing one
	// core.Client. 0 means one client on one long-lived session.
	churn int
	// setups is how many times a run sets the workload up from nothing;
	// setup_s is their median.
	setups int
	// paperScale marks the workload that is too large to repeat within the
	// limits BENCHMARK.json is run under (16 s of set-up, 4 s operations,
	// 3 GB resident): it is not listed there nor run by -workload all, only
	// by name, for the row the README sets beside the paper's.
	paperScale bool
}

// weightSeed fixes the model weights; only the inputs follow --seed.
const weightSeed = 20180624

func mlp(in, hidden, out int, kind act.Kind) func() (*nn.Network, error) {
	return func() (*nn.Network, error) {
		return nn.NewNetwork(nn.Vec(in),
			nn.NewDense(hidden), nn.NewActivation(kind), nn.NewDense(out))
	}
}

// Every listed workload runs a model of 30–165 thousand AND gates: its
// tables and wire labels stay within a few megabytes, so an operation's
// time follows the code and not how much memory bandwidth the host's other
// tenants leave (a 1.3 M-AND model's operations moved by 25 % over minutes
// on the same code, see README.md).
var workloads = []workload{
	{
		name:   "tanh_lan",
		why:    "B3's layer mix (FC, Tanh by CORDIC, FC) at 1/30 of compacted B3's gates, one long session, serial Infer on loopback: gc kernels and table streaming dominate; round trips do not",
		model:  mlp(16, 8, 4, act.TanhCORDIC),
		otPool: 65536, batch: 1, setups: 7,
	},
	{
		name:   "mlp_wan",
		why:    "small MLP over a 25 ms one-way link, InferAsync keeping the window full: round-trip-bound, so only saved flights and pipelining move it; kernel speed must not",
		model:  mlp(16, 8, 4, act.ReLU),
		otPool: 65536, delay: 25 * time.Millisecond, batch: 1, async: true, setups: 7,
	},
	{
		name:   "mlp_batch16",
		why:    "InferBatch with 16 samples per operation on loopback: the SoA batch kernel and batch engines instead of the single stream that tanh_lan uses",
		model:  mlp(16, 8, 4, act.ReLU),
		otPool: 65536, batch: 16, setups: 7,
	},
	{
		name:   "mlp_churn",
		why:    "two clients opening a fresh session per inference: handshake, OT base phase, pool fill and accept dominate; the gate kernel is a minor share",
		model:  mlp(8, 4, 2, act.ReLU),
		otPool: 4096, batch: 1, churn: 2, setups: 7,
	},
	{
		name:   "b3c_lan",
		why:    "paper-scale compacted B3 (5.0M AND), one long session, serial Infer on loopback: the row set beside the paper's Table 5",
		model:  func() (*nn.Network, error) { return benchmarks.Compacted(benchmarks.All[2]) },
		otPool: 65536, batch: 1, setups: 1, paperScale: true,
	},
}

// forSmoke returns the workload cut down for the smoke test: two-sample
// batches, one set-up, a 4096-OT pool and a 2 ms link.
func (w *workload) forSmoke() *workload {
	c := *w
	c.batch = min(c.batch, 2)
	c.setups = 1
	c.otPool = min(c.otPool, 4096)
	c.delay = min(c.delay, 2*time.Millisecond)
	return &c
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// buildModel returns the workload's network with its fixed weights.
func (w *workload) buildModel() (*nn.Network, error) {
	net, err := w.model()
	if err != nil {
		return nil, err
	}
	net.InitWeights(rand.New(rand.NewSource(weightSeed)))
	return net, nil
}

// inputs returns the samples of operation op: a pure function of the run's
// seed and the operation index, so a failure can be replayed from the
// (workload, op, seed) triple the report lists.
func inputs(seed int64, op, batch, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(op)))
	xs := make([][]float64, batch)
	for s := range xs {
		xs[s] = make([]float64, dim)
		for j := range xs[s] {
			xs[s][j] = rng.Float64()*2 - 1
		}
	}
	return xs
}

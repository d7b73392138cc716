// Package benchmarks defines the paper's four evaluation benchmarks
// (§4.5) at their exact architectures, together with the published
// Table 4/Table 5 reference numbers, so the harness can print
// paper-vs-measured rows for every experiment.
package benchmarks

import (
	"fmt"
	"math/rand"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
)

// Paper holds the published reference numbers for one benchmark row.
type Paper struct {
	XOR, NonXOR  float64 // Table 4 gate counts
	CommMB       float64
	CompS, ExecS float64
	Compaction   float64 // Table 5 "data and network compaction" fold
	PostXOR      float64 // Table 5 gate counts after pre-processing
	PostNonXOR   float64
	PostExecS    float64
	Improvement  float64
}

// Benchmark is one §4.5 benchmark.
type Benchmark struct {
	Name  string
	Arch  string
	Build func() (*nn.Network, error)
	// ProjDim and Density are the compaction parameters that reproduce
	// the paper's Table 5 fold: the input is projected to ProjDim
	// dimensions (0 = no projection; convolutional benchmark 1 uses
	// pruning only) and weights are pruned to the given density.
	ProjDim int
	Density float64
	Paper   Paper
}

// Format is the evaluation fixed-point format (§4.2): 1 sign, 3 integer,
// 12 fraction bits.
var Format = fixed.Default

// B1 is the paper's benchmark 1: 28×28-5C2-ReLu-100FC-ReLu-10FC (the
// CryptoNets MNIST CNN).
func B1() (*nn.Network, error) {
	return nn.NewNetwork(nn.Shape{C: 1, H: 28, W: 28},
		nn.NewConv2D(5, 5, 2, 1),
		nn.NewActivation(act.ReLU),
		nn.NewDense(100),
		nn.NewActivation(act.ReLU),
		nn.NewDense(10),
	)
}

// B2 is LeNet-300-100 with Sigmoid non-linearities (benchmark 2).
func B2() (*nn.Network, error) {
	return nn.NewNetwork(nn.Vec(784),
		nn.NewDense(300),
		nn.NewActivation(act.SigmoidCORDIC),
		nn.NewDense(100),
		nn.NewActivation(act.SigmoidCORDIC),
		nn.NewDense(10),
	)
}

// B3 is the 617-50-26 audio DNN with Tanh (benchmark 3).
func B3() (*nn.Network, error) {
	return nn.NewNetwork(nn.Vec(617),
		nn.NewDense(50),
		nn.NewActivation(act.TanhCORDIC),
		nn.NewDense(26),
	)
}

// B4 is the 5625-2000-500-19 smart-sensing DNN with Tanh (benchmark 4).
func B4() (*nn.Network, error) {
	return nn.NewNetwork(nn.Vec(5625),
		nn.NewDense(2000),
		nn.NewActivation(act.TanhCORDIC),
		nn.NewDense(500),
		nn.NewActivation(act.TanhCORDIC),
		nn.NewDense(19),
	)
}

// ByName builds the model the command-line tools call name: b1..b4, or
// small, a 32-16FC-TanhCORDIC-4FC network that infers in a fraction of a
// second. A daemon and the client driving it must agree on it, so both
// ask here.
func ByName(name string) (*nn.Network, error) {
	switch name {
	case "b1":
		return B1()
	case "b2":
		return B2()
	case "b3":
		return B3()
	case "b4":
		return B4()
	case "small":
		return nn.NewNetwork(nn.Vec(32),
			nn.NewDense(16),
			nn.NewActivation(act.TanhCORDIC),
			nn.NewDense(4),
		)
	default:
		return nil, fmt.Errorf("unknown model %q (want b1|b2|b3|b4|small)", name)
	}
}

// All lists the four benchmarks with the paper's published rows.
var All = []Benchmark{
	{
		Name: "Benchmark 1", Arch: "28x28-5C2-ReLu-100FC-ReLu-10FC", Build: B1,
		ProjDim: 0, Density: 1.0 / 9.0,
		Paper: Paper{XOR: 4.31e7, NonXOR: 2.47e7, CommMB: 791, CompS: 1.98, ExecS: 9.67,
			Compaction: 9, PostXOR: 4.81e6, PostNonXOR: 2.76e6, PostExecS: 1.08, Improvement: 8.95},
	},
	{
		Name: "Benchmark 2", Arch: "784-300FC-Sigmoid-100FC-Sigmoid-10FC", Build: B2,
		ProjDim: 196, Density: 1.0 / 3.0,
		Paper: Paper{XOR: 1.09e8, NonXOR: 6.23e7, CommMB: 1990, CompS: 4.99, ExecS: 24.37,
			Compaction: 12, PostXOR: 1.21e7, PostNonXOR: 6.57e6, PostExecS: 2.57, Improvement: 9.48},
	},
	{
		Name: "Benchmark 3", Arch: "617-50FC-Tanh-26FC", Build: B3,
		ProjDim: 206, Density: 0.5,
		Paper: Paper{XOR: 1.32e7, NonXOR: 7.54e6, CommMB: 241, CompS: 0.60, ExecS: 2.95,
			Compaction: 6, PostXOR: 2.51e6, PostNonXOR: 1.40e6, PostExecS: 0.56, Improvement: 5.27},
	},
	{
		Name: "Benchmark 4", Arch: "5625-2000FC-Tanh-500FC-Tanh-19FC", Build: B4,
		ProjDim: 469, Density: 0.1,
		Paper: Paper{XOR: 4.89e9, NonXOR: 2.81e9, CommMB: 89800, CompS: 224.50, ExecS: 1098.3,
			Compaction: 120, PostXOR: 6.28e7, PostNonXOR: 3.39e7, PostExecS: 13.26, Improvement: 82.83},
	},
}

// Compacted builds the benchmark's pre-processed variant (Table 5): the
// first dense layer's input shrinks to ProjDim (data projection) and each
// parameter layer is masked to the target density (network pruning). The
// sparsity pattern is a deterministic pseudo-random mask — the *count* is
// what determines gate numbers; the measured compaction ratios come from
// the pre-processing pipeline run on the synthetic datasets
// (examples/preprocessing).
func Compacted(b Benchmark) (*nn.Network, error) {
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	if b.ProjDim > 0 {
		net, err = reinput(net, b.ProjDim)
		if err != nil {
			return nil, err
		}
	}
	if b.Density < 1 {
		rng := rand.New(rand.NewSource(515151))
		for _, p := range net.ParamLayers() {
			_, mask := p.Weights()
			for i := range mask {
				mask[i] = rng.Float64() < b.Density
			}
		}
	}
	return net, nil
}

// reinput rebuilds a dense-input network with a smaller input dimension
// (the condensed architecture the server retrains after projection).
func reinput(net *nn.Network, projDim int) (*nn.Network, error) {
	if net.In.H != 1 && net.In.C != 1 {
		return nil, fmt.Errorf("benchmarks: cannot re-project non-flat input %v", net.In)
	}
	layers := make([]nn.Layer, 0, len(net.Layers))
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			layers = append(layers, nn.NewDense(v.OutN))
		case *nn.Activation:
			layers = append(layers, nn.NewActivation(v.Kind))
		default:
			return nil, fmt.Errorf("benchmarks: unsupported layer %T under projection", l)
		}
	}
	return nn.NewNetwork(nn.Vec(projDim), layers...)
}

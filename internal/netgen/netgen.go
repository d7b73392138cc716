// Package netgen turns a neural network into a GC netlist (paper §3.1
// step "GC netlist generation" and the modular layer structure of §3.6).
//
// Generation is deterministic given the public model Spec (architecture +
// sparsity maps + fixed-point format): the client and the server each run
// Generate against their own builder/sink and traverse byte-identical gate
// streams, which is what lets the garbler and evaluator operate in
// lockstep without ever exchanging the netlist itself.
//
// The generator emits Drop/scope events so that, with a recycling builder,
// the live wire set stays proportional to the widest layer rather than the
// total gate count — the sequential-circuit memory footprint of §3.5.
// Pruned (masked) weights are skipped entirely: no input wire, no
// multiplier, no adder (§3.2.2's sparsity savings).
package netgen

import (
	"fmt"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/stdcell"
)

// Options configures netlist generation.
type Options struct {
	// Outsourced prepends the XOR-share recombination layer (§3.3): the
	// garbler (proxy) holds share s, the evaluator (main server) holds
	// x ⊕ s, and one layer of free XOR gates reconstructs x in-circuit.
	Outsourced bool
	// RawScores outputs the final-layer score words instead of the argmax
	// label index (used by tests to compare against ForwardFixed).
	RawScores bool
}

// Layout reports the input/output wire accounting of a generated netlist,
// in protocol order.
type Layout struct {
	DataBits   int // garbler inputs: the (projected) data sample — or the proxy's share when outsourced
	ShareBits  int // evaluator inputs before weights: x⊕s share (outsourced mode only)
	WeightBits int // evaluator inputs: quantized active weights + biases
	OutputBits int
}

// Generate walks the network and emits the complete inference netlist.
// Weight VALUES are never consulted — only shapes and masks — so a
// spec-built weightless network generates the identical netlist.
func Generate(b *circuit.Builder, net *nn.Network, f fixed.Format, opt Options) (*Layout, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	lay := &Layout{}
	bits := f.Bits()
	n := net.In.Len()

	// Input declaration (+ share recombination when outsourced).
	var x []stdcell.Word
	if opt.Outsourced {
		s := inputWords(b, circuit.Garbler, n, bits)
		tw := inputWords(b, circuit.Evaluator, n, bits)
		lay.DataBits = n * bits
		lay.ShareBits = n * bits
		x = make([]stdcell.Word, n)
		for i := 0; i < n; i++ {
			x[i] = make(stdcell.Word, bits)
			for k := 0; k < bits; k++ {
				x[i][k] = b.XOR(s[i][k], tw[i][k])
			}
		}
		dropWords(b, s)
		dropWords(b, tw)
	} else {
		x = inputWords(b, circuit.Garbler, n, bits)
		lay.DataBits = n * bits
	}

	for li, layer := range net.Layers {
		switch v := layer.(type) {
		case *nn.Dense:
			x = genLinear(b, v, false, x, f, lay)
		case *nn.Conv2D:
			x = genLinear(b, v, true, x, f, lay)
		case *nn.Activation:
			var err error
			if x, err = genAct(b, v, x, f); err != nil {
				return nil, fmt.Errorf("netgen: layer %d: %w", li, err)
			}
		case *nn.MaxPool2D:
			x = genPool(b, v, stdcell.MaxPool, x)
		case *nn.MeanPool2D:
			x = genPool(b, v, stdcell.MeanPool, x)
		default:
			return nil, fmt.Errorf("netgen: layer %d (%s): unsupported layer type %T", li, layer.Name(), layer)
		}
		if err := b.Err(); err != nil {
			return nil, err
		}
	}

	if opt.RawScores {
		for _, w := range x {
			b.Outputs(w...)
			lay.OutputBits += len(w)
		}
	} else {
		// The paper's Softmax realization (§4.2): Softmax is monotonic,
		// so the label is the argmax of the scores — a CMP/MUX chain.
		b.BeginScope()
		idx := stdcell.ArgMax(b, x)
		b.EndScope(idx...)
		dropWords(b, x)
		b.Outputs(idx...)
		lay.OutputBits = len(idx)
	}
	return lay, b.Err()
}

func inputWords(b *circuit.Builder, p circuit.Party, n, bits int) []stdcell.Word {
	flat := b.Inputs(p, n*bits)
	out := make([]stdcell.Word, n)
	for i := 0; i < n; i++ {
		out[i] = stdcell.Word(flat[i*bits : (i+1)*bits])
	}
	return out
}

// dropWords retires each distinct word of ws once: a layer's activations may
// hold one word at several positions (see genLinear), and the words of one
// list are live together, so a word is its first wire.
func dropWords(b *circuit.Builder, ws []stdcell.Word) {
	seen := make(map[uint32]bool, len(ws))
	for _, w := range ws {
		if len(w) > 0 && !seen[w[0]] {
			seen[w[0]] = true
			b.Drop(w...)
		}
	}
}

// declareParams declares the layer's evaluator-input wires in the
// canonical nn.WeightBits order: active weights flat, each as its Booth
// digits, then biases. weights is indexed like the layer's weight slice; a
// pruned weight has no digits.
func declareParams(b *circuit.Builder, p nn.ParamLayer, f fixed.Format, lay *Layout) (weights, biases []stdcell.Word) {
	_, mask := p.Weights()
	n := nn.ParamBits(p, f)
	flat := b.Inputs(circuit.Evaluator, n)
	lay.WeightBits += n
	weights = make([]stdcell.Word, len(mask))
	digits, bits := fixed.BoothBits(f.Bits()), f.Bits()
	for i, m := range mask {
		if m {
			weights[i], flat = stdcell.Word(flat[:digits]), flat[digits:]
		}
	}
	nb := len(p.Biases())
	biases = make([]stdcell.Word, nb)
	for o := range biases {
		biases[o], flat = stdcell.Word(flat[:bits]), flat[bits:]
	}
	return weights, biases
}

// genLinear emits a Dense or Conv2D layer from its lowering: one MAC chain
// per output element over the row's taps, seeded with the bias word. What
// differs between the two is who else reads a parameter word. A dense
// weight or bias has one reader, so each MAC retires the weight and the
// accumulator it consumed; a convolution's are shared by every position
// of the map, so they stay live to the end of the layer, except a bias
// that is itself an output (a window with no active tap — the one word at
// every such position of its map), which the next layer retires, once.
func genLinear(b *circuit.Builder, l nn.Linear, shared bool, x []stdcell.Word, f fixed.Format, lay *Layout) []stdcell.Word {
	weights, biases := declareParams(b, l, f, lay)
	var out []stdcell.Word
	escaped := make([]bool, len(biases))
	l.Rows(func(_, bias int, taps []nn.Tap) {
		acc := biases[bias]
		for i, t := range taps {
			b.BeginScope()
			p := stdcell.MulFixed(b, x[t.In], weights[t.W], f.FracBits)
			next := stdcell.Add(b, acc, p)
			b.EndScope(next...)
			if !shared || i > 0 {
				b.Drop(acc...)
			}
			if !shared {
				b.Drop(weights[t.W]...)
			}
			acc = next
		}
		escaped[bias] = escaped[bias] || len(taps) == 0
		out = append(out, acc)
	})
	if shared {
		dropWords(b, weights)
		for i, bw := range biases {
			if !escaped[i] {
				b.Drop(bw...)
			}
		}
	}
	dropWords(b, x)
	return out
}

func genAct(b *circuit.Builder, a *nn.Activation, x []stdcell.Word, f fixed.Format) ([]stdcell.Word, error) {
	if a.Kind == act.Identity {
		return x, nil
	}
	impl, err := a.Impl(f)
	if err != nil {
		return nil, err
	}
	// A word that sits at several positions is activated once and its
	// output shared the same way.
	out := make([]stdcell.Word, len(x))
	done := make(map[uint32]stdcell.Word, len(x))
	for i, w := range x {
		y, ok := done[w[0]]
		if !ok {
			b.BeginScope()
			y = impl.Circuit(b, w)
			b.EndScope(y...)
			b.Drop(w...)
			done[w[0]] = y
		}
		out[i] = y
	}
	return out, nil
}

// genPool emits a pooling layer from its lowering: one reduction cell per
// window.
func genPool(b *circuit.Builder, p nn.Windowed, cell func(*circuit.Builder, []stdcell.Word) stdcell.Word, x []stdcell.Word) []stdcell.Word {
	var out, window []stdcell.Word
	p.Windows(func(_ int, in []int) {
		window = window[:0]
		for _, i := range in {
			window = append(window, x[i])
		}
		b.BeginScope()
		m := cell(b, window)
		b.EndScope(m...)
		out = append(out, m)
	})
	dropWords(b, x)
	return out
}

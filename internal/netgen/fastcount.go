package netgen

import (
	"fmt"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/stdcell"
)

// FastCount computes the exact gate statistics of a network's netlist as
// instances × cell cost: it probes each repeated sub-circuit (one MAC, one
// activation instance, one pooling window) once and multiplies by the
// number of instances the layer's lowering yields (nn.Linear.Rows,
// nn.Windowed.Windows: the walk Generate emits gates from) — the same
// characterization methodology as the paper's Table 2. The result is
// identical to streaming Count (asserted by the package tests) but runs in
// milliseconds even for benchmark 4's ~10⁹ gates, which is how the
// paper-scale Table 4/5 rows are produced.
//
// The builder's constant folding makes gate costs depend on the
// *structure* of operand words, not just their width: a ReLU output has a
// constant-zero sign bit, so every multiplier fed by it drops the
// partial-product rows of the replicated sign. FastCount therefore tracks
// whether each layer's activations are structurally non-negative and uses
// matching probes. Which ANDs are half ANDs depends on who owns an operand,
// so the probes declare theirs as Generate does: a weight word is the
// evaluator's, and so is the bias word — the accumulator of a row's first
// MAC, and the operand of an activation behind a row with no active tap.
// (A bias word that reaches a pooling window or the argmax undisturbed is
// counted as an ordinary operand: HalfAND is short by that cell's few.)
func FastCount(net *nn.Network, f fixed.Format, opt Options) (circuit.Stats, *Layout, error) {
	bits := f.Bits()
	lay := &Layout{}
	var total circuit.Stats
	n := net.In.Len()
	lay.DataBits = n * bits
	if opt.Outsourced {
		lay.ShareBits = n * bits
		total.XOR += int64(n * bits) // recombination layer
	}

	// word materializes a probe operand: full-width input word, or one
	// with a constant-zero sign bit (post-ReLU shape).
	word := func(b *circuit.Builder, nonneg bool) stdcell.Word {
		if !nonneg {
			return stdcell.Input(b, circuit.Garbler, bits)
		}
		w := stdcell.Input(b, circuit.Garbler, bits-1)
		return append(w.Clone(), circuit.WFalse)
	}

	// macCost probes one MAC whose accumulator is acc's: the evaluator's
	// in a row's first MAC (the bias word), a computed sum after that.
	macCost := func(nonneg bool, acc circuit.Party) circuit.Stats {
		return probe(func(b *circuit.Builder) {
			x := word(b, nonneg)
			w := stdcell.Input(b, circuit.Evaluator, bits)
			a := stdcell.Input(b, acc, bits)
			p := stdcell.MulFixed(b, x, w, f.FracBits)
			stdcell.Add(b, a, p)
		})
	}

	poolCost := func(p nn.Windowed, cell func(*circuit.Builder, []stdcell.Word) stdcell.Word, nonneg bool) {
		var windows int64
		size := 0
		p.Windows(func(_ int, in []int) { windows, size = windows+1, len(in) })
		addStats(&total, probe(func(b *circuit.Builder) {
			w := make([]stdcell.Word, size)
			for i := range w {
				w[i] = word(b, nonneg)
			}
			cell(b, w)
		}), windows)
	}

	nonneg := false // whether the current activations have const-0 signs
	var bare int64  // how many of them are a bias word and nothing else
	for li, layer := range net.Layers {
		wasBare := bare
		bare = 0
		switch v := layer.(type) {
		case nn.Linear:
			var macs, rows int64
			v.Rows(func(_, _ int, taps []nn.Tap) {
				macs += int64(len(taps))
				if len(taps) > 0 {
					rows++
				} else {
					bare++
				}
			})
			addStats(&total, macCost(nonneg, circuit.Evaluator), rows)
			addStats(&total, macCost(nonneg, circuit.Garbler), macs-rows)
			lay.WeightBits += (v.ActiveWeights() + len(v.Biases())) * bits
			nonneg = false

		case *nn.Activation:
			if v.Kind == act.Identity {
				bare = wasBare
				continue
			}
			impl, err := v.Impl(f)
			if err != nil {
				return circuit.Stats{}, nil, err
			}
			addStats(&total, probe(func(b *circuit.Builder) { impl.Circuit(b, word(b, nonneg)) }), int64(net.ShapeAt(li).Len())-wasBare)
			if wasBare > 0 {
				addStats(&total, probe(func(b *circuit.Builder) { impl.Circuit(b, stdcell.Input(b, circuit.Evaluator, bits)) }), wasBare)
			}
			nonneg = v.Kind == act.ReLU

		case *nn.MaxPool2D:
			poolCost(v, stdcell.MaxPool, nonneg)
			// Mux chains preserve a shared constant sign bit.

		case *nn.MeanPool2D:
			poolCost(v, stdcell.MeanPool, nonneg)
			nonneg = false // the summed sign bit is a live carry wire

		default:
			return circuit.Stats{}, nil, fmt.Errorf("netgen: FastCount: unsupported layer %T", layer)
		}
	}

	if opt.RawScores {
		lay.OutputBits = net.Out().Len() * bits
	} else {
		outN := net.Out().Len()
		nn := nonneg
		argCost := probe(func(b *circuit.Builder) {
			vals := make([]stdcell.Word, outN)
			for i := range vals {
				vals[i] = word(b, nn)
			}
			stdcell.ArgMax(b, vals)
		})
		addStats(&total, argCost, 1)
		idxBits := 1
		for (1 << uint(idxBits)) < outN {
			idxBits++
		}
		lay.OutputBits = idxBits
	}

	total.GarblerInputs = int64(lay.DataBits)
	total.EvaluatorInputs = int64(lay.ShareBits + lay.WeightBits)
	total.Outputs = int64(lay.OutputBits)
	return total, lay, nil
}

func probe(gen func(b *circuit.Builder)) circuit.Stats {
	b := circuit.NewBuilder(circuit.Counter{}, circuit.WithRecycling())
	gen(b)
	s := b.Stats()
	s.GarblerInputs, s.EvaluatorInputs, s.Outputs, s.MaxLive = 0, 0, 0, 0
	return s
}

func addStats(total *circuit.Stats, unit circuit.Stats, times int64) {
	total.XOR += unit.XOR * times
	total.AND += unit.AND * times
	total.HalfAND += unit.HalfAND * times
	total.INV += unit.INV * times
}

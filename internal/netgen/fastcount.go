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
// constant-zero sign bit, so every multiplier fed by it drops the ANDs of
// each row's two sign-extended bits, and a piecewise-linear
// activation's output carries constant and repeated bits of its own.
// FastCount therefore carries the producer of the current activations — the
// cell that emits them, on operands shaped like its own — and probes every
// consumer on the word that producer actually emits: producer and consumer
// in one probe builder, minus the producer alone. Which ANDs are half ANDs
// depends on who owns an operand, so the probes declare theirs as Generate
// does: a weight word is the evaluator's, and so is the bias word — the
// accumulator of a row's first MAC, and the operand of an activation behind
// a row with no active tap (one instance per distinct bias word: the bare
// positions of one convolution map share theirs). (A bias word that
// reaches a pooling window or the argmax undisturbed is counted as an
// ordinary operand: HalfAND is short by that cell's few. And a window that
// holds one such shared word at several positions folds the comparisons
// among them, which a per-cell probe cannot see: the count is high by
// those.)
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

	// prod emits the cell the current activations come out of and returns
	// one of its output words: a plain word for the network's input and
	// behind a linear layer, whose sums have no structure to fold.
	type producer func(b *circuit.Builder) stdcell.Word
	plain := producer(func(b *circuit.Builder) stdcell.Word { return stdcell.Input(b, circuit.Garbler, bits) })
	prod := plain
	words := func(b *circuit.Builder, p producer, n int) []stdcell.Word {
		x := make([]stdcell.Word, n)
		for i := range x {
			x[i] = p(b)
		}
		return x
	}
	// consume adds times instances of a cell that reads operands words of
	// the current producer.
	consume := func(times int64, operands int, cell func(b *circuit.Builder, x []stdcell.Word)) {
		if times == 0 {
			return
		}
		addStats(&total, probe(func(b *circuit.Builder) { cell(b, words(b, prod, operands)) }), times)
		addStats(&total, probe(func(b *circuit.Builder) { words(b, prod, operands) }), -times)
	}
	// mac is one MAC whose accumulator is acc's: the evaluator's in a row's
	// first MAC (the bias word), a computed sum after that. The weight is
	// the evaluator's Booth digits.
	mac := func(acc circuit.Party) func(*circuit.Builder, []stdcell.Word) {
		return func(b *circuit.Builder, x []stdcell.Word) {
			w := stdcell.Input(b, circuit.Evaluator, fixed.BoothBits(bits))
			a := stdcell.Input(b, acc, bits)
			stdcell.Add(b, a, stdcell.MulFixed(b, x[0], w, f.FracBits))
		}
	}
	pool := func(p nn.Windowed, cell func(*circuit.Builder, []stdcell.Word) stdcell.Word) {
		var windows int64
		size := 0
		p.Windows(func(_ int, in []int) { windows, size = windows+1, len(in) })
		consume(windows, size, func(b *circuit.Builder, x []stdcell.Word) { cell(b, x) })
		of := prod
		prod = func(b *circuit.Builder) stdcell.Word { return cell(b, words(b, of, size)) }
	}

	var bare, bareWords int64 // activations that are a bias word and nothing else; distinct words among them
	for li, layer := range net.Layers {
		wasBare, wasBareWords := bare, bareWords
		bare, bareWords = 0, 0
		switch v := layer.(type) {
		case nn.Linear:
			var macs, rows int64
			bareBias := make(map[int]bool)
			v.Rows(func(_, bias int, taps []nn.Tap) {
				macs += int64(len(taps))
				if len(taps) > 0 {
					rows++
				} else {
					bare++
					bareBias[bias] = true
				}
			})
			bareWords = int64(len(bareBias))
			consume(rows, 1, mac(circuit.Evaluator))
			consume(macs-rows, 1, mac(circuit.Garbler))
			lay.WeightBits += nn.ParamBits(v, f)
			prod = plain

		case *nn.Activation:
			if v.Kind == act.Identity {
				bare, bareWords = wasBare, wasBareWords
				continue
			}
			impl, err := v.Impl(f)
			if err != nil {
				return circuit.Stats{}, nil, err
			}
			consume(int64(net.ShapeAt(li).Len())-wasBare, 1, func(b *circuit.Builder, x []stdcell.Word) { impl.Circuit(b, x[0]) })
			if wasBareWords > 0 {
				addStats(&total, probe(func(b *circuit.Builder) { impl.Circuit(b, stdcell.Input(b, circuit.Evaluator, bits)) }), wasBareWords)
			}
			of := prod
			prod = func(b *circuit.Builder) stdcell.Word { return impl.Circuit(b, of(b)) }

		case *nn.MaxPool2D:
			pool(v, stdcell.MaxPool)

		case *nn.MeanPool2D:
			pool(v, stdcell.MeanPool)

		default:
			return circuit.Stats{}, nil, fmt.Errorf("netgen: FastCount: unsupported layer %T", layer)
		}
	}

	if opt.RawScores {
		lay.OutputBits = net.Out().Len() * bits
	} else {
		outN := net.Out().Len()
		consume(1, outN, func(b *circuit.Builder, x []stdcell.Word) { stdcell.ArgMax(b, x) })
		lay.OutputBits = stdcell.IndexBits(outN)
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

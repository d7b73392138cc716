package nn

import (
	"math"
	"math/rand"

	"deepsecure/internal/fixed"
)

// Tap is one multiply-accumulate of a Linear row: input element In meets
// weight W, both flat indices into the layer's input and weight slices.
type Tap struct{ In, W int }

// Linear is a layer whose every output element is a bias plus a sum of
// weight·input products: Dense and Conv2D. Rows is the layer's lowering,
// the one place its geometry is written down. The float and fixed-point
// passes, the gradients, the netlist generator and the gate counter are
// all loops over it, so they meet the same taps in the same order by
// construction.
type Linear interface {
	ParamLayer
	// Rows calls yield once per output element, in output order, with the
	// element's flat index, the index of its bias, and its taps in the
	// canonical MAC order (dense: inputs ascending; conv: (ic, ky, kx)
	// lexicographic). Taps that fall on padding or on a pruned weight are
	// already skipped, so a fully pruned row yields no taps and its
	// output is the bias. The mask is read as the walk goes and nothing
	// is cached between calls; taps is one buffer reused from row to row
	// and is only valid until yield returns.
	Rows(yield func(out, bias int, taps []Tap))
}

// Windowed is a pooling layer: every output element reduces one window of
// input elements. Windows calls yield once per output element, in output
// order, with the flat indices of its window in (ky, kx) order; in is one
// buffer reused between calls.
type Windowed interface {
	Layer
	Windows(yield func(out int, in []int))
}

// windows is the pooling window walk both pooling layers share.
func windows(in, out Shape, k, stride int, yield func(out int, in []int)) {
	idx := make([]int, 0, k*k)
	o := 0
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				idx = idx[:0]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						idx = append(idx, (c*in.H+oy*stride+ky)*in.W+ox*stride+kx)
					}
				}
				yield(o, idx)
				o++
			}
		}
	}
}

// params is what Dense and Conv2D hold in common — weights, biases, the
// pruning mask and the SGD state — and every pass over them. The passes
// take the owning layer's Rows: geometry is the layer's, arithmetic is
// shared.
type params struct {
	W    []float64 // Dense: OutN×InN row-major; Conv2D: [OutC][InC][K][K]
	B    []float64
	Mask []bool // parallel to W, true = active

	lastIn []float64
	gradW  []float64
	gradB  []float64
	velW   []float64
	velB   []float64
}

type rowsFunc = func(yield func(out, bias int, taps []Tap))

// size allocates nw all-active weights and nb biases on first use and
// otherwise checks that the layer still has the shape it was built with.
func (p *params) size(nw, nb int) bool {
	if p.W == nil {
		p.W = make([]float64, nw)
		p.B = make([]float64, nb)
		p.Mask = make([]bool, nw)
		for i := range p.Mask {
			p.Mask[i] = true
		}
	}
	return len(p.W) == nw
}

// init draws He-style weights for the given fan-in and zeroes the biases.
func (p *params) init(rng *rand.Rand, fanIn int) {
	scale := math.Sqrt(2.0 / float64(fanIn))
	for i := range p.W {
		p.W[i] = rng.NormFloat64() * scale
	}
	for i := range p.B {
		p.B[i] = 0
	}
}

// Weights implements ParamLayer.
func (p *params) Weights() ([]float64, []bool) { return p.W, p.Mask }

// Biases implements ParamLayer.
func (p *params) Biases() []float64 { return p.B }

// ActiveWeights implements ParamLayer.
func (p *params) ActiveWeights() int {
	n := 0
	for _, m := range p.Mask {
		if m {
			n++
		}
	}
	return n
}

func (p *params) forward(rows rowsFunc, nOut int, x []float64) []float64 {
	out := make([]float64, nOut)
	w, b := p.W, p.B
	rows(func(o, bias int, taps []Tap) {
		acc := b[bias]
		for _, t := range taps {
			acc += w[t.W] * x[t.In]
		}
		out[o] = acc
	})
	return out
}

// forwardFixed wraps at every step of the canonical order, bias first:
// exactly the circuit netgen emits from the same Rows.
func (p *params) forwardFixed(rows rowsFunc, nOut int, f fixed.Format, x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, nOut)
	rows(func(o, bias int, taps []Tap) {
		acc := f.FromFloatSat(p.B[bias])
		for _, t := range taps {
			acc = acc.Add(x[t.In].Mul(f.FromFloatSat(p.W[t.W])))
		}
		out[o] = acc
	})
	return out
}

func (p *params) forwardT(rows rowsFunc, nOut int, x []float64) []float64 {
	p.lastIn = append(p.lastIn[:0], x...)
	return p.forward(rows, nOut, x)
}

func (p *params) backward(rows rowsFunc, nIn int, grad []float64) []float64 {
	if p.gradW == nil {
		p.gradW = make([]float64, len(p.W))
		p.gradB = make([]float64, len(p.B))
	}
	din := make([]float64, nIn)
	w, gradW, x := p.W, p.gradW, p.lastIn
	rows(func(o, bias int, taps []Tap) {
		g := grad[o]
		p.gradB[bias] += g
		for _, t := range taps {
			gradW[t.W] += g * x[t.In]
			din[t.In] += g * w[t.W]
		}
	})
	return din
}

// Step implements Backprop (SGD with momentum 0.9); pruned weights stay
// exactly zero.
func (p *params) Step(lr float64, batch int) {
	if p.gradW == nil {
		return
	}
	if p.velW == nil {
		p.velW = make([]float64, len(p.W))
		p.velB = make([]float64, len(p.B))
	}
	scale := lr / float64(batch)
	const mom = 0.9
	for i := range p.W {
		p.velW[i] = mom*p.velW[i] - scale*p.gradW[i]
		if p.Mask[i] {
			p.W[i] += p.velW[i]
		} else {
			p.W[i] = 0
		}
		p.gradW[i] = 0
	}
	for i := range p.B {
		p.velB[i] = mom*p.velB[i] - scale*p.gradB[i]
		p.B[i] += p.velB[i]
		p.gradB[i] = 0
	}
}

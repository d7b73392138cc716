package nn

import (
	"fmt"
	"math/rand"

	"deepsecure/internal/fixed"
)

// Dense is a fully-connected layer: out = W·x + b, with a pruning mask
// over W (Table 1's Fully-Connected / matrix-vector multiplication row).
type Dense struct {
	InN, OutN int
	params
}

// NewDense builds an untrained fully-connected layer with all weights
// active; OutN is the layer width.
func NewDense(out int) *Dense { return &Dense{OutN: out} }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("%dFC", d.OutN) }

// Bind implements Layer.
func (d *Dense) Bind(in Shape) (Shape, error) {
	n := in.Len()
	nw, ok := sized(d.OutN, n)
	if !ok {
		return Shape{}, fmt.Errorf("dense: %d outputs of %d inputs: want 1 to %d weights", d.OutN, n, MaxWeights)
	}
	d.InN = n
	if !d.size(nw, d.OutN) {
		return Shape{}, fmt.Errorf("dense: weights shaped for %d inputs, got %d", len(d.W)/d.OutN, n)
	}
	return Vec(d.OutN), nil
}

func (d *Dense) initWeights(rng *rand.Rand) { d.init(rng, d.InN) }

// Rows implements Linear: row o meets inputs 0..InN-1 ascending.
func (d *Dense) Rows(yield func(out, bias int, taps []Tap)) {
	buf := takeTaps(d.InN)
	defer tapBufs.Put(buf)
	for o := 0; o < d.OutN; o++ {
		taps := (*buf)[:0]
		for i := 0; i < d.InN; i++ {
			if wi := o*d.InN + i; d.Mask[wi] {
				taps = append(taps, Tap{In: i, W: wi})
			}
		}
		yield(o, o, taps)
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 { return d.forward(d.Rows, d.OutN, x) }

// ForwardFixed implements Layer.
func (d *Dense) ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num {
	return d.forwardFixed(d.Rows, d.OutN, f, x)
}

// ForwardT implements Backprop.
func (d *Dense) ForwardT(x []float64) []float64 { return d.forwardT(d.Rows, d.OutN, x) }

// Backward implements Backprop.
func (d *Dense) Backward(grad []float64) []float64 { return d.backward(d.Rows, d.InN, grad) }

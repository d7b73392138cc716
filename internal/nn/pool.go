package nn

import (
	"fmt"
	"math"
	"math/bits"

	"deepsecure/internal/fixed"
)

// MaxPool2D computes the maximum over K×K windows with the given stride
// (Table 1's M1P row).
type MaxPool2D struct {
	K, Stride int
	in, out   Shape

	lastArg []int
}

// NewMaxPool2D builds a max-pooling layer; stride defaults to K when 0.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if stride == 0 {
		stride = k
	}
	return &MaxPool2D{K: k, Stride: stride}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("M1P%d", p.K) }

// Bind implements Layer.
func (p *MaxPool2D) Bind(in Shape) (Shape, error) {
	if p.K < 1 || p.Stride < 1 {
		return Shape{}, fmt.Errorf("maxpool: window %d, stride %d: want both >= 1", p.K, p.Stride)
	}
	if in.H < p.K || in.W < p.K {
		return Shape{}, fmt.Errorf("maxpool: input %v smaller than window %d", in, p.K)
	}
	p.in = in
	p.out = Shape{C: in.C, H: (in.H-p.K)/p.Stride + 1, W: (in.W-p.K)/p.Stride + 1}
	return p.out, nil
}

// Windows implements Windowed.
func (p *MaxPool2D) Windows(yield func(out int, in []int)) {
	windows(p.in, p.out, p.K, p.Stride, yield)
}

// forward takes the maximum of every window and, when training, records
// which input won it.
func (p *MaxPool2D) forward(x []float64, record bool) []float64 {
	out := make([]float64, p.out.Len())
	p.Windows(func(o int, in []int) {
		best, bestI := math.Inf(-1), -1
		for _, i := range in {
			if x[i] > best {
				best, bestI = x[i], i
			}
		}
		out[o] = best
		if record {
			p.lastArg = append(p.lastArg, bestI)
		}
	})
	return out
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x []float64) []float64 { return p.forward(x, false) }

// ForwardFixed implements Layer: a left-to-right max chain over the
// window, the comparator chain netgen emits from the same Windows.
func (p *MaxPool2D) ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, p.out.Len())
	p.Windows(func(o int, in []int) {
		best := x[in[0]]
		for _, i := range in[1:] {
			if x[i].Cmp(best) > 0 {
				best = x[i]
			}
		}
		out[o] = best
	})
	return out
}

// ForwardT implements Backprop.
func (p *MaxPool2D) ForwardT(x []float64) []float64 {
	p.lastArg = p.lastArg[:0]
	return p.forward(x, true)
}

// Backward implements Backprop.
func (p *MaxPool2D) Backward(grad []float64) []float64 {
	din := make([]float64, p.in.Len())
	for o, i := range p.lastArg {
		din[i] += grad[o]
	}
	return din
}

// Step implements Backprop.
func (p *MaxPool2D) Step(float64, int) {}

// MeanPool2D averages non-overlapping K×K windows (Table 1's M2P row).
// K must be a power of two so the circuit divides with a free shift.
type MeanPool2D struct {
	K       int
	in, out Shape
}

// NewMeanPool2D builds a mean-pooling layer.
func NewMeanPool2D(k int) *MeanPool2D { return &MeanPool2D{K: k} }

// Name implements Layer.
func (p *MeanPool2D) Name() string { return fmt.Sprintf("M2P%d", p.K) }

// Bind implements Layer.
func (p *MeanPool2D) Bind(in Shape) (Shape, error) {
	if p.K < 1 || p.K&(p.K-1) != 0 {
		return Shape{}, fmt.Errorf("meanpool: window %d² must be a power of two", p.K)
	}
	if in.H < p.K || in.W < p.K {
		return Shape{}, fmt.Errorf("meanpool: input %v smaller than window %d", in, p.K)
	}
	p.in = in
	p.out = Shape{C: in.C, H: in.H / p.K, W: in.W / p.K}
	return p.out, nil
}

// Windows implements Windowed.
func (p *MeanPool2D) Windows(yield func(out int, in []int)) {
	windows(p.in, p.out, p.K, p.K, yield)
}

// Forward implements Layer.
func (p *MeanPool2D) Forward(x []float64) []float64 {
	out := make([]float64, p.out.Len())
	inv := 1.0 / float64(p.K*p.K)
	p.Windows(func(o int, in []int) {
		sum := 0.0
		for _, i := range in {
			sum += x[i]
		}
		out[o] = sum * inv
	})
	return out
}

// ForwardFixed implements Layer: exact-sum then arithmetic shift, matching
// stdcell.MeanPool.
func (p *MeanPool2D) ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, p.out.Len())
	log := uint(bits.TrailingZeros(uint(p.K * p.K)))
	p.Windows(func(o int, in []int) {
		var sum int64
		for _, i := range in {
			sum += x[i].Raw()
		}
		out[o] = f.FromRaw(sum >> log)
	})
	return out
}

// ForwardT implements Backprop.
func (p *MeanPool2D) ForwardT(x []float64) []float64 { return p.Forward(x) }

// Backward implements Backprop.
func (p *MeanPool2D) Backward(grad []float64) []float64 {
	din := make([]float64, p.in.Len())
	inv := 1.0 / float64(p.K*p.K)
	p.Windows(func(o int, in []int) {
		for _, i := range in {
			din[i] += grad[o] * inv
		}
	})
	return din
}

// Step implements Backprop.
func (p *MeanPool2D) Step(float64, int) {}

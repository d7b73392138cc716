package nn

import (
	"fmt"
	"math/rand"

	"deepsecure/internal/fixed"
)

// Conv2D is a 2D convolution layer (Table 1's first row): OutC maps of
// K×K kernels with the given stride and symmetric zero padding.
type Conv2D struct {
	OutC, K, Stride, Pad int

	in  Shape
	out Shape
	params
}

// NewConv2D builds a convolution layer.
func NewConv2D(outC, k, stride, pad int) *Conv2D {
	return &Conv2D{OutC: outC, K: k, Stride: stride, Pad: pad}
}

// Name implements Layer (paper style: "5C2" = 5 maps stride 2).
func (c *Conv2D) Name() string { return fmt.Sprintf("%dC%d", c.OutC, c.Stride) }

// Bind implements Layer.
func (c *Conv2D) Bind(in Shape) (Shape, error) {
	if c.K < 1 || c.Stride < 1 || c.Pad < 0 || c.Pad > MaxWeights {
		return Shape{}, fmt.Errorf("conv: kernel %d, stride %d, pad %d: want kernel and stride >= 1, pad >= 0", c.K, c.Stride, c.Pad)
	}
	if in.H < c.K || in.W < c.K {
		return Shape{}, fmt.Errorf("conv: input %v smaller than kernel %d", in, c.K)
	}
	out := Shape{C: c.OutC, H: (in.H+2*c.Pad-c.K)/c.Stride + 1, W: (in.W+2*c.Pad-c.K)/c.Stride + 1}
	nw, ok := sized(c.OutC, in.C, c.K, c.K)
	if !ok || !out.valid() {
		return Shape{}, fmt.Errorf("conv: %d maps over %v: want 1 to %d weights and outputs", c.OutC, in, MaxWeights)
	}
	c.in, c.out = in, out
	if !c.size(nw, c.OutC) {
		return Shape{}, fmt.Errorf("conv: weights sized %d, need %d", len(c.W), nw)
	}
	return c.out, nil
}

func (c *Conv2D) initWeights(rng *rand.Rand) { c.init(rng, c.in.C*c.K*c.K) }

// Rows implements Linear: output (oc, oy, ox) meets its window in
// (ic, ky, kx) order, minus the taps that fall on padding.
func (c *Conv2D) Rows(yield func(out, bias int, taps []Tap)) {
	buf := takeTaps(c.in.C * c.K * c.K)
	defer tapBufs.Put(buf)
	out := 0
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < c.out.H; oy++ {
			for ox := 0; ox < c.out.W; ox++ {
				taps := (*buf)[:0]
				for ic := 0; ic < c.in.C; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= c.in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= c.in.W {
								continue
							}
							if wi := ((oc*c.in.C+ic)*c.K+ky)*c.K + kx; c.Mask[wi] {
								taps = append(taps, Tap{In: (ic*c.in.H+iy)*c.in.W + ix, W: wi})
							}
						}
					}
				}
				yield(out, oc, taps)
				out++
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x []float64) []float64 { return c.forward(c.Rows, c.out.Len(), x) }

// ForwardFixed implements Layer.
func (c *Conv2D) ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num {
	return c.forwardFixed(c.Rows, c.out.Len(), f, x)
}

// ForwardT implements Backprop.
func (c *Conv2D) ForwardT(x []float64) []float64 { return c.forwardT(c.Rows, c.out.Len(), x) }

// Backward implements Backprop.
func (c *Conv2D) Backward(grad []float64) []float64 { return c.backward(c.Rows, c.in.Len(), grad) }

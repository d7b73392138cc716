// Package nn is DeepSecure's deep-learning substrate: the DNN/CNN layer
// zoo of Table 1 (fully-connected, 2D convolution, max/mean pooling,
// non-linearities, softmax/argmax) with three execution paths:
//
//   - a float64 forward pass (used for training and as accuracy reference),
//   - a fixed-point forward pass that is bit-exact with the garbled
//     circuits generated by internal/netgen (wrapping MACs in canonical
//     order, activation via internal/act),
//   - gradients (in internal/train) for the pre-processing retraining.
//
// Layers carry pruning masks (§3.2.2): masked weights are exactly zero in
// every path and are skipped entirely during netlist generation, which is
// what turns model sparsity into GC savings.
package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
)

// Shape is a (channels, height, width) tensor shape. Dense layers flatten
// it; C*H*W is the element count.
type Shape struct {
	C, H, W int
}

// Len returns the number of elements.
func (s Shape) Len() int { return s.C * s.H * s.W }

// Vec returns a flat shape with n elements.
func Vec(n int) Shape { return Shape{C: 1, H: 1, W: n} }

// String renders the shape.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// MaxWeights caps the weights of a network and the elements of any tensor
// in it. Architectures arrive from the peer (a client builds the server's
// Spec), so every size is checked against it before anything is
// allocated: a hostile Spec costs an error, at most 2·MaxWeights weights
// of memory on the way to it, and never a panic. Raw benchmark 4, the
// paper's largest model, has 12.3 M weights.
const MaxWeights = 1 << 24

// sized multiplies dimensions, reporting false when one is not positive or
// the product leaves [1, MaxWeights] (which also rules out overflow).
func sized(dims ...int) (int, bool) {
	n := int64(1)
	for _, d := range dims {
		if d < 1 || d > MaxWeights {
			return 0, false
		}
		if n *= int64(d); n > MaxWeights {
			return 0, false
		}
	}
	return int(n), true
}

func (s Shape) valid() bool {
	_, ok := sized(s.C, s.H, s.W)
	return ok
}

// Layer is one network stage. Shapes are bound once by NewNetwork.
type Layer interface {
	// Name returns a short architecture mnemonic ("300FC", "5C2", ...).
	Name() string
	// Bind fixes the input shape and returns the output shape (or an
	// error if the shape is incompatible).
	Bind(in Shape) (Shape, error)
	// Forward computes the float64 forward pass.
	Forward(x []float64) []float64
	// ForwardFixed computes the fixed-point forward pass, bit-exact with
	// the generated circuit.
	ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num
}

// ParamLayer is a layer with trainable weights (Dense, Conv2D).
type ParamLayer interface {
	Layer
	// Weights returns the flat weight slice (mutable) and the parallel
	// mask (true = active). Bias is separate.
	Weights() (w []float64, mask []bool)
	// Biases returns the flat bias slice (mutable).
	Biases() []float64
	// ActiveWeights returns the number of unmasked weights.
	ActiveWeights() int
}

// Backprop is a layer that supports training.
type Backprop interface {
	Layer
	// ForwardT runs forward while caching activations for Backward.
	ForwardT(x []float64) []float64
	// Backward consumes dL/dout, accumulates parameter gradients, and
	// returns dL/din.
	Backward(grad []float64) []float64
	// Step applies accumulated gradients with learning rate lr (scaled by
	// 1/batch) and momentum, then clears them. No-op for stateless layers.
	Step(lr float64, batch int)
}

// Network is an ordered stack of layers with bound shapes.
type Network struct {
	In     Shape
	Layers []Layer
	shapes []Shape // shapes[i] = output shape of layer i
}

// NewNetwork binds the layer stack to the input shape.
func NewNetwork(in Shape, layers ...Layer) (*Network, error) {
	if !in.valid() {
		return nil, fmt.Errorf("nn: input shape %v: want 1 to %d elements", in, MaxWeights)
	}
	n := &Network{In: in, Layers: layers}
	cur := in
	weights := 0
	for i, l := range layers {
		out, err := l.Bind(cur)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		if p, ok := l.(ParamLayer); ok {
			w, _ := p.Weights()
			if weights += len(w) + len(p.Biases()); weights > MaxWeights {
				return nil, fmt.Errorf("nn: layer %d (%s): network has more than %d weights", i, l.Name(), MaxWeights)
			}
		}
		n.shapes = append(n.shapes, out)
		cur = out
	}
	return n, nil
}

// Out returns the network's output shape.
func (n *Network) Out() Shape {
	if len(n.shapes) == 0 {
		return n.In
	}
	return n.shapes[len(n.shapes)-1]
}

// ShapeAt returns the output shape of layer i.
func (n *Network) ShapeAt(i int) Shape { return n.shapes[i] }

// Forward runs the float forward pass.
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Predict returns the argmax class of the float forward pass.
func (n *Network) Predict(x []float64) int {
	return argmaxF(n.Forward(x))
}

// ForwardFixed runs the fixed-point forward pass.
func (n *Network) ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num {
	for _, l := range n.Layers {
		x = l.ForwardFixed(f, x)
	}
	return x
}

// quantized recycles PredictFixed's quantized inputs: no layer keeps its
// input.
var quantized = sync.Pool{New: func() any { return new([]fixed.Num) }}

// PredictFixed quantizes x and returns the fixed-point argmax class — the
// exact label the garbled circuit outputs.
func (n *Network) PredictFixed(f fixed.Format, x []float64) int {
	in := quantized.Get().(*[]fixed.Num)
	defer quantized.Put(in)
	*in = f.AppendVec((*in)[:0], x)
	out := n.ForwardFixed(f, *in)
	best := 0
	for i := 1; i < len(out); i++ {
		if out[i].Cmp(out[best]) > 0 {
			best = i
		}
	}
	return best
}

// Arch renders the architecture string in the paper's style, e.g.
// "28×28-5C2-ReLu-100FC-ReLu-10FC-Softmax".
func (n *Network) Arch() string {
	s := fmt.Sprintf("%d", n.In.Len())
	if n.In.H > 1 {
		s = fmt.Sprintf("%dx%d", n.In.H, n.In.W)
	}
	for _, l := range n.Layers {
		s += "-" + l.Name()
	}
	return s + "-Softmax"
}

// ParamLayers returns the parameterized layers in order.
func (n *Network) ParamLayers() []ParamLayer {
	var out []ParamLayer
	for _, l := range n.Layers {
		if p, ok := l.(ParamLayer); ok {
			out = append(out, p)
		}
	}
	return out
}

// TotalParams returns (active, total) weight counts including biases.
func (n *Network) TotalParams() (active, total int) {
	for _, p := range n.ParamLayers() {
		w, _ := p.Weights()
		total += len(w) + len(p.Biases())
		active += p.ActiveWeights() + len(p.Biases())
	}
	return
}

// InitWeights initializes all parameter layers with scaled uniform noise
// (He-style fan-in scaling), deterministic under rng.
func (n *Network) InitWeights(rng *rand.Rand) {
	for _, l := range n.Layers {
		if init, ok := l.(interface{ initWeights(*rand.Rand) }); ok {
			init.initWeights(rng)
		}
	}
}

// CalibrateOutput rescales the final layer (weights and biases) so that
// the largest |logit| over the calibration set is at most target. Scaling
// the output layer by a positive constant leaves the argmax — the
// inference label — unchanged, but keeps the fixed-point circuit's final
// accumulators inside the representable range (the wrapping adders of the
// GC netlist have no overflow trap). Returns the applied scale (1 = none).
func (n *Network) CalibrateOutput(xs [][]float64, target float64) float64 {
	if len(n.Layers) == 0 || len(xs) == 0 || target <= 0 {
		return 1
	}
	last, ok := n.Layers[len(n.Layers)-1].(ParamLayer)
	if !ok {
		return 1
	}
	maxAbs := 0.0
	for _, x := range xs {
		for _, v := range n.Forward(x) {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
	}
	if maxAbs <= target {
		return 1
	}
	c := target / maxAbs
	w, _ := last.Weights()
	for i := range w {
		w[i] *= c
	}
	b := last.Biases()
	for i := range b {
		b[i] *= c
	}
	return c
}

func argmaxF(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// actImpl caches per-format activation implementations.
type actImpl struct {
	kind  act.Kind
	impls map[fixed.Format]*act.Impl
}

func (a *actImpl) get(f fixed.Format) (*act.Impl, error) {
	if a.impls == nil {
		a.impls = make(map[fixed.Format]*act.Impl)
	}
	if impl, ok := a.impls[f]; ok {
		return impl, nil
	}
	impl, err := act.New(a.kind, f)
	if err != nil {
		return nil, err
	}
	a.impls[f] = impl
	return impl, nil
}

package nn

import (
	"fmt"
	"math"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
)

// Activation applies an element-wise non-linearity. The float path uses
// the exact function (for training); the fixed path uses the selected
// GC realization from internal/act, bit-exact with the circuit.
type Activation struct {
	Kind act.Kind
	impl actImpl

	lastOut []float64
	lastIn  []float64
}

// NewActivation builds an activation layer.
func NewActivation(kind act.Kind) *Activation {
	return &Activation{Kind: kind, impl: actImpl{kind: kind}}
}

// Name implements Layer.
func (a *Activation) Name() string {
	switch {
	case a.Kind == act.ReLU:
		return "ReLu"
	case a.Kind.IsTanh():
		return "Tanh"
	case a.Kind.IsSigmoid():
		return "Sigmoid"
	default:
		return "Id"
	}
}

// Bind implements Layer.
func (a *Activation) Bind(in Shape) (Shape, error) {
	if !a.Kind.Valid() {
		return Shape{}, fmt.Errorf("activation: unknown kind %v", a.Kind)
	}
	return in, nil
}

func (a *Activation) f(x float64) float64 {
	switch {
	case a.Kind == act.ReLU:
		return math.Max(0, x)
	case a.Kind.IsTanh():
		return math.Tanh(x)
	case a.Kind.IsSigmoid():
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

func (a *Activation) df(x, y float64) float64 {
	switch {
	case a.Kind == act.ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case a.Kind.IsTanh():
		return 1 - y*y
	case a.Kind.IsSigmoid():
		return y * (1 - y)
	default:
		return 1
	}
}

// Forward implements Layer.
func (a *Activation) Forward(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = a.f(v)
	}
	return out
}

// ForwardFixed implements Layer. A format the realization has no datapath
// for is the caller's mistake here (Spec.Build refuses a peer's), so it
// panics.
func (a *Activation) ForwardFixed(f fixed.Format, x []fixed.Num) []fixed.Num {
	impl, err := a.impl.get(f)
	if err != nil {
		panic(err.Error())
	}
	out := make([]fixed.Num, len(x))
	for i, v := range x {
		out[i] = impl.Eval(v)
	}
	return out
}

// Impl exposes the per-format activation realization (used by netgen), or
// the reason the format has none.
func (a *Activation) Impl(f fixed.Format) (*act.Impl, error) { return a.impl.get(f) }

// ForwardT implements Backprop.
func (a *Activation) ForwardT(x []float64) []float64 {
	a.lastIn = append(a.lastIn[:0], x...)
	out := a.Forward(x)
	a.lastOut = append(a.lastOut[:0], out...)
	return out
}

// Backward implements Backprop.
func (a *Activation) Backward(grad []float64) []float64 {
	din := make([]float64, len(grad))
	for i, g := range grad {
		din[i] = g * a.df(a.lastIn[i], a.lastOut[i])
	}
	return din
}

// Step implements Backprop.
func (a *Activation) Step(float64, int) {}

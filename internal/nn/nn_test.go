package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2)
	if _, err := d.Bind(Vec(3)); err != nil {
		t.Fatal(err)
	}
	copy(d.W, []float64{1, 2, 3, -1, 0.5, 0})
	copy(d.B, []float64{0.5, -0.5})
	got := d.Forward([]float64{1, 1, 1})
	if math.Abs(got[0]-6.5) > 1e-12 || math.Abs(got[1]+1.0) > 1e-12 {
		t.Errorf("dense forward = %v, want [6.5 -1]", got)
	}
}

func TestDenseMaskZeroesWeights(t *testing.T) {
	d := NewDense(1)
	if _, err := d.Bind(Vec(2)); err != nil {
		t.Fatal(err)
	}
	copy(d.W, []float64{5, 7})
	d.Mask[0] = false
	got := d.Forward([]float64{1, 1})
	if got[0] != 7 {
		t.Errorf("masked forward = %v, want 7", got[0])
	}
	if d.ActiveWeights() != 1 {
		t.Errorf("ActiveWeights = %d", d.ActiveWeights())
	}
}

func TestConvShapePaperBenchmark1(t *testing.T) {
	// Benchmark 1 conv: 28×28 input, 5×5 kernel, stride 2, 5 maps,
	// pad 1 ⇒ 5×13×13 = 845 outputs (paper's 5×13×13).
	c := NewConv2D(5, 5, 2, 1)
	out, err := c.Bind(Shape{C: 1, H: 28, W: 28})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 5, H: 13, W: 13}) {
		t.Errorf("conv out = %v, want 5x13x13", out)
	}
}

func TestConvForwardKnown(t *testing.T) {
	// 1 channel, 3×3 input, 2×2 kernel stride 1 no pad: manual check.
	c := NewConv2D(1, 2, 1, 0)
	if _, err := c.Bind(Shape{C: 1, H: 3, W: 3}); err != nil {
		t.Fatal(err)
	}
	copy(c.W, []float64{1, 0, 0, 1}) // identity-diagonal kernel
	x := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	got := c.Forward(x)
	want := []float64{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("conv[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestPoolsKnown(t *testing.T) {
	x := []float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 4,
	}
	mp := NewMaxPool2D(2, 0)
	if _, err := mp.Bind(Shape{C: 1, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}
	got := mp.Forward(x)
	want := []float64{4, 8, -1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("maxpool[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	ap := NewMeanPool2D(2)
	if _, err := ap.Bind(Shape{C: 1, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}
	got = ap.Forward(x)
	want = []float64{2.5, 6.5, -2.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("meanpool[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMeanPoolFixedMatchesShiftSemantics(t *testing.T) {
	f := fixed.Default
	ap := NewMeanPool2D(2)
	if _, err := ap.Bind(Shape{C: 1, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	xs := []fixed.Num{f.FromFloat(1), f.FromFloat(2), f.FromFloat(3), f.FromFloat(3.5)}
	got := ap.ForwardFixed(f, xs)
	var sum int64
	for _, x := range xs {
		sum += x.Raw()
	}
	if got[0].Raw() != f.Wrap(sum>>2) {
		t.Errorf("meanpool fixed = %d, want %d", got[0].Raw(), sum>>2)
	}
}

func buildSmallNet(t *testing.T, kind act.Kind) *Network {
	t.Helper()
	net, err := NewNetwork(Vec(6),
		NewDense(5),
		NewActivation(kind),
		NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(1)))
	return net
}

func TestFixedForwardTracksFloat(t *testing.T) {
	f := fixed.Default
	net := buildSmallNet(t, act.TanhCORDIC)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		ff := net.Forward(x)
		fx := net.ForwardFixed(f, f.AppendVec(nil, x))
		for i := range ff {
			if math.Abs(ff[i]-fx[i].Float()) > 0.05 {
				t.Errorf("trial %d out %d: float %g vs fixed %g", trial, i, ff[i], fx[i].Float())
			}
		}
	}
}

func TestPredictConsistency(t *testing.T) {
	f := fixed.Default
	net := buildSmallNet(t, act.ReLU)
	rng := rand.New(rand.NewSource(3))
	agree := 0
	const n = 100
	for trial := 0; trial < n; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		if net.Predict(x) == net.PredictFixed(f, x) {
			agree++
		}
	}
	if agree < n*9/10 {
		t.Errorf("float/fixed predictions agree only %d/%d", agree, n)
	}
	t.Logf("float/fixed predictions agree on %d/%d samples", agree, n)
}

func TestArchString(t *testing.T) {
	net, err := NewNetwork(Shape{C: 1, H: 28, W: 28},
		NewConv2D(5, 5, 2, 1),
		NewActivation(act.ReLU),
		NewDense(100),
		NewActivation(act.ReLU),
		NewDense(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := "28x28-5C2-ReLu-100FC-ReLu-10FC-Softmax"
	if got := net.Arch(); got != want {
		t.Errorf("Arch = %q, want %q", got, want)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	net := buildSmallNet(t, act.SigmoidCORDIC)
	// Prune one weight so the mask travels through the spec.
	d := net.Layers[0].(*Dense)
	d.Mask[3] = false
	f := fixed.Default
	spec := net.Spec(f)
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := UnmarshalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	net2, err := spec2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net2.Arch() != net.Arch() {
		t.Errorf("arch mismatch: %q vs %q", net2.Arch(), net.Arch())
	}
	d2 := net2.Layers[0].(*Dense)
	if d2.Mask[3] || !d2.Mask[0] {
		t.Error("mask did not survive the spec round trip")
	}
	if WeightBitCount(net2, f) != WeightBitCount(net, f) {
		t.Errorf("weight bit counts differ: %d vs %d", WeightBitCount(net2, f), WeightBitCount(net, f))
	}
}

// TestMaxSpecBytesBoundsMasks: a sparsity map marshals to at most 6 bytes a
// weight — the figure MaxSpecBytes is stated from.
func TestMaxSpecBytesBoundsMasks(t *testing.T) {
	net, err := NewNetwork(Vec(64), NewDense(64))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := net.Spec(fixed.Default).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d := net.Layers[0].(*Dense)
	clear(d.Mask)
	pruned, err := net.Spec(fixed.Default).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if grew := len(pruned) - len(dense) - len(`,"mask":[]`); grew > 6*len(d.Mask) {
		t.Fatalf("a mask of %d entries marshals to %d bytes, more than 6 a weight", len(d.Mask), grew)
	}
}

func TestWeightBitsCanonical(t *testing.T) {
	f := fixed.Default
	net := buildSmallNet(t, act.ReLU)
	bits := WeightBits(net, f)
	if len(bits) != WeightBitCount(net, f) {
		t.Fatalf("WeightBits length %d != count %d", len(bits), WeightBitCount(net, f))
	}
	// The first 24 bits are the Booth digits of W[0] of the first layer,
	// and the last 16 the last bias.
	d := net.Layers[0].(*Dense)
	want := fixed.BoothDigits(f.FromFloatSat(d.W[0]).Raw(), f.Bits())
	if len(want) != 24 {
		t.Fatalf("a Q3.12 weight is %d digit bits, want 24", len(want))
	}
	ps := net.ParamLayers()
	last := ps[len(ps)-1].Biases()
	want = append(want, f.FromFloatSat(last[len(last)-1]).Bits()...)
	got := append(bits[:24:24], bits[len(bits)-16:]...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical order broken at bit %d", i)
		}
	}
	// Pruning a weight must remove exactly its 24 digit bits.
	d.Mask[0] = false
	if got := len(WeightBits(net, f)); got != len(bits)-24 {
		t.Errorf("after pruning 1 weight: %d bits, want %d", got, len(bits)-24)
	}
}

// numericGrad computes the central-difference gradient of loss w.r.t.
// params[i].
func numericGrad(eval func() float64, param *float64) float64 {
	const h = 1e-5
	old := *param
	*param = old + h
	up := eval()
	*param = old - h
	down := eval()
	*param = old
	return (up - down) / (2 * h)
}

func TestBackpropGradCheckDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := buildSmallNet(t, act.TanhCORDIC)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	target := 1

	// Loss: softmax cross-entropy on the final layer.
	loss := func() float64 {
		out := net.Forward(x)
		return crossEntropy(out, target)
	}

	// Backprop pass.
	h := x
	for _, l := range net.Layers {
		h = l.(Backprop).ForwardT(h)
	}
	grad := softmaxGrad(h, target)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		grad = net.Layers[i].(Backprop).Backward(grad)
	}

	d := net.Layers[0].(*Dense)
	for _, wi := range []int{0, 7, 13, 29} {
		want := numericGrad(loss, &d.W[wi])
		got := d.gradW[wi]
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dW[%d]: backprop %g vs numeric %g", wi, got, want)
		}
	}
	for _, bi := range []int{0, 3} {
		want := numericGrad(loss, &d.B[bi])
		got := d.gradB[bi]
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dB[%d]: backprop %g vs numeric %g", bi, got, want)
		}
	}
}

func TestBackpropGradCheckConv(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, err := NewNetwork(Shape{C: 1, H: 6, W: 6},
		NewConv2D(2, 3, 1, 1),
		NewActivation(act.ReLU),
		NewMaxPool2D(2, 0),
		NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rng)
	x := make([]float64, 36)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	target := 2
	loss := func() float64 { return crossEntropy(net.Forward(x), target) }

	h := x
	for _, l := range net.Layers {
		h = l.(Backprop).ForwardT(h)
	}
	grad := softmaxGrad(h, target)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		grad = net.Layers[i].(Backprop).Backward(grad)
	}
	c := net.Layers[0].(*Conv2D)
	for _, wi := range []int{0, 5, 11, 17} {
		want := numericGrad(loss, &c.W[wi])
		got := c.gradW[wi]
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("conv dW[%d]: backprop %g vs numeric %g", wi, got, want)
		}
	}
}

// crossEntropy and softmaxGrad are tiny local copies of the training loss
// (the train package owns the real ones) to keep this package test-local.
func crossEntropy(logits []float64, target int) float64 {
	maxv := logits[argmaxF(logits)]
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - maxv)
	}
	return math.Log(sum) - (logits[target] - maxv)
}

func softmaxGrad(logits []float64, target int) []float64 {
	maxv := logits[argmaxF(logits)]
	var sum float64
	exp := make([]float64, len(logits))
	for i, v := range logits {
		exp[i] = math.Exp(v - maxv)
		sum += exp[i]
	}
	g := make([]float64, len(logits))
	for i := range g {
		g[i] = exp[i] / sum
	}
	g[target] -= 1
	return g
}

func TestTotalParams(t *testing.T) {
	net := buildSmallNet(t, act.ReLU)
	active, total := net.TotalParams()
	want := 6*5 + 5 + 5*3 + 3
	if total != want || active != want {
		t.Errorf("params = (%d,%d), want (%d,%d)", active, total, want, want)
	}
	net.Layers[0].(*Dense).Mask[0] = false
	active, _ = net.TotalParams()
	if active != want-1 {
		t.Errorf("active after prune = %d, want %d", active, want-1)
	}
}

func TestBindErrors(t *testing.T) {
	if _, err := NewNetwork(Shape{C: 1, H: 2, W: 2}, NewConv2D(1, 5, 1, 0)); err == nil {
		t.Error("kernel larger than input must fail to bind")
	}
	if _, err := NewNetwork(Shape{C: 1, H: 4, W: 4}, NewMeanPool2D(3)); err == nil {
		t.Error("non-power-of-two mean pool must fail to bind")
	}
	if _, err := NewNetwork(Vec(0), NewDense(3)); err == nil {
		t.Error("empty input must fail to bind")
	}
}

// hostileSpecs are architecture frames a peer could send: each must cost
// the process that builds it an error, never a panic or an allocation
// sized by the peer.
var hostileSpecs = map[string]string{
	"pool window and stride 0":  `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"maxpool"}]}`,
	"pool stride negative":      `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"maxpool","k":2,"stride":-1}]}`,
	"dense width negative":      `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":-1}]}`,
	"conv maps negative":        `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"conv","outc":-2,"k":1,"stride":1}]}`,
	"conv kernel 0":             `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"conv","outc":1,"k":0,"stride":1}]}`,
	"conv stride 0":             `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"conv","outc":1,"k":1}]}`,
	"conv pad negative":         `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"conv","outc":1,"k":1,"stride":1,"pad":-3}]}`,
	"conv pad huge":             `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"conv","outc":1,"k":1,"stride":1,"pad":4611686018427387904}]}`,
	"weights beyond any memory": `{"in":{"C":1,"H":1,"W":1000000},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":100000000}]}`,
	"weights of a few GB":       `{"in":{"C":1,"H":1,"W":100000},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":10000}]}`,
	"shape product overflows":   `{"in":{"C":3037000500,"H":3037000500,"W":2},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":1}]}`,
	"input dimension negative":  `{"in":{"C":-1,"H":-1,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":1}]}`,
	"unknown activation":        `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"act","act":99}]}`,
	"format too wide":           `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":40,"FracBits":40},"layers":[{"type":"dense","out":1}]}`,
	"format negative":           `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":-3,"FracBits":12},"layers":[{"type":"dense","out":1}]}`,
	"mask of the wrong length":  `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":2,"mask":[true]}]}`,
	// Valid formats, but not for the activation named (5 TanhCORDIC, 9
	// SigmoidCORDIC, 2 TanhLUT, 7 SigmoidTrunc).
	"cordic datapath too wide": `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":8,"FracBits":12},"layers":[{"type":"act","act":5}]}`,
	"sigmoid cordic too wide":  `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":6,"FracBits":20},"layers":[{"type":"act","act":9}]}`,
	"lut of 2^29 entries":      `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":15,"FracBits":16},"layers":[{"type":"act","act":2}]}`,
	"truncated lut past cap":   `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":10,"FracBits":20},"layers":[{"type":"act","act":7}]}`,
}

func TestHostileSpecsReturnErrors(t *testing.T) {
	for name, data := range hostileSpecs {
		t.Run(name, func(t *testing.T) {
			spec, err := UnmarshalSpec([]byte(data))
			if err != nil {
				t.Fatalf("the frame itself must decode (the test is of Build): %v", err)
			}
			net, err := spec.Build()
			if err == nil {
				t.Fatalf("Build accepted the spec: %s", net.Arch())
			}
		})
	}
	// The cap sits above the paper's largest model.
	if w := 5625*2000 + 2000*500 + 500*19 + 2000 + 500 + 19; w > MaxWeights {
		t.Fatalf("raw benchmark 4 has %d weights, over MaxWeights %d", w, MaxWeights)
	}
}

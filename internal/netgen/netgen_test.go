package netgen

import (
	"math/rand"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
)

// Count returns the gate statistics of the network's netlist by streaming
// it through a counting builder: the reference FastCount and Compile are
// checked against.
func Count(net *nn.Network, f fixed.Format, opt Options) (circuit.Stats, *Layout, error) {
	b := circuit.NewBuilder(circuit.Counter{}, circuit.WithRecycling())
	lay, err := Generate(b, net, f, opt)
	if err != nil {
		return circuit.Stats{}, nil, err
	}
	return b.Stats(), lay, nil
}

func smallDenseNet(t *testing.T, kind act.Kind) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(nn.Vec(4),
		nn.NewDense(3),
		nn.NewActivation(kind),
		nn.NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(1)))
	return net
}

func smallConvNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(nn.Shape{C: 1, H: 6, W: 6},
		nn.NewConv2D(2, 3, 1, 1),
		nn.NewActivation(act.ReLU),
		nn.NewMaxPool2D(2, 0),
		nn.NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(2)))
	return net
}

// bareConvNet is a convolution whose first map keeps one kernel weight, the
// top-left one, under a padding of 1: at the eleven positions of the top row
// and the left column that tap falls on padding, so the map's output there
// is its bias word itself — one word at eleven positions, which the
// activation behind it must read once and the layer after retire once.
func bareConvNet(t *testing.T, kind act.Kind, pooled bool) *nn.Network {
	t.Helper()
	layers := []nn.Layer{nn.NewConv2D(2, 3, 1, 1), nn.NewActivation(kind)}
	if pooled {
		layers = append(layers, nn.NewMaxPool2D(2, 0))
	}
	net, err := nn.NewNetwork(nn.Shape{C: 1, H: 6, W: 6}, append(layers, nn.NewDense(3))...)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(4)))
	c := net.Layers[0].(*nn.Conv2D)
	for i := 1; i < 9; i++ {
		c.Mask[i] = false
	}
	return net
}

func meanPoolNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(nn.Shape{C: 1, H: 4, W: 4},
		nn.NewConv2D(2, 3, 1, 1),
		nn.NewMeanPool2D(2),
		nn.NewDense(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(3)))
	return net
}

// buildNetlist materializes the network's netlist for plaintext testing:
// the gates Compile schedules, with wire ids never recycled.
func buildNetlist(t *testing.T, net *nn.Network, f fixed.Format, opt Options) (*circuit.Circuit, *Layout) {
	t.Helper()
	g := circuit.NewGraph()
	b := circuit.NewBuilder(g)
	lay, err := Generate(b, net, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g.Circuit(), lay
}

func bitsOf(f fixed.Format, xs []float64) []bool {
	var out []bool
	for _, x := range xs {
		out = append(out, f.FromFloatSat(x).Bits()...)
	}
	return out
}

func wordsFromBits(t *testing.T, f fixed.Format, bits []bool) []fixed.Num {
	t.Helper()
	n := f.Bits()
	out := make([]fixed.Num, len(bits)/n)
	for i := range out {
		v, err := f.FromBits(bits[i*n : (i+1)*n])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func TestNetlistMatchesForwardFixedDense(t *testing.T) {
	f := fixed.Default
	for _, kind := range []act.Kind{act.ReLU, act.TanhPL, act.SigmoidPLAN, act.TanhCORDIC} {
		net := smallDenseNet(t, kind)
		c, lay := buildNetlist(t, net, f, Options{RawScores: true})
		if lay.WeightBits != nn.WeightBitCount(net, f) {
			t.Fatalf("%v: layout weight bits %d != canonical %d", kind, lay.WeightBits, nn.WeightBitCount(net, f))
		}
		// The weights are the evaluator's inputs, so every MAC's partial
		// products are half ANDs and the equivalence below covers them.
		if st := c.Stats(); st.HalfAND == 0 || st.HalfAND >= st.AND {
			t.Fatalf("%v: netlist %+v has no half ANDs to check", kind, st)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, 4)
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			got, err := c.Eval(bitsOf(f, x), boolWeights(net, f))
			if err != nil {
				t.Fatal(err)
			}
			want := net.ForwardFixed(f, f.AppendVec(nil, x))
			gotN := wordsFromBits(t, f, got)
			for i := range want {
				if gotN[i].Raw() != want[i].Raw() {
					t.Fatalf("%v trial %d out %d: circuit %d vs software %d",
						kind, trial, i, gotN[i].Raw(), want[i].Raw())
				}
			}
		}
	}
}

func boolWeights(net *nn.Network, f fixed.Format) []bool {
	return nn.WeightBits(net, f)
}

func TestNetlistMatchesForwardFixedConv(t *testing.T) {
	f := fixed.Default
	for _, net := range []*nn.Network{smallConvNet(t), meanPoolNet(t),
		bareConvNet(t, act.ReLU, false), bareConvNet(t, act.TanhPL, true), bareConvNet(t, act.Identity, true)} {
		c, _ := buildNetlist(t, net, f, Options{RawScores: true})
		if st := c.Stats(); st.HalfAND == 0 {
			t.Fatalf("%s: netlist %+v has no half ANDs to check", net.Arch(), st)
		}
		rng := rand.New(rand.NewSource(8))
		x := make([]float64, net.In.Len())
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		got, err := c.Eval(bitsOf(f, x), boolWeights(net, f))
		if err != nil {
			t.Fatal(err)
		}
		want := net.ForwardFixed(f, f.AppendVec(nil, x))
		gotN := wordsFromBits(t, f, got)
		for i := range want {
			if gotN[i].Raw() != want[i].Raw() {
				t.Fatalf("%s out %d: circuit %d vs software %d", net.Arch(), i, gotN[i].Raw(), want[i].Raw())
			}
		}
	}
}

// TestSharedBareBiasCompiles: a convolution pruned to nothing at several
// positions of one map, with an activation behind it, used to read its bias
// word after retiring it — "undefined wire" from the schedule, a recycled
// wire on the streaming path. It compiles, with and without a pooling layer
// (whose windows hold the shared word more than once) and outsourced.
func TestSharedBareBiasCompiles(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for _, opt := range []Options{{}, {Outsourced: true}} {
			net := bareConvNet(t, act.ReLU, pooled)
			prog, err := Compile(net, fixed.Default, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", net.Arch(), opt, err)
			}
			if slow, _, err := Count(net, fixed.Default, opt); err != nil || slow.AND != prog.Schedule.ANDs {
				t.Errorf("%s %+v: streaming count %v (%v), compiled %d ANDs", net.Arch(), opt, slow, err, prog.Schedule.ANDs)
			}
		}
	}
}

func TestArgmaxOutputMatchesPredictFixed(t *testing.T) {
	f := fixed.Default
	net := smallDenseNet(t, act.ReLU)
	c, lay := buildNetlist(t, net, f, Options{})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		got, err := c.Eval(bitsOf(f, x), boolWeights(net, f))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != lay.OutputBits {
			t.Fatalf("got %d output bits, layout says %d", len(got), lay.OutputBits)
		}
		idx := 0
		for i, bit := range got {
			if bit {
				idx |= 1 << uint(i)
			}
		}
		if want := net.PredictFixed(f, x); idx != want {
			t.Fatalf("trial %d: circuit label %d, software label %d", trial, idx, want)
		}
	}
}

func TestOutsourcedSharesReconstruct(t *testing.T) {
	f := fixed.Default
	net := smallDenseNet(t, act.ReLU)
	c, lay := buildNetlist(t, net, f, Options{Outsourced: true})
	if lay.ShareBits != lay.DataBits {
		t.Fatalf("share bits %d != data bits %d", lay.ShareBits, lay.DataBits)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		xb := bitsOf(f, x)
		// XOR-share the input (§3.3): s random, t = x ⊕ s.
		s := make([]bool, len(xb))
		tt := make([]bool, len(xb))
		for i := range xb {
			s[i] = rng.Intn(2) == 1
			tt[i] = xb[i] != s[i]
		}
		evalIn := append(append([]bool{}, tt...), boolWeights(net, f)...)
		got, err := c.Eval(s, evalIn)
		if err != nil {
			t.Fatal(err)
		}
		idx := 0
		for i, bit := range got {
			if bit {
				idx |= 1 << uint(i)
			}
		}
		if want := net.PredictFixed(f, x); idx != want {
			t.Fatalf("outsourced trial %d: label %d, want %d", trial, idx, want)
		}
	}
}

func TestOutsourcingOverheadIsFree(t *testing.T) {
	// §3.3: the share-recombination layer adds only XOR gates — the
	// non-XOR count must be identical with and without outsourcing.
	f := fixed.Default
	net := smallDenseNet(t, act.ReLU)
	plain, _, err := Count(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := Count(net, f, Options{Outsourced: true})
	if err != nil {
		t.Fatal(err)
	}
	if outs.AND != plain.AND {
		t.Errorf("outsourcing changed non-XOR count: %d vs %d", outs.AND, plain.AND)
	}
	if outs.XOR <= plain.XOR {
		t.Errorf("outsourcing should add XOR gates: %d vs %d", outs.XOR, plain.XOR)
	}
}

func TestCountMatchesMaterialized(t *testing.T) {
	f := fixed.Default
	net := smallConvNet(t)
	c, _ := buildNetlist(t, net, f, Options{})
	mat := c.Stats()
	cnt, _, err := Count(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mat.AND != cnt.AND || mat.XOR != cnt.XOR {
		t.Errorf("count %v vs materialized %v", cnt, mat)
	}
}

func TestStreamingMemoryBounded(t *testing.T) {
	// The recycling builder must keep the live wire set orders of
	// magnitude below the total wire count (§3.5).
	f := fixed.Default
	net := smallConvNet(t)
	cnt, _, err := Count(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.MaxLive <= 0 {
		t.Fatal("MaxLive not tracked")
	}
	if cnt.MaxLive > cnt.Total()/4 {
		t.Errorf("streaming live set %d vs %d total gates — not bounded", cnt.MaxLive, cnt.Total())
	}
}

func TestPruningReducesGatesAndWeights(t *testing.T) {
	f := fixed.Default
	net := smallDenseNet(t, act.ReLU)
	before, layBefore, err := Count(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Prune half of the first layer.
	d := net.Layers[0].(*nn.Dense)
	for i := 0; i < len(d.Mask); i += 2 {
		d.Mask[i] = false
	}
	after, layAfter, err := Count(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.AND >= before.AND {
		t.Errorf("pruning did not reduce non-XOR: %d vs %d", after.AND, before.AND)
	}
	if layAfter.WeightBits >= layBefore.WeightBits {
		t.Errorf("pruning did not reduce weight bits: %d vs %d", layAfter.WeightBits, layBefore.WeightBits)
	}
}

func TestSpecBuiltNetGeneratesIdenticalNetlist(t *testing.T) {
	// The client generates from the weightless spec; the server from the
	// real network. The netlists must agree gate-for-gate.
	f := fixed.Default
	net := smallConvNet(t)
	d := net.Layers[3].(*nn.Dense)
	d.Mask[1] = false // include a sparsity map in the spec

	spec := net.Spec(f)
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := nn.UnmarshalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	clientNet, err := spec2.Build()
	if err != nil {
		t.Fatal(err)
	}

	gServer := circuit.NewGraph()
	if _, err := Generate(circuit.NewBuilder(gServer), net, f, Options{}); err != nil {
		t.Fatal(err)
	}
	gClient := circuit.NewGraph()
	if _, err := Generate(circuit.NewBuilder(gClient), clientNet, f, Options{}); err != nil {
		t.Fatal(err)
	}
	cs, cc := gServer.Circuit(), gClient.Circuit()
	if len(cs.Gates) != len(cc.Gates) {
		t.Fatalf("gate counts differ: %d vs %d", len(cs.Gates), len(cc.Gates))
	}
	for i := range cs.Gates {
		if cs.Gates[i] != cc.Gates[i] {
			t.Fatalf("gate %d differs: %+v vs %+v", i, cs.Gates[i], cc.Gates[i])
		}
	}
}

func TestPaperMVMScalingShape(t *testing.T) {
	// Table 3 last row: MVM gate count scales ~linearly in m·n.
	f := fixed.Default
	count := func(m, n int) int64 {
		net, err := nn.NewNetwork(nn.Vec(m), nn.NewDense(n))
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := Count(net, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s.AND
	}
	c24 := count(2, 4)
	c48 := count(4, 8)
	ratio := float64(c48) / float64(c24)
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("MVM scaling ratio = %.2f, want ≈4 (m·n quadrupled)", ratio)
	}
}

func TestFastCountMatchesStreamingCount(t *testing.T) {
	f := fixed.Default
	nets := []*nn.Network{
		smallDenseNet(t, act.TanhCORDIC),
		smallDenseNet(t, act.SigmoidPLAN),
		// Activations whose output word has structure of its own —
		// constant and repeated bits the next layer's multipliers fold.
		smallDenseNet(t, act.TanhPL),
		smallDenseNet(t, act.TanhLUT),
		smallConvNet(t),
		meanPoolNet(t),
		// One bias word at several positions of a map, activated once.
		bareConvNet(t, act.ReLU, false),
		bareConvNet(t, act.TanhPL, false),
	}
	// Add a pruned variant.
	pruned := smallDenseNet(t, act.ReLU)
	d := pruned.Layers[0].(*nn.Dense)
	for i := 0; i < len(d.Mask); i += 2 {
		d.Mask[i] = false
	}
	nets = append(nets, pruned)
	// And rows pruned to nothing: their output is the bias word itself, an
	// evaluator input that reaches the activation (and, through Identity,
	// the next layer's multipliers) untouched.
	for _, kind := range []act.Kind{act.ReLU, act.SigmoidPLAN, act.Identity} {
		bare := smallDenseNet(t, kind)
		d = bare.Layers[0].(*nn.Dense)
		for i := range d.Mask {
			d.Mask[i] = i/d.InN != 1 && i != 0
		}
		nets = append(nets, bare)
	}

	for _, net := range nets {
		for _, opt := range []Options{{}, {RawScores: true}, {Outsourced: true}} {
			slow, layS, err := Count(net, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			fast, layF, err := FastCount(net, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			if slow.AND != fast.AND || slow.HalfAND != fast.HalfAND || slow.XOR != fast.XOR || slow.INV != fast.INV {
				t.Errorf("%s %+v: fast %v (%d half) vs streaming %v (%d half)", net.Arch(), opt, fast, fast.HalfAND, slow, slow.HalfAND)
			}
			if slow.HalfAND == 0 || slow.Ciphertexts() != fast.Ciphertexts() {
				t.Errorf("%s %+v: %d half ANDs; %d ciphertexts streaming, %d fast", net.Arch(), opt, slow.HalfAND, slow.Ciphertexts(), fast.Ciphertexts())
			}
			if layS.WeightBits != layF.WeightBits || layS.DataBits != layF.DataBits ||
				layS.OutputBits != layF.OutputBits || layS.ShareBits != layF.ShareBits {
				t.Errorf("%s %+v: layout fast %+v vs streaming %+v", net.Arch(), opt, layF, layS)
			}
		}
	}
}

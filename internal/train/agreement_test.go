package train

import (
	"math/rand"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/datasets"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
)

// TestFixedAgreesWithFloatOnDatasets trains a small MLP on scaled versions
// of the three synthetic datasets, with a ReLU and with a CORDIC Tanh, and
// checks that the fixed-point model — bit for bit what the garbled circuit
// computes — labels the data as the float model does. Features are scaled
// by 1/8 and the weights decayed, which keeps every pre-activation inside
// Q3.12's ±8, so what disagreement remains is rounding. The floors sit a
// few points under the rates measured with the Baugh-Wooley multiplier the
// Booth array replaced (listed below); the test logs the current ones.
func TestFixedAgreesWithFloatOnDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("trains six models")
	}
	for _, c := range []struct {
		data  datasets.Config
		kind  act.Kind
		floor float64
	}{
		// Baugh-Wooley: 150/150, 150/150, 159/162, 162/162, 150/150, 150/150.
		{datasets.Scaled(datasets.MNISTLike(11), 8), act.ReLU, 0.97},
		{datasets.Scaled(datasets.MNISTLike(11), 8), act.TanhCORDIC, 0.97},
		{datasets.Scaled(datasets.AudioLike(12), 8), act.ReLU, 0.95},
		{datasets.Scaled(datasets.AudioLike(12), 8), act.TanhCORDIC, 0.97},
		{datasets.Scaled(datasets.SensingLike(13), 32), act.ReLU, 0.97},
		{datasets.Scaled(datasets.SensingLike(13), 32), act.TanhCORDIC, 0.97},
	} {
		set, err := datasets.Generate(c.data)
		if err != nil {
			t.Fatal(err)
		}
		net, err := nn.NewNetwork(nn.Vec(c.data.Dim), nn.NewDense(16), nn.NewActivation(c.kind), nn.NewDense(c.data.Classes))
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(rand.New(rand.NewSource(1)))
		cfg := DefaultConfig()
		cfg.WeightDecay = 0.1
		train, test := scaled(set.TrainX), scaled(set.TestX)
		if _, err := Run(net, train, set.TrainY, cfg); err != nil {
			t.Fatal(err)
		}
		xs := append(append([][]float64{}, train...), test...)
		agree := 0
		for _, x := range xs {
			if net.PredictFixed(fixed.Default, x) == net.Predict(x) {
				agree++
			}
		}
		rate := float64(agree) / float64(len(xs))
		t.Logf("%s %v: fixed agrees with float on %d of %d samples (%.4f), test accuracy %.3f", c.data.Name, c.kind, agree, len(xs), rate, Accuracy(net, test, set.TestY))
		if rate < c.floor {
			t.Errorf("%s %v: agreement %.4f below its floor %.2f", c.data.Name, c.kind, rate, c.floor)
		}
	}
}

// scaled returns xs times 1/8.
func scaled(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = make([]float64, len(x))
		for j, v := range x {
			out[i][j] = v / 8
		}
	}
	return out
}

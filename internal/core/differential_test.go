package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// differentialRun is one session of TestInferenceDifferential: two
// InferBatch calls of b samples each, every label checked against want.
type differentialRun struct {
	perInfer     []*Stats
	session, srv *Stats
	c2s, s2c     []byte
}

func runDifferentialSession(t *testing.T, name string, net *nn.Network, f fixed.Format, b, workers int, samples [][]float64, want []int) differentialRun {
	t.Helper()
	c2s, s2c := newLogHalf(), newLogHalf()
	cConn := transport.New(logDuplex{r: s2c, w: c2s})
	sConn := transport.New(logDuplex{r: c2s, w: s2c})
	// A pool that holds the session's 2·B ≤ 6 samples and never refills
	// before it ends, so no refill draws the client rng mid-session and the
	// transcripts of two worker counts compare byte for byte.
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(503)), Engine: EngineConfig{Workers: workers},
		OTPool: precomp.PoolConfig{Capacity: 6*len(nn.WeightBits(net, f)) + 1, RefillLowWater: 1}}
	var wg sync.WaitGroup
	var srvErr error
	var out differentialRun
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.srv, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(504)), Engine: EngineConfig{Workers: workers, chunkBytes: 2048}}
	defer cli.Close()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for k := 0; k < 2; k++ {
		labels, st, err := sess.InferBatch(samples[k*b : (k+1)*b])
		if err != nil {
			t.Fatalf("%s inference %d: %v", name, k, err)
		}
		for i, l := range labels {
			if l != want[k*b+i] {
				t.Fatalf("%s inference %d sample %d: label %d, plaintext %d", name, k, i, l, want[k*b+i])
			}
		}
		out.perInfer = append(out.perInfer, st)
	}
	out.session = sess.Stats()
	if err := sess.Close(); err != nil {
		t.Fatalf("%s: close: %v", name, err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("%s: server: %v", name, srvErr)
	}
	out.c2s, out.s2c = c2s.bytesWritten(), s2c.bytesWritten()
	return out
}

// randomModel draws a small network around activation kind: a dense stack
// (each layer pruned by a random public mask, or not) or a convolution
// under a max- or mean-pool, every size from r. The look-up-table
// realisations grow with 2^width, so they get an 8-bit format.
func randomModel(t *testing.T, r *rand.Rand, kind act.Kind) (*nn.Network, fixed.Format) {
	t.Helper()
	f := fixed.Default
	switch kind {
	case act.TanhLUT, act.TanhTrunc, act.SigmoidLUT, act.SigmoidTrunc:
		f = fixed.Format{IntBits: 2, FracBits: 5}
	}
	in, layers := nn.Vec(3+r.Intn(3)), []nn.Layer{nn.NewDense(2 + r.Intn(3))}
	if r.Intn(2) == 0 {
		pool := nn.Layer(nn.NewMaxPool2D(2, 2))
		if r.Intn(2) == 0 {
			pool = nn.NewMeanPool2D(2)
		}
		in, layers = nn.Shape{C: 1, H: 4, W: 4}, []nn.Layer{nn.NewConv2D(1+r.Intn(2), 2, 2, 0), pool}
	}
	layers = append(layers, nn.NewActivation(kind), nn.NewDense(2+r.Intn(3)))
	net, err := nn.NewNetwork(in, layers...)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(r)
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok && r.Intn(2) == 0 {
			for i := range d.Mask {
				d.Mask[i] = r.Intn(3) > 0
			}
		}
	}
	return net, f
}

// TestInferenceDifferential runs the one inference path across everything
// that selects a branch inside it — batch size B ∈ {1, 3} × Workers ∈
// {1, 4} — two inferences of B samples per session, plus one outsourced
// inference, on networks drawn from a seeded generator: one per activation
// realisation (the look-up-table ones skipped under -short), between them
// every layer kind. Every label must equal PredictFixed; the Stats must
// count samples and gate instances the same way on every path, and every
// inference pays online garble time; and the wire bytes must not depend on
// the worker count.
func TestInferenceDifferential(t *testing.T) {
	kinds := []act.Kind{act.ReLU, act.TanhPL, act.TanhCORDIC, act.SigmoidPLAN, act.SigmoidCORDIC}
	if !testing.Short() {
		kinds = append(kinds, act.TanhLUT, act.TanhTrunc, act.SigmoidLUT, act.SigmoidTrunc)
	}
	rng := rand.New(rand.NewSource(79))
	drawn := make(map[string]bool)
	for _, kind := range kinds {
		net, f := randomModel(t, rng, kind)
		for _, l := range net.Layers {
			name := fmt.Sprintf("%T", l)
			if d, ok := l.(*nn.Dense); ok && d.ActiveWeights() != len(d.W) {
				name += "+Mask"
			}
			drawn[name] = true
		}
		samples := make([][]float64, 6)
		want := make([]int, len(samples))
		for i := range samples {
			samples[i] = make([]float64, net.In.Len())
			for j := range samples[i] {
				samples[i][j] = rng.Float64()*2 - 1
			}
			want[i] = net.PredictFixed(f, samples[i])
		}
		t.Run(fmt.Sprintf("%v/%s", kind, net.Arch()), func(t *testing.T) {
			t.Parallel()
			differential(t, net, f, samples, want)
		})
	}
	for _, name := range []string{"*nn.Dense", "*nn.Dense+Mask", "*nn.Conv2D", "*nn.MaxPool2D", "*nn.MeanPool2D"} {
		if !drawn[name] {
			t.Errorf("no drawn network has a %s layer: pick another seed", name)
		}
	}
}

// differential is TestInferenceDifferential on one network.
func differential(t *testing.T, net *nn.Network, f fixed.Format, samples [][]float64, want []int) {
	prog, err := (&Server{Net: net, Fmt: f}).Program()
	if err != nil {
		t.Fatal(err)
	}
	ands := prog.Schedule.ANDs
	if label, _, err := outsourcedInfer(t, net, f, samples[0]); err != nil || label != want[0] {
		t.Fatalf("outsourced: label %d, %v; plaintext %d", label, err, want[0])
	}
	for _, b := range []int{1, 3} {
		n := int64(b)
		var first differentialRun
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("B=%d/workers=%d", b, workers)
			run := runDifferentialSession(t, name, net, f, b, workers, samples, want)
			for k, st := range run.perInfer {
				if st.Inferences != n || st.ANDGates != ands*n || st.GateTime <= 0 {
					t.Fatalf("%s inference %d stats: %+v", name, k, st)
				}
			}
			if st := run.session; st.Inferences != 2*n || st.ANDGates != 2*ands*n {
				t.Fatalf("%s session stats: %+v", name, st)
			}
			if st := run.srv; st.Inferences != 2*n || st.ANDGates != 2*ands*n {
				t.Fatalf("%s server stats: %+v", name, st)
			}
			if first.c2s == nil {
				first = run
			} else if !bytes.Equal(first.c2s, run.c2s) || !bytes.Equal(first.s2c, run.s2c) {
				t.Fatalf("%s: transcript differs from the workers=1 run's", name)
			}
		}
	}
}

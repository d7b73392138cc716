package core

import (
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/transport"
)

// The tests below keep the names they had when a session's weight labels
// came from an OT pool refilled between inferences. The session's W weight
// labels, transferred once by the set-up OT, are what is left of that pool.

// inferManyWith runs one multi-inference session under the given engine
// configuration on both sides and returns the labels plus both parties'
// session stats.
func inferManyWith(t *testing.T, net *nn.Network, xs [][]float64, cfg EngineConfig) ([]int, *Stats, *Stats) {
	t.Helper()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(301)), Engine: cfg}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(302)), Engine: cfg}
	labels, st, err := cli.InferMany(cConn, xs)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return labels, st, srvStats
}

// TestOTPoolEndToEndConformance is the protocol-level acceptance test of
// the set-up OT: predictions must exactly match the plaintext reference
// serially and pipelined, on one worker and four, and both parties must
// account for the same W OTs and their time.
func TestOTPoolEndToEndConformance(t *testing.T) {
	net := testNet(t, act.ReLU, 71)
	rng := rand.New(rand.NewSource(72))
	xs := make([][]float64, 4)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(fixed.Default, xs[i])
	}

	for name, cfg := range map[string]EngineConfig{
		"serial":    {Workers: 1, Pipeline: 1},
		"pipelined": {Workers: 1, Pipeline: 2},
		"workers=4": {Workers: 4, Pipeline: 2},
	} {
		labels, cliSt, srvSt := inferManyWith(t, net, xs, cfg)
		for i := range xs {
			if labels[i] != want[i] {
				t.Fatalf("%s sample %d: label %d, plaintext %d", name, i, labels[i], want[i])
			}
		}
		if cliSt.OTsConsumed != testNetWeightBits || srvSt.OTsConsumed != testNetWeightBits {
			t.Errorf("%s: OT accounting (client %d, server %d), want W = %d on both",
				name, cliSt.OTsConsumed, srvSt.OTsConsumed, testNetWeightBits)
		}
		if cliSt.OTOfflineTime <= 0 || srvSt.OTOfflineTime <= 0 {
			t.Errorf("%s: set-up OT time not recorded", name)
		}
	}
}

// TestOTPoolSustainedTrafficRefills drives a long session: however many
// inferences follow, the weight labels are never transferred again — both
// parties' OT count stays the set-up's W — and every label is right.
func TestOTPoolSustainedTrafficRefills(t *testing.T) {
	net := testNet(t, act.ReLU, 73)
	rng := rand.New(rand.NewSource(74))
	xs := make([][]float64, 12)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	labels, cliSt, srvSt := inferManyWith(t, net, xs, EngineConfig{})
	for i := range xs {
		if want := net.PredictFixed(fixed.Default, xs[i]); labels[i] != want {
			t.Fatalf("sample %d: label %d, want %d", i, labels[i], want)
		}
	}
	if srvSt.Inferences != int64(len(xs)) || srvSt.OTsConsumed != testNetWeightBits || cliSt.OTsConsumed != testNetWeightBits {
		t.Errorf("%d inferences ran %d OTs on the server, %d on the client; want W = %d",
			srvSt.Inferences, srvSt.OTsConsumed, cliSt.OTsConsumed, testNetWeightBits)
	}
}

// TestOTPoolPerInferenceStats pins the per-inference stats split: an
// inference does no OT work at all, and the session's totals hold the
// set-up OT's W OTs and its time.
func TestOTPoolPerInferenceStats(t *testing.T) {
	net := testNet(t, act.ReLU, 75)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(303))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.ServeSession(sConn); err != nil {
			t.Error(err)
		}
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(304))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 6)
	_, st, err := sess.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.OTsConsumed != 0 || st.OTOfflineTime != 0 {
		t.Errorf("an inference charged for OT work: %+v", st)
	}
	total := sess.Stats()
	if total.OTsConsumed != testNetWeightBits || total.OTOfflineTime <= 0 {
		t.Errorf("session totals missing the set-up OT: %+v", total)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

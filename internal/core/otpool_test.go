package core

import (
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// inferManyWithPool runs one multi-inference session against a server
// configured with the given OT-pool policy and returns the labels plus
// both parties' session stats.
func inferManyWithPool(t *testing.T, net *nn.Network, xs [][]float64, cfg precomp.PoolConfig) ([]int, *Stats, *Stats) {
	t.Helper()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(301)), OTPool: cfg}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(302))}
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

// TestOTPoolEndToEndConformance is the protocol-level acceptance test:
// predictions must exactly match the plaintext reference whatever the pool
// policy — the derived default, foreground and background refill, a pool
// far below one inference's demand — and both parties must account for the
// same pool traffic.
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

	for name, cfg := range map[string]precomp.PoolConfig{
		"derived":    {},
		"foreground": {Capacity: 4096, RefillLowWater: 1024},
		"background": {Capacity: 4096, RefillLowWater: 2048, Background: true},
		"tiny":       {Capacity: 64, RefillLowWater: 16},
	} {
		labels, cliSt, srvSt := inferManyWithPool(t, net, xs, cfg)
		for i := range xs {
			if labels[i] != want[i] {
				t.Fatalf("%s sample %d: label %d, plaintext %d", name, i, labels[i], want[i])
			}
		}
		if cliSt.OTsConsumed == 0 || srvSt.OTsConsumed == 0 {
			t.Errorf("%s: no pooled OTs consumed (client %d, server %d)",
				name, cliSt.OTsConsumed, srvSt.OTsConsumed)
		}
		if cliSt.OTsPooled != srvSt.OTsPooled || cliSt.OTsConsumed != srvSt.OTsConsumed {
			t.Errorf("%s: pool accounting diverges (client %d/%d, server %d/%d)",
				name, cliSt.OTsPooled, cliSt.OTsConsumed, srvSt.OTsPooled, srvSt.OTsConsumed)
		}
		if cliSt.OTOfflineTime <= 0 || srvSt.OTOfflineTime <= 0 {
			t.Errorf("%s: offline OT time not recorded", name)
		}
	}
}

// TestOTPoolSustainedTrafficRefills drives InferMany traffic through a
// pool far smaller than one inference's OT demand: exhaustion must block
// on refill exchanges (correct results, refill count > inferences) and
// the single-use invariant generated >= consumed must hold throughout.
func TestOTPoolSustainedTrafficRefills(t *testing.T) {
	net := testNet(t, act.ReLU, 73)
	rng := rand.New(rand.NewSource(74))
	xs := make([][]float64, 3)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	// Weight bits per inference ≈ (6·5+5 + 5·4+4)·16 = 944 OTs; a
	// 100-entry pool exhausts several times per inference.
	labels, cliSt, srvSt := inferManyWithPool(t, net, xs,
		precomp.PoolConfig{Capacity: 100, RefillLowWater: 10})
	for i := range xs {
		if want := net.PredictFixed(fixed.Default, xs[i]); labels[i] != want {
			t.Fatalf("sample %d: label %d, want %d", i, labels[i], want)
		}
	}
	if srvSt.OTRefills <= srvSt.Inferences {
		t.Errorf("tiny pool refilled only %d times over %d inferences", srvSt.OTRefills, srvSt.Inferences)
	}
	if srvSt.OTsPooled < srvSt.OTsConsumed {
		t.Errorf("server consumed %d pooled OTs but generated %d — reuse", srvSt.OTsConsumed, srvSt.OTsPooled)
	}
	if cliSt.OTsPooled < cliSt.OTsConsumed {
		t.Errorf("client consumed %d pooled OTs but generated %d — reuse", cliSt.OTsConsumed, cliSt.OTsPooled)
	}
}

// TestOTPoolPerInferenceStats pins the per-inference stats split: each
// Infer reports its own online OT work, and pooled sessions put the bulk
// generation in the offline column.
func TestOTPoolPerInferenceStats(t *testing.T) {
	net := testNet(t, act.ReLU, 75)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(303)),
		OTPool: precomp.PoolConfig{Capacity: 4096}}
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
	if st.OTsConsumed == 0 || st.OTOnlineTime <= 0 {
		t.Errorf("per-inference OT stats not populated: %+v", st)
	}
	if st.OTsPooled != 0 || st.OTRefills != 0 {
		t.Errorf("first inference charged for the setup fill: %+v", st)
	}
	total := sess.Stats()
	if total.OTsPooled < 4096 || total.OTRefills < 1 || total.OTOfflineTime <= 0 {
		t.Errorf("session totals missing offline fill: %+v", total)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

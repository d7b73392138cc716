package deepsecure

import (
	"math/rand"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"deepsecure/internal/datasets"
	"deepsecure/internal/obs"
)

// TestPublicAPIRoundTrip exercises the whole facade the way the README's
// quickstart does: build, train, prune, and run a secure inference.
func TestPublicAPIRoundTrip(t *testing.T) {
	set, err := datasets.Generate(datasets.Config{
		Name: "api", Dim: 10, Classes: 3, Rank: 4, Noise: 0.05,
		Train: 200, Test: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Vec(10),
		NewDense(8),
		NewActivation(TanhPL),
		NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(2)))
	cfg := DefaultTrainConfig()
	cfg.Epochs = 8
	if _, err := Train(net, set.TrainX, set.TrainY, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, set.TestX, set.TestY); acc < 0.7 {
		t.Fatalf("facade training failed: accuracy %.2f", acc)
	}

	rep, err := Prune(net, 0.4, set.TrainX, set.TrainY, set.TestX, set.TestY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DensityAfter >= rep.DensityBefore {
		t.Fatalf("prune did not reduce density: %+v", rep)
	}

	stats, err := NetlistStats(net, DefaultFormat)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NonXOR() == 0 {
		t.Fatal("netlist stats empty")
	}

	cConn, sConn, closer := Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvErr = Serve(sConn, net, DefaultFormat)
	}()
	x := set.TestX[0]
	label, st, err := Infer(cConn, x)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("serve: %v", srvErr)
	}
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	if want := net.PredictFixed(DefaultFormat, x); label != want {
		t.Fatalf("secure label %d, plaintext %d", label, want)
	}
	if st.BytesSent == 0 || st.Duration <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// TestInferBatchFacade exercises the batched-inference facade: one
// fused InferBatch call against a server with a configured batch cap, with
// every sample's label checked against the plaintext forward pass.
func TestInferBatchFacade(t *testing.T) {
	net, err := NewNetwork(Vec(6),
		NewDense(5),
		NewActivation(ReLU),
		NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(7)))
	rng := rand.New(rand.NewSource(8))
	const b = 3
	xs := make([][]float64, b)
	want := make([]int, b)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(DefaultFormat, xs[i])
	}
	cConn, sConn, closer := Pipe()
	defer closer.Close()
	srv := &SessionServer{Net: net, Fmt: DefaultFormat, Engine: EngineConfig{MaxBatch: b}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	labels, st, err := InferBatch(cConn, xs)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("serve: %v", srvErr)
	}
	if err != nil {
		t.Fatalf("infer batch: %v", err)
	}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("sample %d: secure label %d, plaintext %d", i, labels[i], want[i])
		}
	}
	if st.Inferences != b {
		t.Fatalf("stats count %d inferences, want %d", st.Inferences, b)
	}
}

// TestClientProcessExportsItsInferences scrapes MetricsHandler the way a
// client process's operator would. The server runs in this process too, so
// its sessions are put under a ledger of their own, off the registry: what
// the scrape gains is then exactly what the client recorded — its
// inferences, its one batch, their latency, and the pooled OTs it spent
// masking weight labels.
func TestClientProcessExportsItsInferences(t *testing.T) {
	net, err := NewNetwork(Vec(6), NewDense(5), NewActivation(ReLU), NewDense(3))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(11)))
	scrape := func() map[string]float64 {
		rec := httptest.NewRecorder()
		MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		out := map[string]float64{}
		for _, m := range regexp.MustCompile(`(?m)^(deepsecure_\w+) (\S+)$`).FindAllStringSubmatch(rec.Body.String(), -1) {
			out[m[1]], _ = strconv.ParseFloat(m[2], 64)
		}
		return out
	}
	before := scrape()

	cConn, sConn, closer := Pipe()
	defer closer.Close()
	srv := &SessionServer{Net: net, Fmt: DefaultFormat}
	srv.SetMetrics(obs.NewSet(nil))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sConn) }()
	sess, err := OpenSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 6)
	if _, _, err := sess.Infer(x); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.InferBatch([][]float64{x, x}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	after := scrape()
	st := sess.Stats()
	for name, want := range map[string]float64{
		"deepsecure_inferences_total":        3,
		"deepsecure_batches_total":           1,
		"deepsecure_inference_seconds_count": 2,
		"deepsecure_ot_consumed_total":       float64(st.OTsConsumed),
		"deepsecure_sessions_total":          0, // the server's to count, and it is off the registry
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %v, want %v", name, got, want)
		}
	}
	if st.OTsConsumed == 0 {
		t.Error("the session consumed no pooled OTs")
	}
}

func TestProjectFacade(t *testing.T) {
	set, err := datasets.Generate(datasets.Config{
		Name: "api-proj", Dim: 32, Classes: 3, Rank: 6, Noise: 0.04,
		Train: 300, Test: 80, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultProjectConfig()
	cfg.Retrain.Epochs = 4
	res, err := ProjectFit(set.TrainX, set.TrainY, set.TestX, set.TestY, cfg,
		func(in int) (*Network, error) {
			net, err := NewNetwork(Vec(in), NewDense(10), NewActivation(ReLU), NewDense(3))
			if err != nil {
				return nil, err
			}
			net.InitWeights(rand.New(rand.NewSource(4)))
			return net, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Atoms >= 32 {
		t.Errorf("no compression: %d atoms", res.Atoms)
	}
	// The projected pipeline must still classify.
	emb := res.EmbedAll(set.TestX)
	if acc := Accuracy(res.Net, emb, set.TestY); acc < 0.7 {
		t.Errorf("projected accuracy %.2f", acc)
	}
}

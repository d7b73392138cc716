package core

import (
	"math/rand"
	"net"
	"runtime"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/transport"
)

// TestInferenceAllocBudget bounds the bytes a warm session allocates per
// inference (runtime.MemStats.TotalAlloc, both parties in one process) on
// loopback TCP, 16-8-ReLU-4 with one worker. Table and input-label frames
// go back to the transport's size-class pools once read, and the garbler's
// label staging stays with the session: 8.1 kB per inference at B = 1 and
// 18.3 kB at B = 16, against 233 kB and 11.3 MB while every frame was a
// fresh allocation. The budgets are 1.25 × that. Each batch size counts the
// best of several rounds, so a GC that empties the pools during one round
// does not fail the test.
func TestInferenceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of what sync.Pool is given back")
	}
	net16, err := nn.NewNetwork(nn.Vec(16), nn.NewDense(8), nn.NewActivation(act.ReLU), nn.NewDense(4))
	if err != nil {
		t.Fatal(err)
	}
	net16.InitWeights(rand.New(rand.NewSource(20180624)))
	cfg := EngineConfig{Workers: 1}
	srv := &Server{Net: net16, Fmt: fixed.Default, Engine: cfg}
	cli := &Client{Engine: cfg}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		_, err = srv.ServeSession(transport.New(c))
		served <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := cli.NewSession(transport.New(c))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		batch  int
		budget float64 // bytes per inference
	}{{1, 10.2e3}, {16, 22.9e3}} {
		xs := make([][]float64, tc.batch)
		for i := range xs {
			xs[i] = make([]float64, 16)
			for j := range xs[i] {
				xs[i][j] = rng.Float64()*2 - 1
			}
		}
		infer := func() {
			if _, _, err := sess.InferBatch(xs); err != nil {
				t.Fatal(err)
			}
		}
		for range 4 {
			infer()
		}
		const rounds, per = 3, 8
		best := uint64(1 << 63)
		for range rounds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range per {
				infer()
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/per)
		}
		if float64(best) > tc.budget {
			t.Errorf("B=%d: a warm inference allocated %.1f kB, budget %.1f kB", tc.batch, float64(best)/1e3, tc.budget/1e3)
		} else {
			t.Logf("B=%d: a warm inference allocated %.1f kB", tc.batch, float64(best)/1e3)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestSessionSetupAllocBudget bounds the bytes both parties allocate for a
// repeat session's set-up (runtime.MemStats.TotalAlloc, one process, on
// loopback TCP): the client's NewSession and Close against the server's
// ServeSession on mlp_churn's 8-4-ReLU-2 model, whose pair holds 1 056
// weight labels. The garbler's table chunk and both label arrays come from
// the engine pools, and a repeat session runs no OT: it allocated 30.3 kB,
// 16.9 kB of them the session's copy of the pair's weight zero-labels
// (Client.resume), where it had allocated 277 kB running a set-up OT on
// every session. The budget is 1.25 × that, over the best of several
// rounds.
func TestSessionSetupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of what sync.Pool is given back")
	}
	model, err := nn.NewNetwork(nn.Vec(8), nn.NewDense(4), nn.NewActivation(act.ReLU), nn.NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(rand.New(rand.NewSource(20180624)))
	cfg := EngineConfig{Workers: 1}
	srv := &Server{Net: model, Fmt: fixed.Default, Engine: cfg}
	cli := &Client{Engine: cfg}
	defer cli.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, err = srv.ServeSession(transport.New(c))
			c.Close()
			served <- err
		}
	}()
	session := func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess, err := cli.NewSession(transport.New(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	for range 4 { // the first files the pair, the rest warm the pools
		session()
	}
	const rounds, per, budget = 3, 8, 1.25 * 30.3e3
	best := uint64(1 << 63)
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range per {
			session()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/per)
	}
	if float64(best) > budget {
		t.Errorf("a repeat session's set-up allocated %.1f kB, budget %.1f kB", float64(best)/1e3, budget/1e3)
	} else {
		t.Logf("a repeat session's set-up allocated %.1f kB", float64(best)/1e3)
	}
}

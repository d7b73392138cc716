package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/obs"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// An injected panic inside one session's evaluation goroutine must tear
// down exactly that session — surfacing as a session error and a
// deepsecure_panics_total tick — while a concurrent session on the same
// Server keeps completing inferences correctly. This is the containment
// contract the per-goroutine recover boundaries exist for: a bug (or a
// hostile input that finds one) costs its own session, never the
// process.
func TestEvalPanicTearsDownOnlyItsSession(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	panics0 := obs.PanicCount()

	f := fixed.Default
	net := testNet(t, act.ReLU, 61)
	// nil Rng (crypto/rand) so the one Server may serve both sessions
	// concurrently.
	srv := &Server{Net: net, Fmt: f, Engine: EngineConfig{Workers: 2}}

	// The hook detonates only in batched contexts (batch == 2), so the
	// batch client's session is deterministically the doomed one and the
	// singles session never trips it.
	evalPanicHook = func(batch int) {
		if batch == 2 {
			panic("injected evaluation panic")
		}
	}
	defer func() { evalPanicHook = nil }()

	// Healthy session: pipelined singles, opened first and closed last so
	// it is live across the other session's entire lifetime.
	hClient, hServer, hCloser := transport.Pipe()
	defer hCloser.Close()
	var hwg sync.WaitGroup
	var healthyErr error
	hwg.Add(1)
	go func() {
		defer hwg.Done()
		_, healthyErr = srv.ServeSession(hServer)
	}()
	hCli := &Client{Engine: EngineConfig{Workers: 2}}
	hSess, err := hCli.NewSession(hClient)
	if err != nil {
		t.Fatalf("open healthy session: %v", err)
	}
	rng := rand.New(rand.NewSource(62))
	sample := func() []float64 {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		return x
	}
	infer := func(when string) {
		t.Helper()
		x := sample()
		want := net.PredictFixed(f, x)
		got, _, err := hSess.Infer(x)
		if err != nil {
			t.Fatalf("healthy inference %s: %v", when, err)
		}
		if got != want {
			t.Fatalf("healthy inference %s: secure label %d, plaintext label %d", when, got, want)
		}
	}
	infer("before panic")

	// Doomed session: a batch of 2 trips the hook inside serveInference.
	dClient, dServer, dCloser := transport.Pipe()
	doomedDone := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(dServer)
		doomedDone <- err
	}()
	var doomedCliErr error
	doomedCliDone := make(chan struct{})
	go func() {
		defer close(doomedCliDone)
		dCli := &Client{Engine: EngineConfig{Workers: 2}}
		sess, err := dCli.NewSession(dClient)
		if err != nil {
			doomedCliErr = err
			return
		}
		if _, _, err := sess.InferBatch([][]float64{sample(), sample()}); err != nil {
			doomedCliErr = err
			return
		}
		doomedCliErr = sess.Close()
	}()
	doomedErr := <-doomedDone
	if doomedErr == nil || !strings.Contains(doomedErr.Error(), "recovered panic") {
		t.Errorf("doomed session error = %v, want a recovered-panic teardown error", doomedErr)
	}
	// The server goroutine is gone; release the client side if it is
	// still blocked on the dead inference.
	dCloser.Close()
	<-doomedCliDone
	if doomedCliErr == nil {
		t.Error("doomed session's client finished cleanly; want an error")
	}

	// The panic cost exactly its own session: the concurrent session is
	// still live and still produces correct labels.
	infer("after panic")
	if err := hSess.Close(); err != nil {
		t.Fatalf("close healthy session: %v", err)
	}
	hwg.Wait()
	if healthyErr != nil {
		t.Fatalf("healthy session torn down by the other session's panic: %v", healthyErr)
	}

	if dp := obs.PanicCount() - panics0; dp != 1 {
		t.Errorf("deepsecure_panics_total moved by %d, want exactly 1", dp)
	}
	checkLeaks()
}

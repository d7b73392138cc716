package server

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

func testModel(t testing.TB) *nn.Network {
	t.Helper()
	model, err := nn.NewNetwork(nn.Vec(6),
		nn.NewDense(5),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(rand.New(rand.NewSource(42)))
	return model
}

// startServer launches a Server on a loopback listener and returns its
// address plus a stop function.
func startServer(t testing.TB, model *nn.Network) (*Server, string, func()) {
	t.Helper()
	srv, err := New(model, fixed.Default)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return srv, ln.Addr().String(), stop
}

func sample(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func TestTCPEndToEnd(t *testing.T) {
	// A real TCP socket, not transport.Pipe: exercises framing, partial
	// reads, and connection teardown against the OS network stack.
	model := testModel(t)
	srv, addr, stop := startServer(t, model)
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	rng := rand.New(rand.NewSource(7))
	x := sample(rng, 6)
	cli := &core.Client{Rng: rand.New(rand.NewSource(8))}
	label, st, err := cli.Infer(transport.New(nc), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := model.PredictFixed(fixed.Default, x); label != want {
		t.Fatalf("secure label %d over TCP, plaintext label %d", label, want)
	}
	if st.BytesSent == 0 || st.ANDGates == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := srv.Stats(); got.Inferences == 1 && got.GateTime > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats(); got.Inferences != 1 || got.Sessions != 1 {
		t.Errorf("server stats %+v, want 1 session / 1 inference", got)
	}
	if got := srv.Stats(); got.ANDGates == 0 || got.GateTime <= 0 || got.GatesPerSec() <= 0 {
		t.Errorf("server crypto-core stats not populated: %d AND gates over %v", got.ANDGates, got.GateTime)
	}
}

func TestMultiInferencePerConnection(t *testing.T) {
	model := testModel(t)
	srv, addr, stop := startServer(t, model)
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	cli := &core.Client{Rng: rand.New(rand.NewSource(9))}
	sess, err := cli.NewSession(transport.New(nc))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	const k = 3
	for i := 0; i < k; i++ {
		x := sample(rng, 6)
		label, _, err := sess.Infer(x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if want := model.PredictFixed(fixed.Default, x); label != want {
			t.Fatalf("inference %d: secure %d, plaintext %d", i, label, want)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the server goroutine to record the finished session.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Inferences != k && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats(); got.Inferences != k || got.Sessions != 1 || got.Errors != 0 {
		t.Errorf("server stats %+v, want %d inferences on 1 session", got, k)
	}
}

func TestConcurrentClients(t *testing.T) {
	// ≥4 clients inferring simultaneously against one server instance,
	// each running a multi-inference session. Must pass under -race: the
	// compiled tape is the shared read-only hot object.
	model := testModel(t)
	srv, addr, stop := startServer(t, model)
	defer stop()

	const clients = 5
	const perClient = 2
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			cli := &core.Client{Rng: rand.New(rand.NewSource(int64(100 + c)))}
			rng := rand.New(rand.NewSource(int64(200 + c)))
			xs := make([][]float64, perClient)
			want := make([]int, perClient)
			for i := range xs {
				xs[i] = sample(rng, 6)
				want[i] = model.PredictFixed(fixed.Default, xs[i])
			}
			labels, _, err := cli.InferMany(transport.New(nc), xs)
			if err != nil {
				errs <- err
				return
			}
			for i := range labels {
				if labels[i] != want[i] {
					t.Errorf("client %d sample %d: secure %d, plaintext %d", c, i, labels[i], want[i])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Inferences != clients*perClient && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats(); got.Sessions != clients || got.Inferences != clients*perClient || got.Errors != 0 {
		t.Errorf("server stats %+v, want %d sessions x %d inferences", got, clients, perClient)
	}
}

func TestAbruptClientDisconnectIsNotAnError(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	model := testModel(t)
	srv, addr, stop := startServer(t, model)
	var stopOnce sync.Once
	stopped := func() { stopOnce.Do(stop) }
	defer stopped()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cli := &core.Client{Rng: rand.New(rand.NewSource(11))}
	sess, err := cli.NewSession(transport.New(nc))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Infer(sample(rand.New(rand.NewSource(12)), 6)); err != nil {
		t.Fatal(err)
	}
	nc.Close() // vanish at the inference boundary, no MsgEndSession

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats(); got.Errors != 0 || got.Inferences != 1 {
		t.Errorf("boundary disconnect should not count as error: %+v", got)
	}
	// Full server teardown leaves nothing behind: no connection
	// goroutines, no session readers, no admission bookkeeping.
	stopped()
	checkLeaks()
}

func TestShutdownRefusesNewConnections(t *testing.T) {
	model := testModel(t)
	_, addr, stop := startServer(t, model)
	stop()
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestIdleTimeoutReapsStalledClient covers DeadlineConfig.Idle: a client
// that connects and never speaks (or goes quiet mid-protocol) must not pin
// a connection goroutine forever.
func TestIdleTimeoutReapsStalledClient(t *testing.T) {
	model := testModel(t)
	srv, err := New(model, fixed.Default,
		WithEngine(core.EngineConfig{Deadlines: core.DeadlineConfig{Idle: 2 * time.Second}}))
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// A mute client: opens the connection and sends nothing.
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Poll for both counters: the session goroutine bumps Errors before
	// its deferred ActiveSessions decrement runs.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := srv.Stats(); st.Errors == 1 && st.ActiveSessions == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Stats(); got.Errors != 1 || got.ActiveSessions != 0 {
		t.Fatalf("server stats %+v, want the stalled session reaped as 1 error", got)
	}
	// The watchdog must also have closed the connection.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection still open after idle timeout")
	}

	// A live client on the same server still works: the bound is per
	// awaited frame, not per session, so active sessions are unaffected.
	nc2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	cli := &core.Client{Rng: rand.New(rand.NewSource(21))}
	x := sample(rand.New(rand.NewSource(22)), 6)
	label, _, err := cli.Infer(transport.New(nc2), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := model.PredictFixed(fixed.Default, x); label != want {
		t.Fatalf("secure label %d, plaintext %d", label, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestServeContextCancellation covers ServeContext: cancelling the
// context must stop the accept loop and force-close in-flight session
// connections, releasing their goroutines mid-protocol.
func TestServeContextCancellation(t *testing.T) {
	model := testModel(t)
	srv, err := New(model, fixed.Default)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeContext(ctx, ln) }()

	// Park a client mid-session (handshake sent, then silence) so a
	// connection goroutine is blocked in a protocol read when the
	// context dies.
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tc := transport.New(nc)
	if err := tc.Send(transport.MsgHello, []byte("deepsecure/2")); err != nil {
		t.Fatal(err)
	}
	if err := tc.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != ErrServerClosed {
			t.Fatalf("ServeContext returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeContext did not return after cancellation")
	}
	deadline = time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats(); got.ActiveSessions != 0 {
		t.Fatalf("server stats %+v, want all sessions released after cancel", got)
	}
	// The parked client's connection must be dead.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("session connection still open after context cancellation")
	}
}

// TestWithEngineOption pins that the engine configuration reaches the
// session layer: a server configured with an explicit worker count still
// interoperates with a client configured with another.
func TestWithEngineOption(t *testing.T) {
	model := testModel(t)
	srv, err := New(model, fixed.Default, WithEngine(core.EngineConfig{Workers: 3}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cli := &core.Client{Rng: rand.New(rand.NewSource(31)), Engine: core.EngineConfig{Workers: 2}}
	x := sample(rand.New(rand.NewSource(32)), 6)
	label, _, err := cli.Infer(transport.New(nc), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := model.PredictFixed(fixed.Default, x); label != want {
		t.Fatalf("secure label %d, plaintext %d", label, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestWithOTPoolOption pins that WithOTPool, kept for the benchmark
// module, configures nothing: over real TCP a server built with it serves
// correct predictions, and client and server each count the set-up OT's W
// weight-label OTs, once per session, however many inferences follow.
func TestWithOTPoolOption(t *testing.T) {
	model := testModel(t)
	srv, err := New(model, fixed.Default,
		WithOTPool(precomp.PoolConfig{Capacity: 2048, Background: true}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cli := &core.Client{Rng: rand.New(rand.NewSource(33))}
	rng := rand.New(rand.NewSource(34))
	xs := [][]float64{sample(rng, 6), sample(rng, 6)}
	labels, st, err := cli.InferMany(transport.New(nc), xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := model.PredictFixed(fixed.Default, x); labels[i] != want {
			t.Fatalf("sample %d: secure label %d, plaintext %d", i, labels[i], want)
		}
	}
	w := int64(len(nn.WeightBits(model, fixed.Default)))
	if st.OTsConsumed != w {
		t.Errorf("client session ran %d OTs, want W = %d: %+v", st.OTsConsumed, w, st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if got := srv.Stats(); got.OTsConsumed != w {
		t.Errorf("server ran %d OTs, want W = %d: %+v", got.OTsConsumed, w, got)
	}
}

func TestPipelinedSessionsOverTCP(t *testing.T) {
	// Cross-inference pipelining end to end over real sockets, with
	// concurrent clients: labels must stay correct, every
	// session's in-flight peak must respect the announced window, and
	// the overlap counters must surface in the server stats. Run with
	// -race: the demux reader, per-inference contexts, and shared writer
	// all touch one connection.
	model := testModel(t)
	srv, err := New(model, fixed.Default, WithEngine(core.EngineConfig{Pipeline: 2}))
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}()

	const clients = 3
	const perClient = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			cli := &core.Client{
				Rng:    rand.New(rand.NewSource(int64(300 + c))),
				Engine: core.EngineConfig{Pipeline: 2},
			}
			rng := rand.New(rand.NewSource(int64(400 + c)))
			xs := make([][]float64, perClient)
			want := make([]int, perClient)
			for i := range xs {
				xs[i] = sample(rng, 6)
				want[i] = model.PredictFixed(fixed.Default, xs[i])
			}
			labels, _, err := cli.InferMany(transport.New(nc), xs)
			if err != nil {
				errs <- err
				return
			}
			for i := range labels {
				if labels[i] != want[i] {
					t.Errorf("client %d sample %d: secure %d, plaintext %d", c, i, labels[i], want[i])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Inferences != clients*perClient && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.Sessions != clients || st.Inferences != clients*perClient || st.Errors != 0 {
		t.Errorf("server stats %+v, want %d sessions x %d inferences", st, clients, perClient)
	}
}

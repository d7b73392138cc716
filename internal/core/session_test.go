package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

func TestMultiInferenceSession(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(301))}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(302))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	if sess.InputLen() != 6 {
		t.Fatalf("InputLen = %d, want 6", sess.InputLen())
	}

	const k = 4
	rng := rand.New(rand.NewSource(303))
	var prevOut []gc.Label
	for i := 0; i < k; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		want := net.PredictFixed(f, x)
		p, err := sess.InferAsync(x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		got, st, err := p.Wait()
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("inference %d: secure label %d, plaintext label %d", i, got, want)
		}
		if st.ANDGates == 0 || st.BytesSent == 0 || st.Inferences != 1 {
			t.Errorf("inference %d: stats not populated: %+v", i, st)
		}
		if st.GateTime <= 0 || st.GatesPerSec() <= 0 {
			t.Errorf("inference %d: crypto-core time not measured: GateTime=%v", i, st.GateTime)
		}
		// Fresh garbling per inference: the output zero-labels of two
		// garbled executions of the same netlist must differ, or the
		// transcripts would be linkable.
		out := append([]gc.Label(nil), p.outZero...)
		if prevOut != nil {
			same := len(out) == len(prevOut)
			if same {
				for j := range out {
					if out[j] != prevOut[j] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatalf("inference %d reused the previous inference's output labels", i)
			}
		}
		prevOut = out
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if srvStats.Inferences != k {
		t.Fatalf("server saw %d inferences, want %d", srvStats.Inferences, k)
	}
	cs := sess.Stats()
	if cs.Inferences != k || cs.BytesSent == 0 {
		t.Fatalf("session stats not populated: %+v", cs)
	}
}

func TestInferMany(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.TanhPL, 22)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(311))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	rng := rand.New(rand.NewSource(312))
	xs := make([][]float64, 3)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}
	cli := &Client{Rng: rand.New(rand.NewSource(313))}
	labels, st, err := cli.InferMany(cConn, xs)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("sample %d: secure label %d, plaintext label %d", i, labels[i], want[i])
		}
	}
	if st.Inferences != int64(len(xs)) {
		t.Fatalf("stats report %d inferences, want %d", st.Inferences, len(xs))
	}
}

func TestSessionDisconnectAtBoundaryIsClean(t *testing.T) {
	// A client that vanishes between inferences (instead of sending
	// end-session) must not surface as a server error: the concurrent
	// server treats boundary EOF as an implicit close.
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 23)
	cConn, sConn, closer := transport.Pipe()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(321))}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(322))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	x := make([]float64, 6)
	if _, _, err := sess.Infer(x); err != nil {
		t.Fatalf("inference: %v", err)
	}
	closer.Close() // disconnect without MsgEndSession
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("boundary disconnect should be a clean close, got: %v", srvErr)
	}
	if srvStats.Inferences != 1 {
		t.Fatalf("server saw %d inferences, want 1", srvStats.Inferences)
	}
	checkLeaks()
}

func TestBrokenSessionRefusesRetry(t *testing.T) {
	// An error mid-protocol desynchronizes the stream; a retried Infer
	// must fail fast instead of sending frames into the broken session.
	f := fixed.Default
	net := testNet(t, act.ReLU, 25)
	cConn, sConn, closer := transport.Pipe()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(341))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeSession(sConn) //nolint:errcheck — the connection is torn down mid-inference
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(342))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	x := make([]float64, 6)
	if _, _, err := sess.Infer(x); err != nil {
		t.Fatalf("first inference: %v", err)
	}
	closer.Close() // kill the transport under the session
	if _, _, err := sess.Infer(x); err == nil {
		t.Fatal("inference over a dead transport should fail")
	}
	// The retry must be refused without touching the wire.
	sent := cConn.Metrics().BytesSent.Value()
	if _, _, err := sess.Infer(x); err == nil || cConn.Metrics().BytesSent.Value() != sent {
		t.Fatalf("retry on broken session: err=%v, sent %d extra bytes", err, cConn.Metrics().BytesSent.Value()-sent)
	}
	// A wrong-length sample, by contrast, never touches the wire and
	// must not break an open session.
	wg.Wait()
}

func TestValidationErrorKeepsSessionUsable(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 26)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(351))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(352))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	if _, _, err := sess.Infer(make([]float64, 3)); err == nil {
		t.Fatal("wrong feature count must error")
	}
	x := make([]float64, 6)
	want := net.PredictFixed(f, x)
	got, _, err := sess.Infer(x)
	if err != nil {
		t.Fatalf("inference after validation error: %v", err)
	}
	if got != want {
		t.Fatalf("label %d, want %d", got, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
}

func TestClientProgramCacheSharedAcrossSessions(t *testing.T) {
	// Sessions against the same model compile the client-side netlist once
	// (the cache is keyed by the public spec) — also when they are the
	// client's first sessions and open at the same time.
	f := fixed.Default
	net := testNet(t, act.ReLU, 24)
	const n = 4
	cli := &Client{}
	srv := &Server{Net: net, Fmt: f}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cConn, sConn, closer := transport.Pipe()
		defer closer.Close()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := srv.ServeSession(sConn); err != nil {
				t.Errorf("server: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, _, err := cli.Infer(cConn, make([]float64, 6)); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if got := len(cli.progs); got != 1 {
		t.Fatalf("client cached %d programs, want 1", got)
	}
	// The n racing look-ups of a fresh client together allocate about what
	// one compile does: each used to compile for itself, and all but one
	// result was thrown away.
	specData, err := net.Spec(f).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(lookups int) uint64 {
		c := &Client{}
		var before, after runtime.MemStats
		var wg sync.WaitGroup
		start := make(chan struct{})
		runtime.ReadMemStats(&before)
		for i := 0; i < lookups; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := c.program(specData); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if one, many := allocated(1), allocated(n); many > 2*one {
		t.Fatalf("%d concurrent first look-ups allocated %d bytes, one compile %d: the spec was compiled more than once", n, many, one)
	}
	// A later open finds the program, the format and the input width in the
	// entry: it parses no spec, builds no network and allocates nothing.
	first, err := cli.program(specData)
	if err != nil || first.inputLen != 6 || first.f != f {
		t.Fatalf("cached entry: %d inputs at %v, %v; want 6 at %v", first.inputLen, first.f, err, f)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if again, _ := cli.program(specData); again != first {
			t.Error("a second look-up returned another entry")
		}
	}); allocs != 0 {
		t.Errorf("a repeat look-up of a cached spec made %v allocations, want none", allocs)
	}
}

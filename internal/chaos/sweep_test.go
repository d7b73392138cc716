package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/server"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// The chaos sweep: a real TCP server with every robustness feature on
// (pipelining, batching, two shared clients, an OT pool barely larger than
// one inference's demand so a refill follows every inference and a batch
// refills on demand, admission, idle timeout, phase deadlines), driven
// through ≥50 seeded fault scripts. The contract it pins is the failure-behavior half of the
// paper's guarantee: whatever the network does — resets, bit-flips,
// partial writes, latency, shaping — every run terminates promptly in
// either a clean error or a provably correct output. Never a hang,
// never a leaked goroutine, never a silently wrong label, and never a
// panic (deepsecure_panics_total stays flat under pure network faults).
//
// The two shared clients have visited the server before the first fault, so
// their runs are repeat sessions — one server flight of set-up, on the
// pair's stored weight labels — and every fourth run brings a client of its
// own, whose base phase and set-up OT run under the faults. A cut can leave
// a pair filed on one side only, or evicted from neither; whatever the
// stores hold afterwards, the next clean session of each client classifies.

const sweepRunBudget = 30 * time.Second // per-run hard termination bound

func sweepNet(t testing.TB) *nn.Network {
	t.Helper()
	model, err := nn.NewNetwork(nn.Vec(6),
		nn.NewDense(5),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(rand.New(rand.NewSource(7)))
	return model
}

// startSweepServer runs the sweep's server on a loopback listener,
// logging sessions to logf when that is set; stop closes it and waits for
// the accept loop.
func startSweepServer(t *testing.T, model *nn.Network, logf func(string, ...any)) (srv *server.Server, addr string, stop func()) {
	t.Helper()
	srv, err := server.New(model, fixed.Default,
		server.WithEngine(core.EngineConfig{
			Workers: 2,
			Deadlines: core.DeadlineConfig{
				Handshake: 10 * time.Second,
				OTSetup:   10 * time.Second,
				Inference: 10 * time.Second,
				Idle:      2 * time.Second,
			},
		}),
		server.WithAdmission(server.AdmissionConfig{
			MaxActive:  4,
			MaxQueue:   16,
			RetryAfter: 50 * time.Millisecond,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	return srv, ln.Addr().String(), func() {
		srv.Close()
		<-serveDone
		ln.Close()
	}
}

func TestChaosSweep(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 12
	}
	checkLeaks := testutil.VerifyNoLeaks(t)
	panics0 := obs.Root.Panics.Value()

	f := fixed.Default
	model := sweepNet(t)
	srv, addr, stop := startSweepServer(t, model, nil)

	// Fault offsets should be able to land anywhere in a session's table
	// stream, not just the handshake.
	ands, _ := srv.ProgramStats()
	span := ands * 32 * 3

	// One plain client and one that garbles on its own goroutine and keeps
	// its window full, both on the shared scheduler; nil Rng (crypto/rand)
	// so sessions may run concurrently.
	plain := &core.Client{Engine: core.EngineConfig{
		Workers:   2,
		Deadlines: core.DeadlineConfig{Handshake: 10 * time.Second},
	}}
	pipelined := &core.Client{Engine: core.EngineConfig{
		Workers:   1,
		Pipeline:  2,
		MaxBatch:  3,
		Deadlines: core.DeadlineConfig{Handshake: 10 * time.Second},
	}}

	// Correctness oracle: a chaos run may end in an error at any point,
	// but any label it *does* deliver must match the plaintext model.
	sampleFor := func(seed int64, i int) []float64 {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		return x
	}

	// cleanVisit is one fault-free session of cli: it must classify.
	cleanVisit := func(what string, cli *core.Client, seed int64) {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", what, err)
		}
		defer nc.Close()
		tc := transport.New(nc)
		tc.SetBreaker(nc.Close)
		x := sampleFor(seed, 0)
		if got, _, err := cli.Infer(tc, x); err != nil || got != model.PredictFixed(f, x) {
			t.Errorf("%s: label %d, %v; want %d", what, got, err, model.PredictFixed(f, x))
		}
	}
	cleanVisit("plain client's first visit", plain, -1)
	cleanVisit("pipelining client's first visit", pipelined, -2)
	resumed0 := srv.Stats().SessionsResumed

	var successes, cleanErrors, forced atomic.Int64
	runOne := func(seed int64) {
		script := NewScript(seed, span)
		start := time.Now()
		defer func() {
			if d := time.Since(start); d > sweepRunBudget {
				t.Errorf("seed %d: run took %v (budget %v) — a fault script must never stall a session: %v",
					seed, d, sweepRunBudget, script)
			}
		}()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("seed %d: dial: %v", seed, err)
			return
		}
		cc := Wrap(nc, script)
		defer cc.Close()
		// Client-side backstop: if neither party's deadlines fire (e.g. a
		// flipped length field leaves both sides waiting), the run still
		// terminates — in a clean error — rather than hanging the sweep.
		backstop := time.AfterFunc(15*time.Second, func() {
			forced.Add(1)
			cc.Close()
		})
		defer backstop.Stop()

		cli := plain
		switch {
		case seed%3 == 2:
			cli = pipelined
		case seed%4 == 0:
			cli = &core.Client{Engine: plain.Engine} // a first visit: the base phase under faults
		}
		tc := transport.New(cc)
		tc.SetBreaker(cc.Close)
		sess, err := cli.NewSession(tc)
		if err != nil {
			cleanErrors.Add(1)
			return
		}
		failed := false
		if seed%3 == 1 {
			// Batched variant: one fused batch of 3 samples.
			xs := make([][]float64, 3)
			want := make([]int, 3)
			for i := range xs {
				xs[i] = sampleFor(seed, i)
				want[i] = model.PredictFixed(f, xs[i])
			}
			got, _, err := sess.InferBatch(xs)
			if err != nil {
				failed = true
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("seed %d: SILENT CORRUPTION: batch sample %d label %d, plaintext %d (%v)",
							seed, i, got[i], want[i], script)
					}
				}
			}
		} else {
			// Three singles: the pipelining client begins all of them before
			// it reads a result, the others read each one at once.
			var pending []*core.PendingInference
			settled := 0
			settle := func() {
				for _, p := range pending {
					got, _, err := p.Wait()
					if err != nil {
						failed = true
						return
					}
					if want := model.PredictFixed(f, sampleFor(seed, settled)); got != want {
						t.Errorf("seed %d: SILENT CORRUPTION: inference %d label %d, plaintext %d (%v)",
							seed, settled, got, want, script)
					}
					settled++
				}
				pending = pending[:0]
			}
			for i := 0; i < 3 && !failed; i++ {
				p, err := sess.InferAsync(sampleFor(seed, i))
				if err != nil {
					failed = true
					break
				}
				pending = append(pending, p)
				if cli != pipelined {
					settle()
				}
			}
			if !failed {
				settle()
			}
		}
		if err := sess.Close(); err != nil {
			failed = true
		}
		if failed {
			cleanErrors.Add(1)
		} else {
			successes.Add(1)
		}
	}

	var wg sync.WaitGroup
	work := make(chan int64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				runOne(seed)
			}
		}()
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		work <- seed
	}
	close(work)
	wg.Wait()

	// The repeat sessions were repeat sessions, and neither a cut set-up nor
	// a half-filed base keeps a client from its next one.
	if got := srv.Stats().SessionsResumed - resumed0; got < int64(seeds)/2 {
		t.Errorf("the server resumed %d of %d chaos runs, want the shared clients' (about three in four)", got, seeds)
	}
	cleanVisit("plain client after the sweep", plain, -3)
	cleanVisit("pipelining client after the sweep", pipelined, -4)
	stop()

	t.Logf("chaos sweep: %d seeds, %d succeeded, %d clean errors, %d backstop closes",
		seeds, successes.Load(), cleanErrors.Load(), forced.Load())
	if got := successes.Load() + cleanErrors.Load(); got != int64(seeds) {
		t.Errorf("accounted for %d of %d runs", got, seeds)
	}
	if successes.Load() == 0 {
		// Scripts with late offsets or delay-only faults must leave some
		// sessions able to finish; all-errors means the harness (not the
		// faults) is broken.
		t.Errorf("no chaos run succeeded — harness broken?")
	}
	if dp := obs.Root.Panics.Value() - panics0; dp != 0 {
		t.Errorf("network faults caused %d recovered panic(s); faults must surface as errors, not panics", dp)
	}
	checkLeaks()
}

// frameCutter closes the connection the moment the header of the nth
// frame of type typ has been read from it: with MsgOTExtU, after the
// set-up OT's U reached the client and before the client can answer it.
type frameCutter struct {
	net.Conn
	typ  transport.MsgType
	n    int
	skip int // payload bytes left of the frame being read
	hdr  []byte
}

func (c *frameCutter) Read(b []byte) (int, error) {
	got, err := c.Conn.Read(b)
	for _, x := range b[:got] {
		if c.skip > 0 {
			c.skip--
			continue
		}
		if c.hdr = append(c.hdr, x); len(c.hdr) < 5 {
			continue
		}
		c.skip = int(c.hdr[1]) | int(c.hdr[2])<<8 | int(c.hdr[3])<<16 | int(c.hdr[4])<<24
		if transport.MsgType(c.hdr[0]) == c.typ {
			if c.n--; c.n == 0 {
				c.Conn.Close()
			}
		}
		c.hdr = c.hdr[:0]
	}
	return got, err
}

// TestChaosCutAtRefill aims at the session's one fill of weight labels,
// the set-up OT that took the place of the OT pool's refills: the
// connection dies as the server's U reaches the client, after the server
// has prepared its half and before the client answers. Both sides must end
// in a clean error with nothing left running, and the server must keep
// serving.
func TestChaosCutAtRefill(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	model := sweepNet(t)
	srv, addr, stop := startSweepServer(t, model, nil)
	x := []float64{0.3, -0.2, 0.9, -0.7, 0.1, 0.5}
	want := model.PredictFixed(f, x)
	cli := &core.Client{Engine: core.EngineConfig{Workers: 2}}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cut := &frameCutter{Conn: nc, typ: transport.MsgOTExtU, n: 1}
	if sess, err := cli.NewSession(transport.New(cut)); err == nil {
		sess.Close() //nolint:errcheck — the session is the failure being reported
		t.Fatal("a session whose connection was cut at the set-up OT's U opened")
	}
	nc.Close()

	// The server shrugged it off: a fresh session infers correctly.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := cli.NewSession(transport.New(nc2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, _, err := sess2.Infer(x); err != nil || got != want {
			t.Fatalf("inference %d after the cut: label %d (want %d), err %v", i, got, want, err)
		}
	}
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
	nc2.Close()
	if st := srv.Stats(); st.Errors == 0 {
		t.Error("server did not count the cut session as failed")
	}
	stop()
	checkLeaks()
}

// TestChaosCutInsideBasePhase cuts the set-up half way: the connection dies
// as the base phase's last frame — the server's point A, ahead of the
// set-up OT's U — reaches the client, so neither side files the pair. That is a
// first visit next time, not a hang and not a session on half a set-up; and
// once it has gone through, the visit after it resumes.
func TestChaosCutInsideBasePhase(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	model := sweepNet(t)
	srv, addr, stop := startSweepServer(t, model, nil)
	x := []float64{0.3, -0.2, 0.9, -0.7, 0.1, 0.5}
	cli := &core.Client{Engine: core.EngineConfig{Workers: 2}}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// The server's one base-OT frame is its point A.
	if sess, err := cli.NewSession(transport.New(&frameCutter{Conn: nc, typ: transport.MsgOTBase, n: 1})); err == nil {
		t.Fatalf("set-up over a connection cut inside the base phase opened a session (%v)", sess)
	}
	nc.Close()
	for visit, wantResumed := range []int64{0, 1} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := cli.Infer(transport.New(nc), x)
		nc.Close()
		if err != nil || got != model.PredictFixed(f, x) {
			t.Fatalf("visit %d after the cut: label %d, %v; want %d", visit, got, err, model.PredictFixed(f, x))
		}
		if st.SessionsResumed != wantResumed || st.ResumeMisses != 0 {
			t.Errorf("visit %d after the cut: %d resumed, %d missed; want %d, 0", visit, st.SessionsResumed, st.ResumeMisses, wantResumed)
		}
	}
	stop()
	if st := srv.Stats(); st.Errors != 1 || st.SessionsResumed != 1 {
		t.Errorf("server counted %d failed and %d resumed sessions, want 1 and 1", st.Errors, st.SessionsResumed)
	}
	checkLeaks()
}

// beginFlipper flips one bit of the sample-count varint — the last payload
// byte — of the first MsgInferBegin frame written through it.
type beginFlipper struct {
	net.Conn
	bit     uint
	armed   bool // the frame being written is the begin frame to corrupt
	flipped bool
	skip    int // payload bytes left of the frame being written
	hdr     []byte
}

func (c *beginFlipper) Write(b []byte) (int, error) {
	out := append([]byte(nil), b...) // a Writer must not scribble on its caller's bytes
	for i, x := range b {
		if c.skip > 0 {
			if c.skip--; c.skip == 0 && c.armed {
				out[i] ^= 1 << c.bit
				c.armed, c.flipped = false, true
			}
			continue
		}
		if c.hdr = append(c.hdr, x); len(c.hdr) < 5 {
			continue
		}
		c.skip = int(c.hdr[1]) | int(c.hdr[2])<<8 | int(c.hdr[3])<<16 | int(c.hdr[4])<<24
		c.armed = transport.MsgType(c.hdr[0]) == transport.MsgInferBegin && !c.flipped
		c.hdr = c.hdr[:0]
	}
	return c.Conn.Write(out)
}

// TestChaosFlipBeginBatchSize aims a bit-flip at the one field every
// inference now carries: the sample count B in its begin frame. Each of
// the eight flips of a one-sample begin turns B into 0, a larger batch
// within the cap (whose frames then have the wrong sizes), a batch past
// the cap, or a truncated varint. The server must end every such session
// in a protocol error it names, run no OT beyond the set-up's, leak
// nothing, and keep serving. The eight sessions share one Client: the
// first runs the pair's set-up OT of W weight labels, and the seven after
// it are repeat sessions, whose set-up has no OT frame at all.
func TestChaosFlipBeginBatchSize(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	panics0 := obs.Root.Panics.Value()
	f := fixed.Default
	model := sweepNet(t)
	var logMu sync.Mutex
	var failures []string
	srv, addr, stop := startSweepServer(t, model, func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "failed after") {
			logMu.Lock()
			failures = append(failures, line)
			logMu.Unlock()
		}
	})
	x := []float64{0.3, -0.2, 0.9, -0.7, 0.1, 0.5}
	cli := &core.Client{Engine: core.EngineConfig{Workers: 2}}
	w := int64(len(nn.WeightBits(model, f)))

	for bit := uint(0); bit < 8; bit++ {
		before := srv.Stats()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		flip := &beginFlipper{Conn: nc, bit: bit}
		sess, err := cli.NewSession(transport.New(flip))
		if err != nil {
			t.Fatalf("bit %d: setup sends no begin frame and must survive: %v", bit, err)
		}
		if label, _, err := sess.Infer(x); err == nil {
			t.Errorf("bit %d: inference whose begin frame was corrupted returned label %d", bit, label)
		}
		if !flip.flipped {
			t.Fatalf("bit %d: no begin frame went through the flipper", bit)
		}
		sess.Close() //nolint:errcheck — a broken session withholds the end marker and reports nothing new
		nc.Close()
		// The server settles the session on its own goroutine.
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Errors == before.Errors && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		after := srv.Stats()
		if after.Errors != before.Errors+1 {
			t.Fatalf("bit %d: server counted %d failed sessions, want 1", bit, after.Errors-before.Errors)
		}
		wantOTs, wantResumed := w, int64(0)
		if bit > 0 {
			wantOTs, wantResumed = 0, 1
		}
		if ots := after.OTsConsumed - before.OTsConsumed; ots != wantOTs {
			t.Errorf("bit %d: session ran %d OTs, want %d", bit, ots, wantOTs)
		}
		if resumed := after.SessionsResumed - before.SessionsResumed; resumed != wantResumed {
			t.Errorf("bit %d: server counted %d resumed sessions, want %d", bit, resumed, wantResumed)
		}
		if after.Inferences != before.Inferences {
			t.Errorf("bit %d: server counted an inference for a corrupted begin frame", bit)
		}
	}
	logMu.Lock()
	for i, line := range failures {
		t.Log(line)
		if !strings.Contains(line, "core: ") {
			t.Errorf("failed session %d did not end in a named protocol error: %s", i, line)
		}
	}
	if len(failures) != 8 {
		t.Errorf("server logged %d failed sessions, want 8", len(failures))
	}
	logMu.Unlock()

	// The server shrugged all of it off.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cli.NewSession(transport.New(nc))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := sess.Infer(x); err != nil || got != model.PredictFixed(f, x) {
		t.Fatalf("inference after the flips: label %d (want %d), err %v", got, model.PredictFixed(f, x), err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	nc.Close()
	stop()
	if dp := obs.Root.Panics.Value() - panics0; dp != 0 {
		t.Errorf("corrupted begin frames caused %d recovered panic(s)", dp)
	}
	checkLeaks()
}

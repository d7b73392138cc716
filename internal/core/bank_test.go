package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// runBankedSession runs one full client/server session over a recording
// pipe — k single inferences of xs[i%len(xs)], synchronous — and
// returns the labels, both directions' byte transcripts, and the
// session stats. The client and server rngs are seeded identically
// across calls, so two runs differing only in bank config are
// transcript-comparable — on an OT pool big enough never to refill
// mid-session: sender-side refills draw the client rng, and moving
// garbling offline shifts where mid-inference refill draws land in the rng
// stream, so the transcripts would differ in the pair randomness, not in
// the garbled material. (Real deployments use crypto/rand, where draw order
// is meaningless; only deterministic-seed pins care.)
func runBankedSession(t *testing.T, cliCfg EngineConfig, k int, xs [][]float64) ([]int, []byte, []byte, *Stats) {
	t.Helper()
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	c2s := newLogHalf()
	s2c := newLogHalf()
	cConn := transport.New(logDuplex{r: s2c, w: c2s})
	sConn := transport.New(logDuplex{r: c2s, w: s2c})

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(501)), OTPool: precomp.PoolConfig{Capacity: 8192}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(502)), Engine: cliCfg}
	defer cli.Close()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	labels := make([]int, 0, k)
	for i := 0; i < k; i++ {
		label, _, err := sess.Infer(xs[i%len(xs)])
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		labels = append(labels, label)
	}
	st := sess.Stats()
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels, c2s.bytesWritten(), s2c.bytesWritten(), st
}

// TestBankStreamConformance is the tentpole's conformance pin: with a
// warm bank covering every inference (k ≤ Depth), the whole session
// transcript — both directions — is byte-identical to the bank-off
// run from the same seeds. The bank's fill draws randomness in exactly
// the live engine's order and a banked sub-stream reproduces the live
// chunking, so the evaluator cannot tell garble-ahead from live
// garbling.
func TestBankStreamConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float64, 2)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	off, offC2S, offS2C, offSt := runBankedSession(t, EngineConfig{}, 2, xs)
	on, onC2S, onS2C, onSt := runBankedSession(t, EngineConfig{Bank: bank.Config{Depth: 2}}, 2, xs)
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("inference %d label %d banked, %d live", i, on[i], off[i])
		}
	}
	if !bytes.Equal(offC2S, onC2S) {
		t.Fatalf("client→server transcript differs between bank-on and bank-off (%d vs %d bytes)", len(onC2S), len(offC2S))
	}
	if !bytes.Equal(offS2C, onS2C) {
		t.Fatalf("server→client transcript differs between bank-on and bank-off (%d vs %d bytes)", len(onS2C), len(offS2C))
	}
	if onSt.BankHits != 2 || onSt.BankMisses != 0 {
		t.Fatalf("bank-on stats %d hits / %d misses, want 2 / 0", onSt.BankHits, onSt.BankMisses)
	}
	if offSt.BankHits != 0 || offSt.BankMisses != 0 {
		t.Fatalf("bank-off stats claim bank traffic: %+v", offSt)
	}
	// The headline property: bank hits pay no online garbling, so the
	// hash-core time on the critical path is zero.
	if onSt.GateTime != 0 {
		t.Fatalf("banked session reports %v online garble time, want 0", onSt.GateTime)
	}
	if onSt.BankRefillTime <= 0 {
		t.Fatalf("banked session reports no offline refill time")
	}
}

// TestBankExhaustionFallback drains a depth-1 bank (no background
// refill) across 4 inferences: the first hits, the rest transparently
// fall back to live garbling — and because the bank's fill consumed
// exactly the rng draws the first live inference would have, the whole
// mixed transcript stays byte-identical to the bank-off session.
func TestBankExhaustionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	off, offC2S, offS2C, _ := runBankedSession(t, EngineConfig{}, 4, xs)
	on, onC2S, onS2C, onSt := runBankedSession(t, EngineConfig{Bank: bank.Config{Depth: 1}}, 4, xs)
	for i := range off {
		want := net.PredictFixed(f, xs[i])
		if off[i] != want || on[i] != want {
			t.Fatalf("inference %d: labels %d (off) / %d (on), plaintext %d", i, off[i], on[i], want)
		}
	}
	if onSt.BankHits != 1 || onSt.BankMisses != 3 {
		t.Fatalf("stats %d hits / %d misses, want 1 / 3", onSt.BankHits, onSt.BankMisses)
	}
	if !bytes.Equal(offC2S, onC2S) || !bytes.Equal(offS2C, onS2C) {
		t.Fatal("mixed banked/live transcript differs from the bank-off session")
	}
	// Only the 3 live inferences garbled online.
	if onSt.GateTime <= 0 {
		t.Fatal("live fallback inferences recorded no garble time")
	}
}

// differentialRun is one session of TestInferenceDifferential: two
// InferBatch calls of b samples each, every label checked against want.
type differentialRun struct {
	perInfer     []*Stats
	session, srv *Stats
	c2s, s2c     []byte
}

func runDifferentialSession(t *testing.T, name string, net *nn.Network, f fixed.Format, b, bankDepth, workers int, samples [][]float64, want []int) differentialRun {
	t.Helper()
	c2s, s2c := newLogHalf(), newLogHalf()
	cConn := transport.New(logDuplex{r: s2c, w: c2s})
	sConn := transport.New(logDuplex{r: c2s, w: s2c})
	// A pool that holds the session's 2·B ≤ 6 samples and never refills
	// before it ends: see runBankedSession.
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
	cli := &Client{Rng: rand.New(rand.NewSource(504)),
		Engine: EngineConfig{Workers: workers, ChunkBytes: 2048, Bank: bank.Config{Depth: bankDepth}}}
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
// that selects a branch inside it — batch size B ∈ {1, 3} × table source
// {live, bank hit, bank drained mid-batch} × Workers ∈ {1, 4} — two
// inferences of B samples per session, plus one outsourced inference, on
// networks drawn from a seeded generator: one per activation realisation
// (the look-up-table ones skipped under -short), between them every layer
// kind. Every label must equal PredictFixed; the Stats must count samples,
// gate instances, bank hits and misses the same way on every path; a bank
// hit pays no online garble time and a miss does; the wire bytes must not
// depend on the worker count; and at B=1 a bank hit (and the hit-then-miss
// drained session) must be byte-for-byte what live garbling sends.
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
	type source struct {
		name  string
		depth func(b int) int
		// hits[k] says whether the session's k-th inference hits the bank.
		hits [2]bool
	}
	sources := []source{
		{"live", func(int) int { return 0 }, [2]bool{false, false}},
		{"bankHit", func(b int) int { return 2 * b }, [2]bool{true, true}},
		// The second inference finds b-1 executions left: TakeN is
		// all-or-nothing, so it misses and garbles live.
		{"bankDrained", func(b int) int { return 2*b - 1 }, [2]bool{true, false}},
	}
	for _, b := range []int{1, 3} {
		n := int64(b)
		// first[ref] is the first transcript recorded under ref: scheduling
		// never shows on the wire, and at B=1 neither does the table source.
		first := make(map[string]differentialRun)
		for _, src := range sources {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("B=%d/%s/workers=%d", b, src.name, workers)
				banked := src.depth(b) > 0
				run := runDifferentialSession(t, name, net, f, b, src.depth(b), workers, samples, want)
				var hits, misses int64
				for k, st := range run.perInfer {
					var h, m int64
					if banked && src.hits[k] {
						h = n
					} else if banked {
						m = n
					}
					if st.Inferences != n || st.ANDGates != ands*n || st.BankHits != h || st.BankMisses != m {
						t.Fatalf("%s inference %d stats: %+v", name, k, st)
					}
					if (h > 0) != (st.GateTime == 0) {
						t.Fatalf("%s inference %d: %d bank hit(s) but online garble time %v", name, k, h, st.GateTime)
					}
					hits, misses = hits+h, misses+m
				}
				if st := run.session; st.Inferences != 2*n || st.ANDGates != 2*ands*n ||
					st.BankHits != hits || st.BankMisses != misses {
					t.Fatalf("%s session stats: %+v", name, st)
				}
				if st := run.srv; st.Inferences != 2*n || st.ANDGates != 2*ands*n {
					t.Fatalf("%s server stats: %+v", name, st)
				}
				ref := src.name
				if b == 1 {
					ref = "live"
				}
				if prev, ok := first[ref]; !ok {
					first[ref] = run
				} else if !bytes.Equal(prev.c2s, run.c2s) || !bytes.Equal(prev.s2c, run.s2c) {
					t.Fatalf("%s: transcript differs from the first %s run's", name, ref)
				}
			}
		}
	}
}

// close releases a logHalf's readers (the recording pipe has no Close
// of its own; the engine tests never tear it down mid-protocol).
func (h *logHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// failableDuplex wraps a duplex pipe with a write kill-switch: once
// tripped, every write errors — the client's next flush dies
// mid-sub-stream, like a dropped connection.
type failableDuplex struct {
	r, w *logHalf
	dead atomic.Bool
}

func (d *failableDuplex) Read(b []byte) (int, error) { return d.r.Read(b) }
func (d *failableDuplex) Write(b []byte) (int, error) {
	if d.dead.Load() {
		return 0, errors.New("test: link dropped")
	}
	return d.w.Write(b)
}

// TestBankMidStreamDeathSingleUse is the single-use regression pin: a
// banked execution consumed by an inference that dies mid-stream is
// discarded — the bank's consume sequence moves past it and a fresh
// session gets the NEXT execution, never the dead one's material.
func TestBankMidStreamDeathSingleUse(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	x := make([]float64, 6)
	rng := rand.New(rand.NewSource(80))
	for j := range x {
		x[j] = rng.Float64()*2 - 1
	}

	cli := &Client{Rng: rand.New(rand.NewSource(506)), Engine: EngineConfig{Bank: bank.Config{Depth: 2}}}
	defer cli.Close()

	// Session 1 over a killable link.
	c2s, s2c := newLogHalf(), newLogHalf()
	link := &failableDuplex{r: s2c, w: c2s}
	cConn := transport.New(link)
	sConn := transport.New(logDuplex{r: c2s, w: s2c})
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(507))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeSession(sConn) //nolint:errcheck — this session is murdered on purpose
	}()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	specData, err := net.Spec(f).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bk := cli.banks[string(specData)]
	if bk.Available() != 2 || bk.Seq() != 0 {
		t.Fatalf("bank after fill: available=%d seq=%d, want 2/0", bk.Available(), bk.Seq())
	}
	link.dead.Store(true)
	if _, err := sess.InferAsync(x); err == nil {
		t.Fatal("inference over a dead link succeeded")
	}
	// The dead inference's execution is gone: consumed (seq advanced),
	// not re-banked.
	if bk.Available() != 1 || bk.Seq() != 1 {
		t.Fatalf("bank after mid-stream death: available=%d seq=%d, want 1/1", bk.Available(), bk.Seq())
	}
	if _, err := sess.InferAsync(x); err == nil {
		t.Fatal("broken session accepted another inference")
	}
	c2s.close()
	s2c.close()
	wg.Wait()

	// Session 2: a fresh connection from the same client consumes the
	// NEXT banked execution (seq 1) and completes correctly — the dead
	// execution was never re-issued.
	cConn2, sConn2, closer := transport.Pipe()
	defer closer.Close()
	srv2 := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(508))}
	var wg2 sync.WaitGroup
	var srvErr error
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		_, srvErr = srv2.ServeSession(sConn2)
	}()
	sess2, err := cli.NewSession(cConn2)
	if err != nil {
		t.Fatal(err)
	}
	label, _, err := sess2.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.PredictFixed(f, x); label != want {
		t.Fatalf("label %d, want %d", label, want)
	}
	if bk.Seq() != 2 {
		t.Fatalf("bank seq %d after second session's inference, want 2", bk.Seq())
	}
	if hits := bk.Metrics().BankHits.Value(); hits != 2 {
		t.Fatalf("%d bank hit(s), want 2 (the dead take counts: its execution is spent)", hits)
	}
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
	wg2.Wait()
	if srvErr != nil {
		t.Fatalf("server 2: %v", srvErr)
	}
	checkLeaks()
}

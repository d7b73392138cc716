package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// TestScheduleTableSizePin pins circuit.NewSchedule's table accounting to
// gc's sizes: circuit cannot import gc, so it states the ciphertext size
// itself, and the engines trust Step.TableBytes and Level.TableBytes as the
// byte budgets of what gc's kernels write — 16 bytes per ciphertext, two
// for a full AND (gc.TableSize) and one for a half AND.
func TestScheduleTableSizePin(t *testing.T) {
	if circuit.CiphertextSize != gc.LabelSize || circuit.AND.TableBytes() != gc.TableSize || circuit.HalfAND.TableBytes() != gc.LabelSize {
		t.Fatalf("circuit sizes a ciphertext at %d bytes, an AND at %d and a half AND at %d; gc.LabelSize is %d, gc.TableSize %d",
			circuit.CiphertextSize, circuit.AND.TableBytes(), circuit.HalfAND.TableBytes(), gc.LabelSize, gc.TableSize)
	}
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	in := b.Inputs(circuit.Garbler, 2)
	w := b.Inputs(circuit.Evaluator, 1)
	b.Outputs(b.AND(in[0], in[1]), b.AND(in[1], w[0]))
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := range sched.Steps {
		total += sched.Steps[i].TableBytes
	}
	if want := 16 * int(tape.Stats().Ciphertexts()); total != want || want != gc.TableSize+gc.LabelSize {
		t.Fatalf("schedule accounts %d bytes for a full and a half AND, want 16 per ciphertext = %d", total, want)
	}
}

// logHalf is one direction of an in-memory duplex pipe that also records
// every byte written, so tests can compare the exact wire traffic of two
// protocol runs.
type logHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	log    bytes.Buffer
	closed bool
}

func newLogHalf() *logHalf {
	h := &logHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *logHalf) Write(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	h.buf = append(h.buf, b...)
	h.log.Write(b)
	h.cond.Broadcast()
	return len(b), nil
}

func (h *logHalf) Read(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		if h.closed {
			return 0, io.EOF
		}
		h.cond.Wait()
	}
	n := copy(b, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *logHalf) bytesWritten() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]byte{}, h.log.Bytes()...)
}

// close releases a logHalf's readers (the recording pipe has no Close
// of its own; the engine tests never tear it down mid-protocol).
func (h *logHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

type logDuplex struct {
	r, w *logHalf
}

func (d logDuplex) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d logDuplex) Write(b []byte) (int, error) { return d.w.Write(b) }

// randomEngineTape drives a recycling builder through a random netlist
// with mid-stream input batches (like per-layer weight declarations),
// aggressive drops, and derived gates. Returns the tape and input sizes.
func randomEngineTape(r *rand.Rand) (tape *circuit.Tape, nG, nE int) {
	tape = circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	var live []uint32
	inLive := make(map[uint32]bool)
	add := func(w uint32) {
		// Folding can return constants or existing wires; only fresh
		// wires enter the pickable set.
		if w == circuit.WFalse || w == circuit.WTrue || inLive[w] {
			return
		}
		inLive[w] = true
		live = append(live, w)
	}
	addInputs := func(p circuit.Party, n int) {
		for _, w := range b.Inputs(p, n) {
			add(w)
		}
	}
	nG = 3 + r.Intn(8)
	nE = 2 + r.Intn(8)
	addInputs(circuit.Garbler, nG)
	addInputs(circuit.Evaluator, nE)
	pick := func() uint32 { return live[r.Intn(len(live))] }
	for i, steps := 0, 60+r.Intn(240); i < steps; i++ {
		switch op := r.Intn(12); {
		case op < 3:
			add(b.XOR(pick(), pick()))
		case op < 6:
			add(b.AND(pick(), pick()))
		case op < 7:
			add(b.INV(pick()))
		case op < 8:
			add(b.OR(pick(), pick()))
		case op < 9:
			add(b.MUX(pick(), pick(), pick()))
		case op < 11 && len(live) > 6:
			j := r.Intn(len(live))
			b.Drop(live[j])
			delete(inLive, live[j])
			live = append(live[:j], live[j+1:]...)
		default:
			n := 1 + r.Intn(4)
			if r.Intn(2) == 0 {
				addInputs(circuit.Garbler, n)
				nG += n
			} else {
				addInputs(circuit.Evaluator, n)
				nE += n
			}
		}
	}
	outs := make([]uint32, 1+r.Intn(len(live)))
	for i := range outs {
		outs[i] = live[r.Intn(len(live))]
	}
	b.Outputs(outs...)
	return tape, nG, nE
}

// plainTapeEval is the sequential plaintext reference.
type plainTapeEval struct {
	vals map[uint32]bool
	gb   []bool
	eb   []bool
	out  []bool
}

func (s *plainTapeEval) OnInputs(p circuit.Party, ws []uint32) error {
	src := &s.gb
	if p == circuit.Evaluator {
		src = &s.eb
	}
	for _, w := range ws {
		s.vals[w] = (*src)[0]
		*src = (*src)[1:]
	}
	return nil
}

func (s *plainTapeEval) OnGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.XOR:
		s.vals[g.Out] = s.vals[g.A] != s.vals[g.B]
	case circuit.AND, circuit.HalfAND:
		s.vals[g.Out] = s.vals[g.A] && s.vals[g.B]
	case circuit.INV:
		s.vals[g.Out] = !s.vals[g.A]
	}
	return nil
}

func (s *plainTapeEval) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		s.out = append(s.out, s.vals[w])
	}
	return nil
}

func (s *plainTapeEval) OnDrop(w uint32) error {
	delete(s.vals, w)
	return nil
}

// runEngines executes nInfer garbled inferences of sched over an
// in-memory recording pipe with the given worker count on both sides,
// and returns the decoded output bits per inference plus the full byte
// logs of each direction.
func runEngines(t *testing.T, sched *circuit.Schedule, gBits, eBits []bool, cfg EngineConfig, nInfer int, seed int64) (outs [][]bool, g2e, e2g []byte) {
	t.Helper()
	workers := cfg.Workers
	gToE := newLogHalf()
	eToG := newLogHalf()
	gConn := transport.New(logDuplex{r: eToG, w: gToE})
	eConn := transport.New(logDuplex{r: gToE, w: eToG})

	type evalResult struct {
		err error
	}
	evalDone := make(chan evalResult, 1)
	go func() {
		rng := rand.New(rand.NewSource(seed + 1))
		ots, err := ot.NewExtReceiver(eConn, rng)
		if err != nil {
			evalDone <- evalResult{err}
			return
		}
		// A pool keyed to the evaluator's bits that holds every inference
		// of the run: the setup fill is the only OT exchange.
		otp := precomp.NewReceiverPool(eConn, ots, rng, precomp.PoolConfig{Capacity: nInfer*len(eBits) + 1, RefillLowWater: 1})
		otp.SetKey(eBits)
		if err := otp.Announce(); err != nil {
			evalDone <- evalResult{err}
			return
		}
		en := &evalEngine{
			sched: sched,
			pool:  cfg.newPool(),
			conn:  eConn,
			ots:   otp,
		}
		for k := 0; k < nInfer; k++ {
			en.otr = otp.Reserve(1)
			constLabels, err := eConn.Recv(transport.MsgConstLabels)
			if err != nil {
				evalDone <- evalResult{err}
				return
			}
			en.e = newTestEvaluator(constLabels)
			en.cursor = 0
			en.inputBits = eBits
			en.outLabels = en.outLabels[:0]
			if err := en.run(); err != nil {
				evalDone <- evalResult{err}
				return
			}
			payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
			for _, l := range en.outLabels {
				payload = append(payload, l[:]...)
			}
			if err := eConn.Send(transport.MsgOutputLabels, payload); err != nil {
				evalDone <- evalResult{err}
				return
			}
			if err := eConn.Flush(); err != nil {
				evalDone <- evalResult{err}
				return
			}
		}
		evalDone <- evalResult{nil}
	}()

	rng := rand.New(rand.NewSource(seed))
	ots, err := ot.NewExtSender(gConn, rng)
	if err != nil {
		t.Fatalf("workers=%d: ot sender: %v", workers, err)
	}
	otp := precomp.NewSenderPool(gConn, ots, rng)
	if err := otp.HandleAnnounce(); err != nil {
		t.Fatalf("workers=%d: pool fill: %v", workers, err)
	}
	pool := cfg.newPool()
	for k := 0; k < nInfer; k++ {
		g, err := gc.NewBatchGarbler(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		consts, err := g.AppendConstLabels(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := gConn.Send(transport.MsgConstLabels, consts); err != nil {
			t.Fatal(err)
		}
		en := &garbleEngine{
			sched:     sched,
			g:         g,
			pool:      pool,
			conn:      gConn,
			ots:       otp,
			otr:       otp.Reserve(1),
			cfg:       cfg,
			inputBits: [][]bool{gBits},
		}
		if err := en.run(); err != nil {
			t.Fatalf("workers=%d infer %d: garble engine: %v", workers, k, err)
		}
		if err := gConn.Flush(); err != nil {
			t.Fatal(err)
		}
		payload, err := gConn.Recv(transport.MsgOutputLabels)
		if err != nil {
			t.Fatalf("workers=%d infer %d: output labels: %v", workers, k, err)
		}
		if len(payload) != len(en.outZero)*gc.LabelSize {
			t.Fatalf("workers=%d: output frame has %d bytes, want %d", workers, len(payload), len(en.outZero)*gc.LabelSize)
		}
		bits := make([]bool, len(en.outZero))
		for i := range en.outZero {
			var l gc.Label
			copy(l[:], payload[i*gc.LabelSize:])
			switch l {
			case en.outZero[i]:
				bits[i] = false
			case en.outZero[i].XOR(g.R[0]):
				bits[i] = true
			default:
				t.Fatalf("workers=%d infer %d: output label %d failed authentication", workers, k, i)
			}
		}
		outs = append(outs, bits)
	}
	if res := <-evalDone; res.err != nil {
		t.Fatalf("workers=%d: evaluator: %v", workers, res.err)
	}
	return outs, gToE.bytesWritten(), eToG.bytesWritten()
}

// newTestEvaluator returns a one-sample evaluator holding the const
// labels of a B=1 const-label frame.
func newTestEvaluator(constLabels []byte) *gc.BatchEvaluator {
	e, _ := gc.NewBatchEvaluator(1) // only b < 1 fails
	var lf, lt gc.Label
	copy(lf[:], constLabels[:gc.LabelSize])
	copy(lt[:], constLabels[gc.LabelSize:])
	e.SetLabel(circuit.WFalse, 0, lf)
	e.SetLabel(circuit.WTrue, 0, lt)
	return e
}

// engineTestConfig is the runEngines baseline configuration: small
// chunks so a run produces many frames.
func engineTestConfig(workers int) EngineConfig {
	return EngineConfig{Workers: workers, chunkBytes: 512}
}

// TestEngineConformance is the cross-mode property test: random recycled
// netlists must produce (a) plaintext-correct outputs, (b) identical
// outputs under Workers=1 and Workers=4, and (c) byte-identical wire
// traffic in both directions between the two modes. Run it with -race:
// the Workers=4 mode exercises the garble pool and the evaluate pool
// concurrently.
func TestEngineConformance(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 5
	}
	// The random tapes must put the half AND in play, and at an odd count
	// in some level: that level's block ends 16 bytes off a 32-byte
	// boundary, so the chunk cut behind it (chunks are 512 bytes here)
	// falls between two one-ciphertext tables.
	var halves, oddLevels int
	defer func() {
		if !t.Failed() && (halves == 0 || oddLevels == 0) {
			t.Errorf("%d half ANDs and %d levels of an odd count of them over all tapes: the kind went untested", halves, oddLevels)
		}
	}()
	for it := 0; it < iters; it++ {
		r := rand.New(rand.NewSource(int64(9100 + it)))
		tape, nG, nE := randomEngineTape(r)
		sched, err := circuit.NewSchedule(tape)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		halves += int(sched.Halves)
		for li := range sched.Levels {
			oddLevels += sched.Levels[li].Halves % 2
		}
		gBits := make([]bool, nG)
		eBits := make([]bool, nE)
		for i := range gBits {
			gBits[i] = r.Intn(2) == 1
		}
		for i := range eBits {
			eBits[i] = r.Intn(2) == 1
		}

		ref := &plainTapeEval{vals: map[uint32]bool{circuit.WFalse: false, circuit.WTrue: true},
			gb: append([]bool{}, gBits...), eb: append([]bool{}, eBits...)}
		if err := tape.Replay(ref); err != nil {
			t.Fatalf("iter %d: reference replay: %v", it, err)
		}

		seed := int64(77000 + it)
		const nInfer = 2
		seqOuts, seqG2E, seqE2G := runEngines(t, sched, gBits, eBits, engineTestConfig(1), nInfer, seed)
		parOuts, parG2E, parE2G := runEngines(t, sched, gBits, eBits, engineTestConfig(4), nInfer, seed)

		for k := 0; k < nInfer; k++ {
			if fmt.Sprint(seqOuts[k]) != fmt.Sprint(ref.out) {
				t.Fatalf("iter %d infer %d: sequential outputs %v, plaintext %v", it, k, seqOuts[k], ref.out)
			}
			if fmt.Sprint(parOuts[k]) != fmt.Sprint(ref.out) {
				t.Fatalf("iter %d infer %d: parallel outputs %v, plaintext %v", it, k, parOuts[k], ref.out)
			}
		}
		if !bytes.Equal(seqG2E, parG2E) {
			t.Fatalf("iter %d: garbler→evaluator streams differ between Workers=1 (%d bytes) and Workers=4 (%d bytes)",
				it, len(seqG2E), len(parG2E))
		}
		if !bytes.Equal(seqE2G, parE2G) {
			t.Fatalf("iter %d: evaluator→garbler streams differ between Workers=1 (%d bytes) and Workers=4 (%d bytes)",
				it, len(seqE2G), len(parE2G))
		}
		// The stream carries 16 bytes per ciphertext and not a byte more
		// than the frames around them need.
		if tables := nInfer * int(sched.TableBytes()); len(seqG2E) < tables || sched.TableBytes() != 16*(2*sched.ANDs-sched.Halves) {
			t.Fatalf("iter %d: %d bytes streamed, the schedule's tables alone are %d", it, len(seqG2E), tables)
		}
	}
}

// TestEngineSessionConformance runs the full session protocol (handshake,
// OT base phase, compiled program) against a real model with sequential
// and parallel engines on both sides, pinning label equality across the
// four worker-count combinations.
func TestEngineSessionConformance(t *testing.T) {
	net := testNet(t, act.ReLU, 99)
	x := make([]float64, net.In.Len())
	rng := rand.New(rand.NewSource(5150))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	var want int
	for i, combo := range [][2]int{{1, 1}, {4, 1}, {1, 4}, {4, 4}} {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: fixed.Default, Engine: EngineConfig{Workers: combo[1]}}
		var wg sync.WaitGroup
		wg.Add(1)
		var srvErr error
		go func() {
			defer wg.Done()
			_, srvErr = srv.ServeSession(sConn)
		}()
		cli := &Client{Engine: EngineConfig{Workers: combo[0], chunkBytes: 2048}}
		labels, _, err := cli.InferMany(cConn, [][]float64{x, x})
		wg.Wait()
		closer.Close()
		if err != nil {
			t.Fatalf("combo %v: %v", combo, err)
		}
		if srvErr != nil {
			t.Fatalf("combo %v: server: %v", combo, srvErr)
		}
		if labels[0] != labels[1] {
			t.Fatalf("combo %v: same sample classified %d then %d", combo, labels[0], labels[1])
		}
		if i == 0 {
			want = labels[0]
		} else if labels[0] != want {
			t.Fatalf("combo %v: label %d, want %d (from sequential run)", combo, labels[0], want)
		}
	}
}

// TestEngineSharedPoolConformance is the byte-determinism proof at the
// session-engine layer — wire bytes do not depend on scheduling: for
// widths 2 and 4, with 1, 2, and 4 sessions running concurrently on the one
// process-wide scheduler, every session's streams must be byte-identical to
// a lone width-1 run, which never leaves its goroutine (and whose tables the
// gc layer pins to the per-gate Garbler.Garble reference:
// TestSharedPoolMatchesPrivate, TestBatchMatchesSequential). Run with
// -race: concurrent sessions steal chunks from each other's regions.
func TestEngineSharedPoolConformance(t *testing.T) {
	r := rand.New(rand.NewSource(424))
	tape, nG, nE := randomEngineTape(r)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	gBits := make([]bool, nG)
	eBits := make([]bool, nE)
	for i := range gBits {
		gBits[i] = r.Intn(2) == 1
	}
	for i := range eBits {
		eBits[i] = r.Intn(2) == 1
	}
	const nInfer = 2
	seed := int64(88000)
	_, wantG2E, wantE2G := runEngines(t, sched, gBits, eBits, engineTestConfig(1), nInfer, seed)
	for _, w := range []int{2, 4} {
		for _, sessions := range []int{1, 2, 4} {
			g2e := make([][]byte, sessions)
			e2g := make([][]byte, sessions)
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					_, g2e[s], e2g[s] = runEngines(t, sched, gBits, eBits, engineTestConfig(w), nInfer, seed)
				}(s)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for s := 0; s < sessions; s++ {
				if !bytes.Equal(wantG2E, g2e[s]) {
					t.Fatalf("workers=%d sessions=%d: session %d garbler stream differs from the sequential run", w, sessions, s)
				}
				if !bytes.Equal(wantE2G, e2g[s]) {
					t.Fatalf("workers=%d sessions=%d: session %d evaluator stream differs from the sequential run", w, sessions, s)
				}
			}
		}
	}
}

// TestEvalEngineDeadPeer: when the garbler's connection dies mid-run the
// evaluator surfaces the transport error, at either worker count, and
// leaves no goroutine behind — its table cursor reads on the engine's own
// goroutine, so there is nothing to drain.
func TestEvalEngineDeadPeer(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	// Two dependent AND levels: 64 table bytes expected, only 32 sent.
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	in := b.Inputs(circuit.Garbler, 2)
	w := b.AND(in[0], in[1])
	v := b.AND(w, in[1])
	b.Outputs(v)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		gConn, eConn, closer := transport.Pipe()
		// The "garbler": input labels, HALF the tables, then death.
		if err := gConn.Send(transport.MsgInputLabels, make([]byte, 2*gc.LabelSize)); err != nil {
			t.Fatal(err)
		}
		if err := gConn.Send(transport.MsgTables, make([]byte, gc.TableSize)); err != nil {
			t.Fatal(err)
		}
		if err := gConn.Flush(); err != nil {
			t.Fatal(err)
		}
		closer.Close()

		en := &evalEngine{
			sched: sched,
			e:     newTestEvaluator(make([]byte, 2*gc.LabelSize)),
			pool:  gc.NewPool(workers),
			conn:  eConn,
		}
		if err := en.run(); err == nil || !strings.HasPrefix(err.Error(), "transport: ") {
			t.Fatalf("workers=%d: engine on a truncated table stream returned %v, want the transport error", workers, err)
		}
	}
}

// heldDuplex is a client's end of an in-memory link whose writes can be
// parked mid-stream: once budget is set, the write that would exceed it
// delivers what fits, closes held and waits for release.
type heldDuplex struct {
	r, w          *logHalf
	budget        int // bytes still let through; negative = no limit
	held, release chan struct{}
}

func (d *heldDuplex) Read(b []byte) (int, error) { return d.r.Read(b) }

func (d *heldDuplex) Write(b []byte) (int, error) {
	if d.budget < 0 || len(b) <= d.budget {
		if d.budget >= 0 {
			d.budget -= len(b)
		}
		return d.w.Write(b)
	}
	n := d.budget
	d.budget = -1
	d.w.Write(b[:n]) //nolint:errcheck — a logHalf write fails only once closed, and the next write reports that
	close(d.held)
	<-d.release
	m, err := d.w.Write(b[n:])
	return n + m, err
}

// TestEvaluatorAddsNoGoroutinePerRun pins the evaluator's one prefetch stage:
// with the table feed of an inference held mid-run on a Workers: 4 server
// session, the only goroutines the session has started are its reader and its
// writer (the shared scheduler's workers are process-wide) — nothing per
// level run stands between the ring and the engine.
func TestEvaluatorAddsNoGoroutinePerRun(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	checkHeld := testutil.VerifyNoLeaks(t,
		"core.(*sessionMux).run(", "core.(*sessionMux).readLoop(", "core.(*sessionMux).writeLoop(", "core.(*Session).Infer(")
	f := fixed.Default
	net := testNet(t, act.ReLU, 31)
	x := []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3}

	c2s, s2c := newLogHalf(), newLogHalf()
	link := &heldDuplex{r: s2c, w: c2s, budget: -1, held: make(chan struct{}), release: make(chan struct{})}
	sConn := transport.New(logDuplex{r: c2s, w: s2c})
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(601)), Engine: EngineConfig{Workers: 4},
		OTPool: precomp.PoolConfig{Capacity: 8 * testNetWeightBits}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	// Sequential garbling in small chunks: every write is on the Infer
	// goroutine, and each level run spans several table frames.
	cli := &Client{Rng: rand.New(rand.NewSource(602)), Engine: EngineConfig{Workers: 1, chunkBytes: 1024}}
	sess, err := cli.NewSession(transport.New(link))
	if err != nil {
		t.Fatal(err)
	}
	want := net.PredictFixed(f, x)
	// The first inference measures the burst; the second is held with the
	// tail of its last table frame unsent.
	before := len(c2s.bytesWritten())
	if label, _, err := sess.Infer(x); err != nil || label != want {
		t.Fatalf("first inference = %d, %v; want %d", label, err, want)
	}
	link.budget = len(c2s.bytesWritten()) - before - gc.TableSize
	levels := sConn.Progress.Load()
	type result struct {
		label int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		label, _, err := sess.Infer(x)
		done <- result{label, err}
	}()
	<-link.held
	for deadline := time.Now().Add(10 * time.Second); sConn.Progress.Load() == levels; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held inference never evaluated a level")
		}
	}
	checkHeld()
	close(link.release)
	if r := <-done; r.err != nil || r.label != want {
		t.Fatalf("held inference = %d, %v; want %d", r.label, r.err, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	checkLeaks()
}

// frameFeed is a FrameConn that hands out prepared table frames.
type frameFeed struct {
	transport.FrameConn
	frames [][]byte
}

func (f *frameFeed) Recv(want transport.MsgType) ([]byte, error) {
	if len(f.frames) == 0 {
		return nil, io.EOF
	}
	p := f.frames[0]
	f.frames = f.frames[1:]
	return p, nil
}

// TestTableRunTakesWholeLevels pins the evaluator's frame handling: the
// garbler cuts frames at level boundaries, so any grouping of whole levels
// is served in place with every frame recycled exactly once, a level that
// spans two frames is refused, and the run's byte accounting catches both a
// surplus and a remainder.
func TestTableRunTakesWholeLevels(t *testing.T) {
	stream := make([]byte, 40)
	for i := range stream {
		stream[i] = byte(i + 1)
	}
	cut := func(sizes ...int) [][]byte {
		var out [][]byte
		off := 0
		for _, n := range sizes {
			out = append(out, append([]byte(nil), stream[off:off+n]...))
			off += n
		}
		return out
	}
	levels := []int{4, 6, 0, 8, 1, 21}
	for _, sizes := range [][]int{{40}, {10, 9, 21}, {4, 6, 8, 1, 21}, {4, 36}, {19, 21}} {
		recycled := 0
		tr := startTableRun(&frameFeed{frames: cut(sizes...)}, len(stream), func([]byte) { recycled++ })
		off := 0
		for _, need := range levels {
			block, err := tr.level(need)
			if err != nil {
				t.Fatalf("frames %v: level of %d bytes: %v", sizes, need, err)
			}
			if !bytes.Equal(block, stream[off:off+need]) {
				t.Fatalf("frames %v: level at %d got %v, want %v", sizes, off, block, stream[off:off+need])
			}
			off += need
		}
		if err := tr.finish(nil); err != nil {
			t.Fatalf("frames %v: finish: %v", sizes, err)
		}
		if recycled != len(sizes) {
			t.Fatalf("frames %v: %d frames recycled, want each once", sizes, recycled)
		}
	}
	for _, sizes := range [][]int{{3, 37}, {12, 28}, {18, 2, 20}} {
		tr := startTableRun(&frameFeed{frames: cut(sizes...)}, len(stream), nil)
		var err error
		for _, need := range levels {
			if _, err = tr.level(need); err != nil {
				break
			}
		}
		if err == nil || !strings.Contains(err.Error(), "spans a frame boundary") {
			t.Fatalf("frames %v split a level: err = %v, want it refused", sizes, err)
		}
	}
	tr := startTableRun(&frameFeed{}, 0, nil)
	if block, err := tr.level(0); err != nil || len(block) != 0 || tr.finish(nil) != nil {
		t.Fatalf("a run of free gates only: %v, %v", block, err)
	}
	tr = startTableRun(&frameFeed{frames: cut(30, 10)}, 35, nil)
	if _, err := tr.level(30); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.level(5); err == nil || !strings.Contains(err.Error(), "overrun") {
		t.Fatalf("frames beyond the run's budget: err = %v, want an overrun", err)
	}
	tr = startTableRun(&frameFeed{frames: cut(40)}, 40, nil)
	if _, err := tr.level(30); err != nil {
		t.Fatal(err)
	}
	if err := tr.finish(nil); err == nil || !strings.Contains(err.Error(), "unconsumed") {
		t.Fatalf("bytes left at the run boundary: err = %v, want unconsumed", err)
	}
}

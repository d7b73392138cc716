package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// TestGarbleTranscriptPinned pins what the garbling engine sends, byte for
// byte: the sha256 of the client→server stream of a fixed-rng session over
// the "small" model — two single inferences, then one batch of three — at
// Workers 1 and 4. A change that means to move the client's bytes (the
// netlist, the frames, the rng draw order) re-records want.
//
// wantEngine pins the same stream with the session framing dropped (hello,
// begin and end; stripTags), re-serialized frame by frame as type, 4-byte
// little-endian length, payload: the OT set-up and the engine's frames.
// wantInfer pins the inference frames alone (begin, constants, input
// labels, tables), so that a change to the set-up shows that it moved no
// garbling byte. want and wantEngine were last re-recorded when the base
// phase became a receiver-first random OT (deepsecure/19): the hello, the
// base-phase frame and so the client's ot-ext-y changed; wantInfer was
// recorded before that change and kept its value across it.
func TestGarbleTranscriptPinned(t *testing.T) {
	const (
		want       = "78c678d93d748960414127101986c4cb72c9c672ce7248d1a8b1c1cfdd03fe60"
		wantEngine = "b2c67d7aed95a58921b9243032eaa17c2f2c44cc247436ee06df4c16d97015bf"
		wantInfer  = "126c82a7886202c367eec24eb6d7cf69b35a85aede226aac72052cfc40743cb1"
	)
	net, err := benchmarks.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(31)))
	f := benchmarks.Format
	r := rand.New(rand.NewSource(32))
	xs := make([][]float64, 5)
	for i := range xs {
		xs[i] = make([]float64, net.In.Len())
		for j := range xs[i] {
			xs[i][j] = r.Float64()*2 - 1
		}
	}
	for _, workers := range []int{1, 4} {
		c2s, s2c := newLogHalf(), newLogHalf()
		cConn := transport.New(logDuplex{r: s2c, w: c2s})
		sConn := transport.New(logDuplex{r: c2s, w: s2c})
		srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(33)), Engine: EngineConfig{Workers: workers}}
		var wg sync.WaitGroup
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, srvErr = srv.ServeSession(sConn)
		}()
		cli := &Client{Rng: rand.New(rand.NewSource(34)), Engine: EngineConfig{Workers: workers}}
		sess, err := cli.NewSession(cConn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var labels []int
		for _, x := range xs[:2] {
			label, _, err := sess.Infer(x)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			labels = append(labels, label)
		}
		batch, _, err := sess.InferBatch(xs[2:])
		if err != nil {
			t.Fatalf("workers=%d: batch: %v", workers, err)
		}
		labels = append(labels, batch...)
		if err := sess.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", workers, err)
		}
		wg.Wait()
		if srvErr != nil {
			t.Fatalf("workers=%d: server: %v", workers, srvErr)
		}
		for i, x := range xs {
			if want := net.PredictFixed(f, x); labels[i] != want {
				t.Fatalf("workers=%d sample %d: label %d, plaintext %d", workers, i, labels[i], want)
			}
		}
		sent := c2s.bytesWritten()
		sum := sha256.Sum256(sent)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: client→server transcript of %d bytes hashes to %s, pinned %s", workers, len(sent), got, want)
		}
		var engine, infer []byte
		for _, fr := range parseFrames(t, sent) {
			switch fr.typ {
			case transport.MsgConstLabels, transport.MsgInputLabels, transport.MsgTables, transport.MsgInferBegin:
				infer = appendFrame(infer, fr)
			}
		}
		for _, fr := range stripTags(t, parseFrames(t, sent)) {
			engine = appendFrame(engine, fr)
		}
		sum = sha256.Sum256(engine)
		if got := hex.EncodeToString(sum[:]); got != wantEngine {
			t.Errorf("workers=%d: the engine's %d of those bytes hash to %s, pinned %s", workers, len(engine), got, wantEngine)
		}
		sum = sha256.Sum256(infer)
		if got := hex.EncodeToString(sum[:]); got != wantInfer {
			t.Errorf("workers=%d: the inference frames' %d bytes hash to %s, pinned %s", workers, len(infer), got, wantInfer)
		}
	}
}

// appendFrame re-serializes a frame as type, 4-byte little-endian length,
// payload.
func appendFrame(b []byte, fr wireFrame) []byte {
	b = append(b, byte(fr.typ))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(fr.payload)))
	return append(b, fr.payload...)
}

// TestEvaluatorZeroLabelsHaveColourZero pins the convention half ANDs rest
// on, where the labels are made: a session draws every weight wire's
// zero-label with permute bit 0, so each active label the evaluator takes
// out of the set-up OT has its own weight bit as its colour, in every
// sample, at B = 1 and 16. Garbler steps keep a free permute bit: at
// B = 16 some of their active labels' colours differ from the garbler's
// bit.
func TestEvaluatorZeroLabelsHaveColourZero(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	tape, nG, nE := randomEngineTape(r)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = r.Intn(2) == 1
		}
		return out
	}
	eBits := bits(nE)
	for _, b := range []int{1, 16} {
		gBits := make([][]bool, b)
		for s := range gBits {
			gBits[s] = bits(nG)
		}
		gToE, eToG := newLogHalf(), newLogHalf()
		gConn := transport.New(logDuplex{r: eToG, w: gToE})
		eConn := transport.New(logDuplex{r: gToE, w: eToG})
		type result struct {
			checked, flipped int
			err              error
		}
		done := make(chan result, 1)
		go func() {
			checked, flipped, err := evaluatorColours(sched, eConn, gBits, eBits)
			done <- result{checked, flipped, err}
		}()

		rng := rand.New(rand.NewSource(48))
		ots, err := ot.NewExtSender(gConn, rng)
		if err != nil {
			t.Fatal(err)
		}
		delta, weights, pairs, err := weightLabels(rng, nE)
		if err != nil {
			t.Fatal(err)
		}
		if err := ots.Send(pairs); err != nil {
			t.Fatal(err)
		}
		g, err := gc.NewSessionGarbler(rng, delta, b)
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
		en := &garbleEngine{sched: sched, g: g, pool: gc.NewPool(1), conn: gConn, weights: weights,
			cfg: EngineConfig{Workers: 1}, inputBits: gBits}
		if err := en.run(); err != nil {
			t.Fatal(err)
		}
		if err := gConn.Flush(); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if res.err != nil {
			t.Fatalf("B=%d: %v", b, res.err)
		}
		if res.checked != nE*b {
			t.Fatalf("B=%d: checked %d evaluator labels, want %d", b, res.checked, nE*b)
		}
		if b == 16 && res.flipped == 0 {
			t.Errorf("all %d garbler labels have their bit as colour too: the clearing is not party-specific", nG*b)
		}
	}
}

// evaluatorColours evaluates one inference of len(gBits) samples step by
// step and compares the colour of every input label it holds with the bit
// the label encodes: an evaluator label's must be its bit (checked counts
// them); flipped counts the garbler labels whose colour is not.
func evaluatorColours(sched *circuit.Schedule, conn *transport.Conn, gBits [][]bool, eBits []bool) (checked, flipped int, err error) {
	b := len(gBits)
	rng := rand.New(rand.NewSource(49))
	ots, err := ot.NewExtReceiver(conn, rng)
	if err != nil {
		return 0, 0, err
	}
	chosen, err := ots.Receive(eBits)
	if err != nil {
		return 0, 0, err
	}
	weights := make([]gc.Label, len(chosen))
	for i, m := range chosen {
		weights[i] = gc.Label(m)
	}
	consts, err := conn.Recv(transport.MsgConstLabels)
	if err != nil {
		return 0, 0, err
	}
	e, err := gc.NewBatchEvaluator(b)
	if err != nil {
		return 0, 0, err
	}
	for s := 0; s < b; s++ {
		e.SetLabel(circuit.WFalse, s, gc.Label(consts[s*gc.LabelSize:]))
		e.SetLabel(circuit.WTrue, s, gc.Label(consts[(b+s)*gc.LabelSize:]))
	}
	en := &evalEngine{sched: sched, e: e, pool: gc.NewPool(1), conn: conn, weights: weights}
	e.Grow(sched.NumWires)
	gCur := 0
	for si := range sched.Steps {
		st := &sched.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			eCur := en.cursor
			if err := en.doInputs(st); err != nil {
				return 0, 0, err
			}
			for i, w := range st.Wires {
				for s := 0; s < b; s++ {
					l, err := e.Label(w, s)
					if err != nil {
						return 0, 0, err
					}
					switch {
					case st.Party == circuit.Garbler:
						if l.LSB() != gBits[s][gCur+i] {
							flipped++
						}
					case l.LSB() != eBits[eCur+i]:
						return 0, 0, fmt.Errorf("evaluator step %d wire %d sample %d: colour %v, bit %v", si, i, s, l.LSB(), eBits[eCur+i])
					default:
						checked++
					}
				}
			}
			if st.Party == circuit.Garbler {
				gCur += len(st.Wires)
			}
		case circuit.StepLevels:
			err = en.doLevels(st)
		case circuit.StepOutputs:
			err = en.doOutputs(st)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return checked, flipped, nil
}

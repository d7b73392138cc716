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
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// TestGarbleTranscriptPinned pins what the garbling engine sends, byte for
// byte: the sha256 of the client→server stream of a fixed-rng session over
// the "small" model — two single inferences, then one batch of three — at
// Workers 1 and 4. The pool holds all five samples, so no refill draws the
// client rng mid-session. A change that means to move the client's bytes
// (the netlist, the frames, the rng draw order) re-records want.
//
// wantEngine pins the same stream with the session framing dropped (hello,
// begin and end; stripTags), re-serialized frame by frame as type, 4-byte
// little-endian length, payload: the OT set-up and the engine's frames. It
// was recorded while every inference frame carried an inference tag and the
// garbler wrote its tables from a goroutine of its own, so it holds the
// engine's bytes to what they were before both went.
func TestGarbleTranscriptPinned(t *testing.T) {
	const (
		want       = "32ab527c3ecb3e2e0633fbec775a1f0bc651ea1685832e3a798d89d064f3dc2e"
		wantEngine = "6e0c8b93b65cc814917b62feb923f806343efea7e8b0e10f7e2f65888ee1f454"
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
		srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(33)), Engine: EngineConfig{Workers: workers},
			OTPool: precomp.PoolConfig{Capacity: len(xs)*len(nn.WeightBits(net, f)) + 1, RefillLowWater: 1}}
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
		var engine []byte
		for _, fr := range stripTags(t, parseFrames(t, sent)) {
			engine = append(engine, byte(fr.typ))
			engine = binary.LittleEndian.AppendUint32(engine, uint32(len(fr.payload)))
			engine = append(engine, fr.payload...)
		}
		sum = sha256.Sum256(engine)
		if got := hex.EncodeToString(sum[:]); got != wantEngine {
			t.Errorf("workers=%d: the engine's %d of those bytes hash to %s, pinned %s", workers, len(engine), got, wantEngine)
		}
	}
}

// TestEvaluatorZeroLabelsHaveColourZero pins the convention half ANDs rest
// on, where the labels are made: the garbling engine draws every evaluator
// input wire's zero-label with permute bit 0, so each active label the
// evaluator takes out of the pool has its own weight bit as its colour, at
// B = 1 and 16. Garbler steps keep a free permute bit: at B = 16 some of
// their active labels' colours differ from the garbler's bit.
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
		otp := precomp.NewSenderPool(gConn, ots, rng)
		if err := otp.HandleAnnounce(); err != nil {
			t.Fatal(err)
		}
		g, err := gc.NewBatchGarbler(rng, b)
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
		en := &garbleEngine{sched: sched, g: g, pool: gc.NewPool(1), conn: gConn, ots: otp, otr: otp.Reserve(b),
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
	otp := precomp.NewReceiverPool(conn, ots, rng, precomp.PoolConfig{Capacity: b*len(eBits) + 1, RefillLowWater: 1})
	otp.SetKey(eBits)
	if err := otp.Announce(); err != nil {
		return 0, 0, err
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
	en := &evalEngine{sched: sched, e: e, pool: gc.NewPool(1), conn: conn, ots: otp, otr: otp.Reserve(b), inputBits: eBits}
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

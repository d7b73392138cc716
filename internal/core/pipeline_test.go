package core

import (
	"bytes"
	"encoding/binary"
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
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// wireFrame is one parsed protocol frame of a recorded byte stream.
type wireFrame struct {
	typ     transport.MsgType
	payload []byte
}

func parseFrames(t *testing.T, raw []byte) []wireFrame {
	t.Helper()
	var out []wireFrame
	for off := 0; off < len(raw); {
		if off+5 > len(raw) {
			t.Fatalf("truncated frame header at offset %d", off)
		}
		typ := transport.MsgType(raw[off])
		n := int(binary.LittleEndian.Uint32(raw[off+1 : off+5]))
		off += 5
		if off+n > len(raw) {
			t.Fatalf("truncated %v payload at offset %d", typ, off)
		}
		out = append(out, wireFrame{typ, raw[off : off+n]})
		off += n
	}
	return out
}

// stripTags reduces one direction of a session's frame stream to its
// engine-level content: session framing is dropped (hello / arch /
// pipeline / begin / end — after validating their payloads), and the
// engines' frames and the OT frames pass through as they are.
func stripTags(t *testing.T, frames []wireFrame) []wireFrame {
	t.Helper()
	var out []wireFrame
	for _, f := range frames {
		switch f.typ {
		case transport.MsgHello:
			if _, _, err := parseHello(f.payload); err != nil {
				t.Fatalf("hello = %q: %v", f.payload, err)
			}
		case transport.MsgArch, transport.MsgEndSession:
		case transport.MsgPipeline:
			d, n := binary.Uvarint(f.payload)
			if n <= 0 || d < 1 {
				t.Fatalf("malformed pipeline payload %v", f.payload)
			}
			mb, n2 := binary.Uvarint(f.payload[n:])
			if n2 <= 0 || n+n2 != len(f.payload) || mb < 1 {
				t.Fatalf("malformed pipeline payload %v", f.payload)
			}
		case transport.MsgInferBegin:
			if bsz, n := binary.Uvarint(f.payload); n <= 0 || n != len(f.payload) || bsz < 1 {
				t.Fatalf("begin payload %v carries no valid sample count", f.payload)
			}
		default:
			out = append(out, f)
		}
	}
	return out
}

// refillBanking is the reference evaluator's receive face on a pooled
// session: it banks refill answers wherever they arrive in the garbler's
// stream, which is what a session's reader does.
type refillBanking struct {
	*transport.Conn
	otp *precomp.ReceiverPool
}

func (v refillBanking) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := v.RecvAny(want)
	return p, err
}

func (v refillBanking) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	for {
		typ, p, err := v.Conn.RecvAny(append(want, transport.MsgOTExtY)...)
		if err != nil || typ != transport.MsgOTExtY {
			return typ, p, err
		}
		if err := v.otp.FinishRefill(p); err != nil {
			return 0, nil, err
		}
	}
}

// referenceSerialRun replays a strictly serial protocol from the raw
// building blocks — shared OT extension and pools, no session framing,
// strictly alternating inferences, refills announced where a session
// announces them — recording both directions. Its randomness
// consumption matches the session path's (base id, extension base phase,
// pool fill, one garbler per inference), so with equal seeds the frame
// contents must match a depth-1 session's.
// firstSession is the OT nonce of a fresh Client's first session with a
// fresh Server.
var firstSession = ot.SessionNonce(1, 1)

func referenceSerialRun(t *testing.T, net *nn.Network, xs [][]float64, poolCfg precomp.PoolConfig, cliSeed, srvSeed int64) (g2e, e2g []byte) {
	t.Helper()
	f := fixed.Default
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{Workers: 1, chunkBytes: 2048}
	gToE := newLogHalf()
	eToG := newLogHalf()
	gConn := transport.New(logDuplex{r: eToG, w: gToE})
	eConn := transport.New(logDuplex{r: gToE, w: eToG})
	weightBits := nn.WeightBits(net, f)

	evalDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(srvSeed))
		var id baseID // a session's server mints one before the base phase
		if _, err := io.ReadFull(rng, id[:]); err != nil {
			evalDone <- err
			return
		}
		base, err := ot.NewReceiverBase(eConn, rng)
		if err != nil {
			evalDone <- err
			return
		}
		ots := base.Session(eConn, firstSession)
		otp := precomp.NewReceiverPool(eConn, ots, rng, poolCfg)
		otp.SetKey(weightBits)
		if err := otp.Announce(); err != nil {
			evalDone <- err
			return
		}
		pool := gc.NewPool(1)
		eConn := refillBanking{eConn, otp}
		for range xs {
			otr := otp.Reserve(1)
			if err := otp.Cover(otr); err != nil {
				evalDone <- err
				return
			}
			constLabels, err := eConn.Recv(transport.MsgConstLabels)
			if err != nil {
				evalDone <- err
				return
			}
			en := &evalEngine{
				sched:     prog.Schedule,
				e:         newTestEvaluator(constLabels),
				pool:      pool,
				conn:      eConn,
				ots:       otp,
				otr:       otr,
				inputBits: weightBits,
			}
			if err := en.run(); err != nil {
				evalDone <- err
				return
			}
			if err := otp.SendRefills(); err != nil {
				evalDone <- err
				return
			}
			payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
			for _, l := range en.outLabels {
				payload = append(payload, l[:]...)
			}
			if err := eConn.Send(transport.MsgOutputLabels, payload); err != nil {
				evalDone <- err
				return
			}
			if err := eConn.Flush(); err != nil {
				evalDone <- err
				return
			}
		}
		evalDone <- nil
	}()

	rng := rand.New(rand.NewSource(cliSeed))
	base, err := ot.NewSenderBase(gConn, rng)
	if err != nil {
		t.Fatal(err)
	}
	otp := precomp.NewSenderPool(gConn, base.Session(gConn, firstSession), rng)
	if err := otp.HandleAnnounce(); err != nil {
		t.Fatal(err)
	}
	pool := gc.NewPool(1)
	for _, x := range xs {
		bits := make([]bool, 0, len(x)*f.Bits())
		for _, v := range x {
			bits = append(bits, f.FromFloatSat(v).Bits()...)
		}
		otr := otp.Reserve(1)
		if err := otp.Cover(otr); err != nil {
			t.Fatal(err)
		}
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
			sched:     prog.Schedule,
			g:         g,
			pool:      pool,
			conn:      gConn,
			ots:       otp,
			otr:       otr,
			cfg:       cfg,
			inputBits: [][]bool{bits},
		}
		if err := en.run(); err != nil {
			t.Fatal(err)
		}
		// The answer, behind any refill the evaluator announced meanwhile.
		for {
			typ, payload, err := gConn.RecvAny(transport.MsgOutputLabels, transport.MsgOTRefill)
			if err != nil {
				t.Fatal(err)
			}
			if typ == transport.MsgOutputLabels {
				break
			}
			if err := otp.HandleRefill(typ, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-evalDone; err != nil {
		t.Fatalf("reference evaluator: %v", err)
	}
	return gToE.bytesWritten(), eToG.bytesWritten()
}

// sessionRun records a full session (Client/Server API) at the given
// pipeline depth over a logging pipe.
func sessionRun(t *testing.T, net *nn.Network, xs [][]float64, poolCfg precomp.PoolConfig, depth int, cliSeed, srvSeed int64) (labels []int, g2e, e2g []byte, srvStats *Stats) {
	t.Helper()
	gToE := newLogHalf()
	eToG := newLogHalf()
	cConn := transport.New(logDuplex{r: eToG, w: gToE})
	sConn := transport.New(logDuplex{r: gToE, w: eToG})
	cfg := EngineConfig{Workers: 1, chunkBytes: 2048, Pipeline: depth}
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(srvSeed)), Engine: cfg, OTPool: poolCfg}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(cliSeed)), Engine: cfg}
	labels, _, err := cli.InferMany(cConn, xs)
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels, gToE.bytesWritten(), eToG.bytesWritten(), srvStats
}

// TestPipelineDepth1Conformance pins pipeline depth 1 ≡ serial: at
// depth 1 the session protocol's frames are byte-identical to a strictly
// serial run of the engines once the session framing is dropped. The
// reference stream is regenerated from the raw protocol building blocks;
// the two frame sequences must match byte-for-byte in both directions — on
// a pool that never refills mid-session and on one that does.
func TestPipelineDepth1Conformance(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	rng := rand.New(rand.NewSource(62))
	xs := make([][]float64, 3)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	for name, poolCfg := range map[string]precomp.PoolConfig{
		"warm":      {Capacity: 4 * testNetWeightBits, RefillLowWater: 1},
		"refilling": {Capacity: 2048, RefillLowWater: 512},
	} {
		t.Run(name, func(t *testing.T) {
			const cliSeed, srvSeed = 8801, 8802
			_, v4G2E, v4E2G, _ := sessionRun(t, net, xs, poolCfg, 1, cliSeed, srvSeed)
			refG2E, refE2G := referenceSerialRun(t, net, xs, poolCfg, cliSeed, srvSeed)

			for _, dir := range []struct {
				name     string
				v4, ref  []byte
				refFirst transport.MsgType
			}{
				{"garbler→evaluator", v4G2E, refG2E, 0},
				{"evaluator→garbler", v4E2G, refE2G, 0},
			} {
				got := stripTags(t, parseFrames(t, dir.v4))
				want := parseFrames(t, dir.ref)
				if len(got) != len(want) {
					t.Fatalf("%s: %d content frames, reference has %d", dir.name, len(got), len(want))
				}
				for i := range got {
					if got[i].typ != want[i].typ {
						t.Fatalf("%s frame %d: type %v, reference %v", dir.name, i, got[i].typ, want[i].typ)
					}
					if !bytes.Equal(got[i].payload, want[i].payload) {
						t.Fatalf("%s frame %d (%v): payload differs from the serial reference (%d vs %d bytes)",
							dir.name, i, got[i].typ, len(got[i].payload), len(want[i].payload))
					}
				}
			}
		})
	}
}

// TestPipelineOverlapConformance is the depth-2 acceptance test: labels
// must match the plaintext reference and the depth-1 run on the derived
// default pool, an explicit one and a tiny one, and the in-flight window
// must actually be used (the client runs ahead — begin k+1 hits the wire
// before output k is read).
func TestPipelineOverlapConformance(t *testing.T) {
	net := testNet(t, act.ReLU, 63)
	f := fixed.Default
	rng := rand.New(rand.NewSource(64))
	xs := make([][]float64, 5)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}
	for name, poolCfg := range map[string]precomp.PoolConfig{
		"derived":  {},
		"explicit": {Capacity: 2048, RefillLowWater: 512},
		"tiny":     {Capacity: 64, RefillLowWater: 16},
	} {
		t.Run(name, func(t *testing.T) {
			labels1, _, _, _ := sessionRun(t, net, xs, poolCfg, 1, 9901, 9902)
			labels2, g2e, _, srvStats := sessionRun(t, net, xs, poolCfg, 2, 9903, 9904)
			for i := range xs {
				if labels2[i] != want[i] || labels1[i] != want[i] {
					t.Fatalf("sample %d: depth2=%d depth1=%d plaintext=%d", i, labels2[i], labels1[i], want[i])
				}
			}
			// Client run-ahead is deterministic from the send order: with
			// depth 2 every begin after the first must hit the wire before
			// the previous inference's outputs are consumed, i.e. the
			// garbler→evaluator stream interleaves begins mid-window.
			frames := parseFrames(t, g2e)
			begins := 0
			for _, fr := range frames {
				if fr.typ == transport.MsgInferBegin {
					begins++
				}
			}
			if begins != len(xs) {
				t.Fatalf("%d begin frames for %d inferences", begins, len(xs))
			}
			if srvStats.Inferences != int64(len(xs)) {
				t.Fatalf("server counted %d inferences, want %d", srvStats.Inferences, len(xs))
			}
		})
	}
}

// TestInferAsyncWindow exercises the client-side window mechanics: the
// session garbles ahead up to the window, forcibly settles the oldest
// in-flight inference when full, and keeps results retrievable through
// Wait after Close.
func TestInferAsyncWindow(t *testing.T) {
	net := testNet(t, act.ReLU, 65)
	f := fixed.Default
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(71)), Engine: EngineConfig{Pipeline: 2}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.ServeSession(sConn); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(72)), Engine: EngineConfig{Pipeline: 2}}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Window() != 2 {
		t.Fatalf("negotiated window %d, want 2", sess.Window())
	}
	rng := rand.New(rand.NewSource(73))
	const k = 4
	ps := make([]*PendingInference, 0, k)
	want := make([]int, 0, k)
	for i := 0; i < k; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		want = append(want, net.PredictFixed(f, x))
		p, err := sess.InferAsync(x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		ps = append(ps, p)
		if i >= 2 && !ps[i-2].Done() {
			// The window is 2: garbling inference i forces inference i-2
			// (and older) to settle first.
			t.Fatalf("inference %d still pending after %d entered the window", i-2, i)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		label, st, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if label != want[i] {
			t.Fatalf("inference %d: label %d, want %d", i, label, want[i])
		}
		if st.Inferences != 1 || st.ANDGates == 0 {
			t.Errorf("inference %d stats not populated: %+v", i, st)
		}
	}
	cs := sess.Stats()
	if cs.Inferences != k {
		t.Fatalf("session stats count %d inferences, want %d", cs.Inferences, k)
	}
	wg.Wait()
}

// TestPipelineDepthNegotiation pins min(client, server) window
// negotiation in both directions.
func TestPipelineDepthNegotiation(t *testing.T) {
	net := testNet(t, act.ReLU, 68)
	for _, tc := range []struct {
		client, server, want int
	}{
		{2, 1, 1},
		{1, 2, 1},
		{4, 2, 2},
		{2, 4, 2},
	} {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(85)), Engine: EngineConfig{Pipeline: tc.server}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeSession(sConn) //nolint:errcheck — torn down by the pipe close
		}()
		cli := &Client{Rng: rand.New(rand.NewSource(86)), Engine: EngineConfig{Pipeline: tc.client}}
		sess, err := cli.NewSession(cConn)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Window() != tc.want {
			t.Fatalf("client %d / server %d: window %d, want %d", tc.client, tc.server, sess.Window(), tc.want)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		closer.Close()
	}
}

// TestPipelineUnsolicitedOTFrameRejected pins that refill answers nobody
// asked for error the session out instead of being banked.
func TestPipelineUnsolicitedOTFrameRejected(t *testing.T) {
	net := testNet(t, act.ReLU, 70)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(88))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(89))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sess.conn.Send(transport.MsgOTExtY, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.conn.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr == nil || !strings.Contains(srvErr.Error(), "unsolicited") {
		t.Fatalf("server error = %v, want unsolicited-frame rejection", srvErr)
	}
}

// TestPipelineMidOTDisconnectTerminates pins the teardown path where the
// client vanishes while an inference is parked at its first evaluator-input
// step, waiting for a masked-label frame that never comes, with the next
// inference's begin already behind it on the wire: the evaluation must
// unwind — on the begin it cannot take, or on the reader's end — or
// ServeSession hangs forever.
func TestPipelineMidOTDisconnectTerminates(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 90)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Workers: 1, chunkBytes: 2048, Pipeline: 2}
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(91)), Engine: cfg}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(92)), Engine: cfg}
	if _, err := cli.NewSession(cConn); err != nil {
		t.Fatalf("open session: %v", err)
	}
	// Hand-craft two inference bursts that each stop at the first
	// evaluator-input step (the same program the server schedules from, so
	// frame sizes line up; label contents are irrelevant — evaluation never
	// starts).
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := cConn.Send(transport.MsgInferBegin, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := cConn.Send(transport.MsgConstLabels, make([]byte, 2*gc.LabelSize)); err != nil {
			t.Fatal(err)
		}
	walk:
		for i := range prog.Schedule.Steps {
			st := &prog.Schedule.Steps[i]
			switch {
			case st.Kind == circuit.StepInputs && st.Party == circuit.Garbler:
				if err := cConn.Send(transport.MsgInputLabels, make([]byte, len(st.Wires)*gc.LabelSize)); err != nil {
					t.Fatal(err)
				}
			case st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator:
				break walk
			default:
				t.Fatalf("test net schedules step %d (%v) before the first evaluator-input step", i, st.Kind)
			}
		}
	}
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	// Disconnect without ever sending the masked labels.
	closer.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mid-inference disconnect should surface as a session error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ServeSession still blocked 30s after a mid-OT disconnect")
	}
	checkLeaks()
}

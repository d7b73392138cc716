package core

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// testNetWeightBits is W for testNet at fixed.Default: 6·5 + 5·4 weights of
// 24 Booth digit bits each and 5 + 4 biases of 16 bits.
const testNetWeightBits = 50*24 + 9*16

// dirLog records, on the client's side of the wire, the direction of
// every run of bytes moved: 'w' when the client writes after reading (or
// first), 'r' when it reads after writing.
type dirLog struct {
	io.ReadWriter
	mu   sync.Mutex
	runs []byte
}

func (d *dirLog) moved(dir byte, n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	if len(d.runs) == 0 || d.runs[len(d.runs)-1] != dir {
		d.runs = append(d.runs, dir)
	}
	d.mu.Unlock()
}

func (d *dirLog) Write(b []byte) (int, error) {
	n, err := d.ReadWriter.Write(b)
	d.moved('w', n)
	return n, err
}

func (d *dirLog) Read(b []byte) (int, error) {
	n, err := d.ReadWriter.Read(b)
	d.moved('r', n)
	return n, err
}

// take returns the directions logged since the last call.
func (d *dirLog) take() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := string(d.runs)
	d.runs = nil
	return s
}

// poolSession opens a client session against a server with the given pool
// and window over a recording pipe; end closes the session, waits for the
// server and returns its stats and both byte transcripts.
func poolSession(t *testing.T, net *nn.Network, pool precomp.PoolConfig, window int) (sess *Session, wire *dirLog, end func() (srvStats *Stats, c2s, s2c []byte)) {
	t.Helper()
	cfg := EngineConfig{Workers: 1, chunkBytes: 4096, Pipeline: window}
	return wireSession(t,
		&Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(11)), Engine: cfg, OTPool: pool},
		&Client{Rng: rand.New(rand.NewSource(12)), Engine: cfg})
}

// wireSession opens a session of cli against srv over a recording pipe;
// end is as in poolSession.
func wireSession(t *testing.T, srv *Server, cli *Client) (sess *Session, wire *dirLog, end func() (srvStats *Stats, c2s, s2c []byte)) {
	t.Helper()
	c2sHalf, s2cHalf := newLogHalf(), newLogHalf()
	wire = &dirLog{ReadWriter: logDuplex{r: s2cHalf, w: c2sHalf}}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(transport.New(logDuplex{r: c2sHalf, w: s2cHalf}))
	}()
	sess, err := cli.NewSession(transport.New(wire))
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	return sess, wire, func() (*Stats, []byte, []byte) {
		t.Helper()
		if err := sess.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wg.Wait()
		if srvErr != nil {
			t.Fatalf("server: %v", srvErr)
		}
		return srvStats, c2sHalf.bytesWritten(), s2cHalf.bytesWritten()
	}
}

func randSamples(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	return xs
}

// TestOneFlightWireShape pins the protocol's shape, on a warm pool and with
// no option set anywhere.
func TestOneFlightWireShape(t *testing.T) {
	t.Run("warmPool", testOneFlightWarmPool)
	t.Run("zeroConfig", testOneFlightZeroConfig)
}

// On a warm pool a single inference, a window's worth of asynchronous ones
// and a batch are each one client burst answered by one server burst — the
// client moves no byte toward itself between its begin frame and its final
// flush, and the server sends nothing the client has to answer.
func testOneFlightWarmPool(t *testing.T) {
	net := testNet(t, act.ReLU, 31)
	f := fixed.Default
	// Warm for the whole test: 1 + 2 + 4 samples, no low-water crossing.
	pool := precomp.PoolConfig{Capacity: 16 * testNetWeightBits, RefillLowWater: 1}
	sess, wire, end := poolSession(t, net, pool, 2)
	xs := randSamples(32, 7)
	want := make([]int, len(xs))
	for i, x := range xs {
		want[i] = net.PredictFixed(f, x)
	}
	wire.take() // setup is a conversation; the inferences are not

	label, _, err := sess.Infer(xs[0])
	if err != nil || label != want[0] {
		t.Fatalf("Infer = %d, %v; want %d", label, err, want[0])
	}
	if got := wire.take(); got != "wr" {
		t.Errorf("Infer moved bytes %q, want one burst out and one back (\"wr\")", got)
	}

	var ps []*PendingInference
	for i := 1; i <= sess.Window(); i++ {
		p, err := sess.InferAsync(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if got := wire.take(); got != "w" {
		t.Errorf("%d× InferAsync moved bytes %q before any Wait, want writes only", len(ps), got)
	}
	for i, p := range ps {
		if label, _, err := p.Wait(); err != nil || label != want[1+i] {
			t.Fatalf("async inference %d = %d, %v; want %d", i, label, err, want[1+i])
		}
	}
	if got := wire.take(); got != "r" {
		t.Errorf("settling the window moved bytes %q, want reads only", got)
	}

	labels, _, err := sess.InferBatch(xs[3:7])
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != want[3+i] {
			t.Fatalf("batch sample %d = %d, want %d", i, l, want[3+i])
		}
	}
	if got := wire.take(); got != "wr" {
		t.Errorf("InferBatch(4) moved bytes %q, want \"wr\"", got)
	}
	srvStats, _, s2c := end()
	if srvStats.OTRefills != 1 || srvStats.OTsConsumed != 7*testNetWeightBits {
		t.Errorf("server pool: %d fills, %d consumed; want the setup fill and 7 samples' worth", srvStats.OTRefills, srvStats.OTsConsumed)
	}
	// After setup the server's whole side of the conversation is outputs.
	seenOutputs := false
	for _, fr := range parseFrames(t, s2c) {
		switch fr.typ {
		case transport.MsgOutputLabels:
			seenOutputs = true
		default:
			if seenOutputs {
				t.Errorf("server sent a %v frame after its first outputs", fr.typ)
			}
		}
	}
}

// One flight is the protocol, not a configuration: a server and a client
// with no option set at all
// (deepsecure.Serve ↔ deepsecure.Infer) run every inference as one client
// burst answered by one server burst. The server's burst is the outputs,
// preceded — when the derived pool (W × window) ran low — by a refill
// announcement, which the client banks and answers with nothing.
func testOneFlightZeroConfig(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const w = testNetWeightBits
	net := testNet(t, act.ReLU, 38)
	f := fixed.Default
	sess, wire, end := wireSession(t, &Server{Net: net, Fmt: f}, &Client{})
	wire.take() // setup is a conversation; the inferences are not
	xs := randSamples(39, 5)
	for i, x := range xs {
		label, _, err := sess.Infer(x)
		if want := net.PredictFixed(f, x); err != nil || label != want {
			t.Fatalf("inference %d = %d, %v; want %d", i, label, err, want)
		}
		// The fill covers a window of 2, so a refill rides every second
		// answer, in the same read as the outputs.
		if got := wire.take(); got != "wr" {
			t.Errorf("inference %d moved bytes %q, want \"wr\"", i, got)
		}
	}
	srvStats, c2s, s2c := end()
	// The derived capacity is W × window: the setup fill and the refills
	// after inferences 2 and 4, of a whole pool each.
	if srvStats.OTRefills != 3 || srvStats.OTsPooled != 3*2*w || srvStats.OTsConsumed != 5*w {
		t.Errorf("server pool: %d fills, %d pooled, %d consumed; want 3, %d, %d",
			srvStats.OTRefills, srvStats.OTsPooled, srvStats.OTsConsumed, 3*2*w, 5*w)
	}
	// No OT frame sits inside a burst: the client sends none, and the
	// server's refill requests each precede an outputs frame.
	if types := frameTypes(parseFrames(t, c2s)); slices.Contains(types, transport.MsgOTExtY) {
		t.Errorf("client sent %v: a refill answered", types)
	}
	frames := parseFrames(t, s2c)
	for i, fr := range frames {
		if fr.typ == transport.MsgOTExtU && (i+1 == len(frames) || frames[i+1].typ != transport.MsgOutputLabels) {
			t.Errorf("server→client frame %d: %v is not followed by outputs", i, fr.typ)
		}
	}
	checkLeaks()
}

// TestDerivedPoolOneShot pins what the derived default costs the shortest
// session there is: one inference generates at most one range more than it
// consumes, at either end of the window range.
func TestDerivedPoolOneShot(t *testing.T) {
	const w = testNetWeightBits
	net := testNet(t, act.ReLU, 40)
	for _, window := range []int{1, 2} {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: fixed.Default, Engine: EngineConfig{Pipeline: window}}
		done := make(chan *Stats, 1)
		go func() {
			st, err := srv.ServeSession(sConn)
			if err != nil {
				t.Errorf("window %d: server: %v", window, err)
			}
			done <- st
		}()
		x := randSamples(41, 1)[0]
		label, _, err := (&Client{}).Infer(cConn, x)
		if want := net.PredictFixed(fixed.Default, x); err != nil || label != want {
			t.Fatalf("window %d: Infer = %d, %v; want %d", window, label, err, want)
		}
		if st := <-done; st.OTsConsumed != w || st.OTsPooled < w || st.OTsPooled > 2*w {
			t.Errorf("window %d: one-shot session pooled %d OTs and consumed %d, want at most one range (%d) spare",
				window, st.OTsPooled, st.OTsConsumed, w)
		}
		closer.Close()
	}
}

// hostileServer plays a server up to the end of the OT base phase on sConn
// and then hands over to rest, whose error it returns on the channel.
func hostileServer(net *nn.Network, sConn *transport.Conn, rest func(ots *ot.ExtReceiver, rng *rand.Rand) error) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			hello, err := sConn.Recv(transport.MsgHello)
			if err != nil {
				return err
			}
			cid, _, err := parseHello(hello)
			if err != nil {
				return err
			}
			spec, err := net.Spec(fixed.Default).Marshal()
			if err != nil {
				return err
			}
			prog, err := netgen.Compile(net, fixed.Default, netgen.Options{})
			if err != nil {
				return err
			}
			if err := sConn.Send(transport.MsgArch, archFrame(prog.Digest, baseID{1}, 1, spec)); err != nil {
				return err
			}
			if err := sConn.Send(transport.MsgPipeline, []byte{2, 32}); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(36))
			base, err := ot.NewReceiverBase(sConn, rng)
			if err != nil {
				return err
			}
			return rest(base.Session(sConn, ot.SessionNonce(cid, 1)), rng)
		}()
	}()
	return done
}

// TestUnpooledServerRefused pins both ways a server can still ask for the
// per-step IKNP exchange this protocol no longer has, and that the client
// refuses each at that frame with a typed error and nothing left running:
// a pool announcement of capacity 0 fails NewSession, an extension request
// inside an inference (no refill announced) fails the inference.
func TestUnpooledServerRefused(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 42)
	var pe *precomp.PeerError

	cConn, sConn, closer := transport.Pipe()
	done := hostileServer(net, sConn, func(*ot.ExtReceiver, *rand.Rand) error {
		announce := binary.AppendUvarint(binary.AppendUvarint(nil, 0), testNetWeightBits)
		if err := sConn.Send(transport.MsgOTRefill, announce); err != nil {
			return err
		}
		return sConn.Flush()
	})
	if _, err := (&Client{}).NewSession(cConn); !errors.As(err, &pe) {
		t.Errorf("NewSession against a capacity-0 announcement = %v, want a precomp.PeerError", err)
	}
	if err := <-done; err != nil {
		t.Errorf("capacity-0 server's own setup: %v", err)
	}
	closer.Close()

	cConn, sConn, closer = transport.Pipe()
	done = hostileServer(net, sConn, func(ots *ot.ExtReceiver, rng *rand.Rand) error {
		otp := precomp.NewReceiverPool(sConn, ots, rng, precomp.PoolConfig{Capacity: 2048})
		otp.SetKey(nn.WeightBits(net, fixed.Default))
		if err := otp.Announce(); err != nil {
			return err
		}
		if _, err := sConn.Recv(transport.MsgInferBegin); err != nil {
			return err
		}
		if err := sConn.Send(transport.MsgOTExtU, make([]byte, ot.ExtULen(8))); err != nil {
			return err
		}
		return sConn.Flush()
	})
	sess, err := (&Client{}).NewSession(cConn)
	if err != nil {
		t.Fatalf("NewSession against a pooled announcement: %v", err)
	}
	if label, _, err := sess.Infer(randSamples(43, 1)[0]); !errors.As(err, &pe) {
		t.Errorf("Infer answered by ot-ext-u = %d, %v; want a precomp.PeerError", label, err)
	}
	if err := <-done; err != nil {
		t.Errorf("ot-ext-u server's own run: %v", err)
	}
	closer.Close()
	checkLeaks()
}

// TestDoctoredProgramDigestRefused: a server whose architecture frame names
// another program than the one this client compiles from the architecture
// in it — a peer built from a different netlist generator, here one flipped
// digest bit — is refused by NewSession with a typed error before the OT
// base phase (the server reads no frame after the hello), with no session
// and nothing left running. An honest pair passes the same check in every
// other session test.
func TestDoctoredProgramDigestRefused(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 44)
	prog, err := netgen.Compile(net, fixed.Default, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doctored := prog.Digest
	doctored[7] ^= 0x10
	spec, err := net.Spec(fixed.Default).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn, closer := transport.Pipe()
	type next struct {
		typ transport.MsgType
		err error
	}
	done := make(chan next, 1)
	go func() {
		_, err := sConn.Recv(transport.MsgHello)
		if err == nil {
			err = sConn.Send(transport.MsgArch, archFrame(doctored, baseID{1}, 1, spec))
		}
		if err == nil {
			err = sConn.Send(transport.MsgPipeline, []byte{2, 32})
		}
		if err == nil {
			err = sConn.Flush()
		}
		if err != nil {
			t.Errorf("doctoring server's own setup: %v", err)
		}
		typ, _, err := sConn.ReadFrame()
		done <- next{typ, err}
	}()
	sess, err := (&Client{}).NewSession(cConn)
	var pm *ProgramMismatchError
	if !errors.As(err, &pm) || sess != nil {
		t.Fatalf("NewSession against a doctored digest = %v, %v; want no session and a *ProgramMismatchError", sess, err)
	}
	if pm.Server != doctored || pm.Client != prog.Digest {
		t.Errorf("error names programs %x / %x, want the doctored %x and the compiled %x", pm.Server, pm.Client, doctored, prog.Digest)
	}
	closer.Close()
	if n := <-done; n.err == nil {
		t.Errorf("the refused client still sent a %v frame after its hello", n.typ)
	}
	checkLeaks()

	// The digest separates what must not be confused: options and formats.
	other, err := netgen.Compile(net, fixed.Default, netgen.Options{Outsourced: true})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := netgen.Compile(net, fixed.Format{IntBits: 3, FracBits: 8}, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := netgen.Compile(net, fixed.Default, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest == prog.Digest || narrow.Digest == prog.Digest || again.Digest != prog.Digest {
		t.Errorf("program digests: %x twice %x, outsourced %x, Q3.8 %x", prog.Digest[:4], again.Digest[:4], other.Digest[:4], narrow.Digest[:4])
	}
}

// TestPoolRefillShapes drives sessions whose pools cannot hold the
// traffic: a refill after every inference (Capacity = W+1), on-demand
// refills in the middle of pipelined batches (Capacity < W, window 2,
// B = 3) and fills that wrap around the key (Capacity not a multiple of
// W) — and one on the derived default, which refills every second
// inference. Every label must equal nn.PredictFixed, both parties must hand out
// the same consecutive ranges, every announced refill must be banked on
// both sides before the session ends with no ot-ext-y on the wire, and
// nothing may linger afterwards.
func TestPoolRefillShapes(t *testing.T) {
	const w = testNetWeightBits
	net := testNet(t, act.ReLU, 33)
	f := fixed.Default
	for _, tc := range []struct {
		name   string
		pool   precomp.PoolConfig
		window int
		batch  int // samples per operation; 1 = InferAsync
		ops    int
	}{
		{"derivedDefault", precomp.PoolConfig{}, 2, 1, 6},
		{"refillEveryInference", precomp.PoolConfig{Capacity: w + 1}, 1, 1, 5},
		{"refillEveryInferenceBackground", precomp.PoolConfig{Capacity: w + 1, Background: true}, 2, 1, 5},
		{"onDemandMidBatch", precomp.PoolConfig{Capacity: w - 100}, 2, 3, 4},
		{"wrapAround", precomp.PoolConfig{Capacity: 2*w + w/2, RefillLowWater: w}, 2, 1, 7},
		{"wrapAroundBatch", precomp.PoolConfig{Capacity: 2*w + w/3}, 2, 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := testutil.VerifyNoLeaks(t)
			sess, _, end := poolSession(t, net, tc.pool, tc.window)
			type op struct {
				xs   [][]float64
				wait func() ([]int, error)
			}
			var inflight []op
			settle := func() {
				t.Helper()
				o := inflight[0]
				inflight = inflight[1:]
				labels, err := o.wait()
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range o.xs {
					if want := net.PredictFixed(f, x); labels[i] != want {
						t.Fatalf("label %d, nn.PredictFixed says %d", labels[i], want)
					}
				}
			}
			for i := 0; i < tc.ops; i++ {
				if len(inflight) == sess.Window() {
					settle()
				}
				xs := randSamples(int64(100+i), tc.batch)
				seq0 := sess.ots.Seq()
				o := op{xs: xs}
				if tc.batch == 1 {
					p, err := sess.InferAsync(xs[0])
					if err != nil {
						t.Fatal(err)
					}
					o.wait = func() ([]int, error) { l, _, err := p.Wait(); return []int{l}, err }
				} else {
					pb, err := sess.InferBatchAsync(xs)
					if err != nil {
						t.Fatal(err)
					}
					o.wait = func() ([]int, error) { ls, _, err := pb.Wait(); return ls, err }
				}
				// The operation owns exactly [seq0, seq0 + B·W): ranges of
				// successive operations are consecutive, hence disjoint.
				if got, want := sess.ots.Seq(), seq0+int64(tc.batch*w); got != want || seq0 != int64(i*tc.batch*w) {
					t.Fatalf("op %d reserved [%d, %d), want [%d, %d)", i, seq0, got, i*tc.batch*w, want)
				}
				inflight = append(inflight, o)
			}
			for len(inflight) > 0 {
				settle()
			}
			cliStats := sess.Stats()
			srvStats, c2s, s2c := end()
			total := int64(tc.ops * tc.batch * w)
			if srvStats.OTsConsumed != total || cliStats.OTsConsumed != total {
				t.Errorf("consumed %d (server) / %d (client) pooled OTs, want %d", srvStats.OTsConsumed, cliStats.OTsConsumed, total)
			}
			if srvStats.OTRefills < 3 {
				t.Errorf("server pool: %d fills, want a refill per operation or more", srvStats.OTRefills)
			}
			// Every refill the server announced was banked on both sides
			// with nothing sent back, and the last thing the server said was
			// an inference's outputs: a client holding all its results owes
			// the server nothing at Close.
			asked := 0
			frames := parseFrames(t, s2c)
			for _, fr := range frames {
				if fr.typ == transport.MsgOTExtU {
					asked++
				}
			}
			if int64(asked) != srvStats.OTRefills || int64(asked) != cliStats.OTRefills {
				t.Errorf("%d refills announced, %d banked by the server, %d by the client", asked, srvStats.OTRefills, cliStats.OTRefills)
			}
			if types := frameTypes(parseFrames(t, c2s)); slices.Contains(types, transport.MsgOTExtY) {
				t.Error("the client answered a refill (ot-ext-y on the wire)")
			}
			if last := frames[len(frames)-1].typ; last != transport.MsgOutputLabels {
				t.Errorf("server's last frame is %v, want outputs", last)
			}
			checkLeaks()
		})
	}
}

// TestPoolWidthMismatchRefusedAtSetup pins that the two parties agree on
// W before any inference: a server whose pool is keyed for a different
// number of weight bits than the client's netlist takes is refused by
// NewSession with a typed error.
func TestPoolWidthMismatchRefusedAtSetup(t *testing.T) {
	net := testNet(t, act.ReLU, 35)
	cConn, sConn, closer := transport.Pipe()
	// A server that keys its pool one bit too wide.
	done := hostileServer(net, sConn, func(ots *ot.ExtReceiver, rng *rand.Rand) error {
		otp := precomp.NewReceiverPool(sConn, ots, rng, precomp.PoolConfig{Capacity: 2048})
		otp.SetKey(make([]bool, testNetWeightBits+1))
		return otp.Announce()
	})
	_, err := (&Client{Rng: rand.New(rand.NewSource(37))}).NewSession(cConn)
	var mismatch *PoolMismatchError
	if !errors.As(err, &mismatch) || mismatch.Announced != testNetWeightBits+1 || mismatch.Compiled != testNetWeightBits {
		t.Errorf("NewSession = %v, want a PoolMismatchError %d vs %d", err, testNetWeightBits+1, testNetWeightBits)
	}
	if err := <-done; err != nil {
		t.Errorf("mismatching server's own setup: %v", err)
	}
	closer.Close()
}

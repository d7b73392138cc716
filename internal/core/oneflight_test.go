package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
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
	mu     sync.Mutex
	runs   []byte
	starts []int // the bytes written before each run began
	wrote  int
}

func (d *dirLog) moved(dir byte, n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	if len(d.runs) == 0 || d.runs[len(d.runs)-1] != dir {
		d.runs = append(d.runs, dir)
		d.starts = append(d.starts, d.wrote)
	}
	if dir == 'w' {
		d.wrote += n
	}
	d.mu.Unlock()
}

func (d *dirLog) Write(b []byte) (int, error) {
	n, err := d.ReadWriter.Write(b)
	d.moved('w', n)
	return n, err
}

// turnsBefore returns how many times the flow changed direction before the
// written byte at offset off went out.
func (d *dirLog) turnsBefore(off int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.runs) - 1; i >= 0; i-- {
		if d.runs[i] == 'w' && d.starts[i] <= off {
			return i
		}
	}
	return -1
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
	d.runs, d.starts, d.wrote = nil, nil, 0
	return s
}

// windowSession opens a client session against a server with the given
// window over a recording pipe; end closes the session, waits for the
// server and returns its stats and both byte transcripts.
func windowSession(t *testing.T, net *nn.Network, window int) (sess *Session, wire *dirLog, end func() (srvStats *Stats, c2s, s2c []byte)) {
	t.Helper()
	cfg := EngineConfig{Workers: 1, chunkBytes: 4096, Pipeline: window}
	return wireSession(t,
		&Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(11)), Engine: cfg},
		&Client{Rng: rand.New(rand.NewSource(12)), Engine: cfg})
}

// wireSession opens a session of cli against srv over a recording pipe;
// end is as in windowSession.
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

// TestOneFlightWireShape pins the protocol's shape, with the weight labels
// all transferred at set-up — the "warm pool" every session now has — and
// with no option set anywhere.
func TestOneFlightWireShape(t *testing.T) {
	t.Run("warmPool", testOneFlightWarmPool)
	t.Run("zeroConfig", testOneFlightZeroConfig)
}

// A single inference, a window's worth of asynchronous ones and a batch are
// each one client burst answered by one server burst — the client moves no
// byte toward itself between its begin frame and its final flush, and the
// server sends nothing the client has to answer.
func testOneFlightWarmPool(t *testing.T) {
	net := testNet(t, act.ReLU, 31)
	f := fixed.Default
	sess, wire, end := windowSession(t, net, 2)
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
	if srvStats.OTsConsumed != testNetWeightBits {
		t.Errorf("server ran %d OTs over 7 samples; want the set-up's W = %d", srvStats.OTsConsumed, testNetWeightBits)
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
// with no option set at all (deepsecure.Serve ↔ deepsecure.Infer) run
// every inference as one client burst answered by one server burst, and
// the set-up OT is the session's only OT: no OT frame follows the client's
// first begin or the server's first outputs.
func testOneFlightZeroConfig(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
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
		if got := wire.take(); got != "wr" {
			t.Errorf("inference %d moved bytes %q, want \"wr\"", i, got)
		}
	}
	srvStats, c2s, s2c := end()
	if srvStats.OTsConsumed != testNetWeightBits {
		t.Errorf("server ran %d OTs over 5 inferences; want the set-up's W = %d", srvStats.OTsConsumed, testNetWeightBits)
	}
	isOT := func(typ transport.MsgType) bool {
		return typ == transport.MsgOTExtU || typ == transport.MsgOTExtY || typ == transport.MsgOTRefill || typ == transport.MsgOTMasked
	}
	for dir, d := range map[string]struct {
		raw   []byte
		after transport.MsgType
	}{"client": {c2s, transport.MsgInferBegin}, "server": {s2c, transport.MsgOutputLabels}} {
		seen := false
		for _, fr := range parseFrames(t, d.raw) {
			seen = seen || fr.typ == d.after
			if seen && isOT(fr.typ) {
				t.Errorf("the %s sent a %v frame after its first %v", dir, fr.typ, d.after)
			}
		}
	}
	checkLeaks()
}

// TestDerivedPoolOneShot pins what OT costs the shortest session there is
// — one inference — at either end of the window range: exactly the W OTs
// of the set-up, whatever the window. (It once pinned the spare entries
// the OT pool derived from the window left over.)
func TestDerivedPoolOneShot(t *testing.T) {
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
		label, cliStats, err := (&Client{}).Infer(cConn, x)
		if want := net.PredictFixed(fixed.Default, x); err != nil || label != want {
			t.Fatalf("window %d: Infer = %d, %v; want %d", window, label, err, want)
		}
		if st := <-done; st.OTsConsumed != testNetWeightBits || cliStats.OTsConsumed != testNetWeightBits {
			t.Errorf("window %d: a one-shot session ran %d OTs on the server, %d on the client; want W = %d",
				window, st.OTsConsumed, cliStats.OTsConsumed, testNetWeightBits)
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
			if _, _, err := parseHello(hello); err != nil {
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
			if err := sConn.Send(transport.MsgArch, archFrame(prog.Digest, pairID{1}, spec)); err != nil {
				return err
			}
			if err := sConn.Send(transport.MsgPipeline, []byte{2, 32}); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(36))
			ots, err := ot.NewExtReceiver(sConn, rng)
			if err != nil {
				return err
			}
			return rest(ots, rng)
		}()
	}()
	return done
}

// TestUnpooledServerRefused pins both ways a server can still speak the
// OT pool protocol this one no longer has, and that the client refuses each
// at that frame's header with nothing left running: a pool announcement
// where the set-up OT's U belongs fails NewSession, for a client reads no
// ot-refill frame at all, and an extension request inside an inference — a
// refill's U — fails the inference, for no OT frame is legal after set-up.
func TestUnpooledServerRefused(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 42)

	cConn, sConn, closer := transport.Pipe()
	done := hostileServer(net, sConn, func(*ot.ExtReceiver, *rand.Rand) error {
		announce := binary.AppendUvarint(binary.AppendUvarint(nil, 2048), testNetWeightBits)
		if err := sConn.Send(transport.MsgOTRefill, announce); err != nil {
			return err
		}
		return sConn.Flush()
	})
	if _, err := (&Client{}).NewSession(cConn); err == nil || !strings.Contains(err.Error(), "ot-refill frame of 4 bytes exceeds its limit of 0") {
		t.Errorf("NewSession against a pool announcement = %v, want it refused at the ot-refill frame's header", err)
	}
	if err := <-done; err != nil {
		t.Errorf("announcing server's own setup: %v", err)
	}
	closer.Close()

	cConn, sConn, closer = transport.Pipe()
	done = hostileServer(net, sConn, func(ots *ot.ExtReceiver, _ *rand.Rand) error {
		if _, err := ots.Receive(nn.WeightBits(net, fixed.Default)); err != nil {
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
		t.Fatalf("NewSession against an honest set-up: %v", err)
	}
	want := fmt.Sprintf("ot-ext-u frame of %d bytes exceeds its limit of 0", ot.ExtULen(8))
	if label, _, err := sess.Infer(randSamples(43, 1)[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Infer answered by ot-ext-u = %d, %v; want %q", label, err, want)
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
// digest bit — is refused by NewSession with a typed error before the
// set-up OT (the server reads no frame after the hello and the base-phase
// frame behind it), with no session and nothing left running. An honest pair passes the same check in every
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
			_, err = sConn.Recv(transport.MsgOTBase)
		}
		if err == nil {
			err = sConn.Send(transport.MsgArch, archFrame(doctored, pairID{1}, spec))
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
		t.Errorf("the refused client still sent a %v frame after its base phase's", n.typ)
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

// TestPoolRefillShapes drives sessions through the traffic shapes the OT
// pool's refill policy was once tested under — the rows keep their names —
// where every sample of every operation reuses the weight labels of the one
// set-up OT: serial and windowed, single samples and batches of 2 and 3.
// Every label must equal nn.PredictFixed; the client must number each
// operation's samples with the next consecutive ordinals, which the server,
// numbering its admissions alike, must agree with or no output
// authenticates; both parties must count exactly the set-up's W OTs; no OT
// frame may follow the client's first begin; and nothing may linger
// afterwards.
func TestPoolRefillShapes(t *testing.T) {
	const w = testNetWeightBits
	net := testNet(t, act.ReLU, 33)
	f := fixed.Default
	for _, tc := range []struct {
		name   string
		window int
		batch  int // samples per operation; 1 = InferAsync
		ops    int
	}{
		{"derivedDefault", 2, 1, 6},
		{"refillEveryInference", 1, 1, 5},
		{"refillEveryInferenceBackground", 2, 1, 5},
		{"onDemandMidBatch", 2, 3, 4},
		{"wrapAround", 2, 1, 7},
		{"wrapAroundBatch", 2, 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := testutil.VerifyNoLeaks(t)
			sess, _, end := windowSession(t, net, tc.window)
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
				first := sess.next
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
				// The operation's samples are [first, first + B): the
				// ordinals of successive operations are consecutive, hence
				// disjoint.
				if got, want := sess.next, first+uint64(tc.batch); got != want || first != uint64(i*tc.batch) {
					t.Fatalf("op %d numbered [%d, %d), want [%d, %d)", i, first, got, i*tc.batch, want)
				}
				inflight = append(inflight, o)
			}
			for len(inflight) > 0 {
				settle()
			}
			cliStats := sess.Stats()
			srvStats, c2s, s2c := end()
			if srvStats.OTsConsumed != w || cliStats.OTsConsumed != w {
				t.Errorf("%d (server) / %d (client) OTs, want the set-up's %d", srvStats.OTsConsumed, cliStats.OTsConsumed, w)
			}
			begun := false
			for _, fr := range parseFrames(t, c2s) {
				begun = begun || fr.typ == transport.MsgInferBegin
				if begun && fr.typ == transport.MsgOTExtY {
					t.Error("the client sent ot-ext-y after its first begin")
				}
			}
			frames := parseFrames(t, s2c)
			if last := frames[len(frames)-1].typ; last != transport.MsgOutputLabels {
				t.Errorf("server's last frame is %v, want outputs", last)
			}
			checkLeaks()
		})
	}
}

// TestPoolWidthMismatchRefusedAtSetup pins that the two parties agree on
// W, the weight bits the set-up OT transfers, before any inference: a
// server whose U is a byte column wider than the client's netlist takes is
// refused at the frame's header, unread, and one a byte column narrower by
// the U length check.
func TestPoolWidthMismatchRefusedAtSetup(t *testing.T) {
	net := testNet(t, act.ReLU, 35)
	for _, tc := range []struct {
		w    int
		want string
	}{
		{testNetWeightBits + 8, fmt.Sprintf("ot-ext-u frame of %d bytes exceeds its limit of %d", ot.ExtULen(testNetWeightBits+8), ot.ExtULen(testNetWeightBits))},
		{testNetWeightBits - 8, fmt.Sprintf("U matrix is %d bytes, want %d", ot.ExtULen(testNetWeightBits-8), ot.ExtULen(testNetWeightBits))},
	} {
		cConn, sConn, closer := transport.Pipe()
		done := hostileServer(net, sConn, func(ots *ot.ExtReceiver, _ *rand.Rand) error {
			_, err := ots.Receive(make([]bool, tc.w))
			return err
		})
		_, err := (&Client{Rng: rand.New(rand.NewSource(37))}).NewSession(cConn)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewSession against a set-up OT of %d choices = %v, want %q", tc.w, err, tc.want)
		}
		closer.Close()
		if err := <-done; err == nil {
			t.Errorf("the server of %d choices got an answer", tc.w)
		}
	}
}

// TestPairOfAnotherWidthRefused: a hello offers every pair id the client
// holds, so a server can name one the client filed with another server. A
// pair whose weight labels do not number the program's weight bits is
// refused at set-up, before anything is garbled.
func TestPairOfAnotherWidthRefused(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 65)
	cConn, sConn, closer := transport.Pipe()
	done := hostileServer(net, sConn, func(*ot.ExtReceiver, *rand.Rand) error { return nil })
	cli := &Client{}
	cli.filePair(&clientPair{id: pairID{1}, delta: gc.Label{1}, weights: make([]gc.Label, 3)})
	if _, err := cli.NewSession(cConn); err == nil || !strings.Contains(err.Error(), "holds 3 weight labels") {
		t.Errorf("NewSession on a pair of 3 weight labels: %v", err)
	}
	closer.Close()
	<-done
	checkLeaks()
}

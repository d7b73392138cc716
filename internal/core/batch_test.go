package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// batchSessionRun records a full session that classifies xs as ONE
// fused batched inference (Client/Server API) over a logging pipe.
func batchSessionRun(t *testing.T, xs [][]float64, cliSeed, srvSeed int64) (labels []int, g2e, e2g []byte, srvStats *Stats) {
	t.Helper()
	net := testNet(t, act.ReLU, 61)
	gToE := newLogHalf()
	eToG := newLogHalf()
	cConn := transport.New(logDuplex{r: eToG, w: gToE})
	sConn := transport.New(logDuplex{r: gToE, w: eToG})
	cfg := EngineConfig{Workers: 1, chunkBytes: 2048, Pipeline: 1}
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(srvSeed)), Engine: cfg}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(cliSeed)), Engine: cfg}
	labels, _, err := cli.InferBatch(cConn, xs)
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels, gToE.bytesWritten(), eToG.bytesWritten(), srvStats
}

// TestBatchSize1Conformance is the B=1 transcript pin: from the same rng
// seeds, a session that classifies x with Infer and one that classifies it
// with InferBatch([x]) put the same bytes on the wire — frame types and
// payloads, client→server and back. A lone inference IS a batch
// of one. Chained with
// TestPipelineDepth1Conformance, which pins the session stream to a
// serial run of the raw building blocks, this anchors every batch size's
// framing to one reference.
func TestBatchSize1Conformance(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	rng := rand.New(rand.NewSource(62))
	x := make([]float64, 6)
	for j := range x {
		x[j] = rng.Float64()*2 - 1
	}
	const cliSeed, srvSeed = 8801, 8802
	singleLabels, sgG2E, sgE2G, _ := sessionRun(t, net, [][]float64{x}, 2048, 1, cliSeed, srvSeed)
	batchLabels, btG2E, btE2G, _ := batchSessionRun(t, [][]float64{x}, cliSeed, srvSeed)
	if want := net.PredictFixed(fixed.Default, x); batchLabels[0] != want || singleLabels[0] != want {
		t.Fatalf("InferBatch([x]) classified %d, Infer(x) %d, plaintext %d", batchLabels[0], singleLabels[0], want)
	}
	if !bytes.Equal(btG2E, sgG2E) {
		t.Fatalf("client→server: InferBatch([x]) sent %d bytes that differ from Infer(x)'s %d", len(btG2E), len(sgG2E))
	}
	if !bytes.Equal(btE2G, sgE2G) {
		t.Fatalf("server→client: InferBatch([x]) got %d bytes that differ from Infer(x)'s %d", len(btE2G), len(sgE2G))
	}
}

// TestBatchMatchesPlaintext runs fused batches through the full
// protocol across batch sizes and worker counts, and checks every
// sample's label against the plaintext fixed-point forward pass.
func TestBatchMatchesPlaintext(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.TanhPL, 71)
	rng := rand.New(rand.NewSource(72))
	for _, tc := range []struct {
		b       int
		workers int
	}{
		{2, 1},
		{5, 1},
		{5, 4},
		{3, 4},
	} {
		t.Run(fmt.Sprintf("B=%d/workers=%d", tc.b, tc.workers), func(t *testing.T) {
			xs := make([][]float64, tc.b)
			want := make([]int, tc.b)
			for i := range xs {
				xs[i] = make([]float64, 6)
				for j := range xs[i] {
					xs[i][j] = rng.Float64()*2 - 1
				}
				want[i] = net.PredictFixed(f, xs[i])
			}
			cConn, sConn, closer := transport.Pipe()
			defer closer.Close()
			cfg := EngineConfig{Workers: tc.workers, chunkBytes: 2048}
			srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(81)), Engine: cfg}
			var wg sync.WaitGroup
			var srvStats *Stats
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				srvStats, srvErr = srv.ServeSession(sConn)
			}()
			cli := &Client{Rng: rand.New(rand.NewSource(82)), Engine: cfg}
			labels, st, err := cli.InferBatch(cConn, xs)
			wg.Wait()
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			if srvErr != nil {
				t.Fatalf("server: %v", srvErr)
			}
			for i := range labels {
				if labels[i] != want[i] {
					t.Fatalf("sample %d: secure label %d, plaintext label %d", i, labels[i], want[i])
				}
			}
			if st.Inferences != int64(tc.b) {
				t.Fatalf("client stats count %d inferences, want %d", st.Inferences, tc.b)
			}
			if srvStats.Inferences != int64(tc.b) {
				t.Fatalf("server stats count %d inferences, want %d", srvStats.Inferences, tc.b)
			}
		})
	}
}

// TestBatchComposesWithPipeline interleaves one-sample and batched
// inferences on one pipelined session: a batch occupies one window slot
// and the results resolve per inference, in begin order.
func TestBatchComposesWithPipeline(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 73)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Pipeline: 2}
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(83)), Engine: cfg}
	var wg sync.WaitGroup
	var srvStats *Stats
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if srvStats, err = srv.ServeSession(sConn); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(84)), Engine: cfg}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(85))
	sample := func() []float64 {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		return x
	}
	x1 := sample()
	batch := [][]float64{sample(), sample(), sample()}
	x2 := sample()

	p1, err := sess.InferAsync(x1)
	if err != nil {
		t.Fatalf("single 1: %v", err)
	}
	pb, err := sess.InferBatchAsync(batch)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	p2, err := sess.InferAsync(x2)
	if err != nil {
		t.Fatalf("single 2: %v", err)
	}
	l1, _, err := p1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	bl, bst, err := pb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if want := net.PredictFixed(f, x1); l1 != want {
		t.Fatalf("single 1: label %d, want %d", l1, want)
	}
	if want := net.PredictFixed(f, x2); l2 != want {
		t.Fatalf("single 2: label %d, want %d", l2, want)
	}
	for i := range batch {
		if want := net.PredictFixed(f, batch[i]); bl[i] != want {
			t.Fatalf("batch sample %d: label %d, want %d", i, bl[i], want)
		}
	}
	if bst.Inferences != 3 || pb.Size() != 3 {
		t.Fatalf("batch stats count %d inferences (size %d), want 3", bst.Inferences, pb.Size())
	}
	if total := srvStats.Inferences; total != 5 {
		t.Fatalf("server counted %d inferences, want 5", total)
	}
	if cs := sess.Stats(); cs.Inferences != 5 {
		t.Fatalf("session stats count %d inferences, want 5", cs.Inferences)
	}
}

// TestBatchOTAmortization pins the OT amortization contract: a session's
// weight labels cross once, at set-up, so a session classifying a batch of
// B samples runs exactly the W OTs that one classifying a single sample
// runs — not B× them — and neither puts an OT frame inside an inference.
func TestBatchOTAmortization(t *testing.T) {
	const b = 8
	rng := rand.New(rand.NewSource(74))
	xs := make([][]float64, b)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	_, g2eSingle, _, single := batchSessionRun(t, xs[:1], 9001, 9002)
	_, g2eBatched, _, batched := batchSessionRun(t, xs, 9003, 9004)
	if single.OTsConsumed != testNetWeightBits || batched.OTsConsumed != testNetWeightBits {
		t.Fatalf("a session of one sample ran %d OTs, one of %d samples %d; want W = %d for both",
			single.OTsConsumed, b, batched.OTsConsumed, testNetWeightBits)
	}
	for _, g2e := range [][]byte{g2eSingle, g2eBatched} {
		begun := false
		for _, fr := range parseFrames(t, g2e) {
			switch {
			case fr.typ == transport.MsgInferBegin:
				begun = true
			case begun && (fr.typ == transport.MsgOTExtY || fr.typ == transport.MsgOTMasked):
				t.Fatalf("client sent a %v frame after its first begin", fr.typ)
			}
		}
	}
}

// TestBatchValidation is the batch-input validation coverage: ragged
// sample widths, an empty batch, and a batch beyond the negotiated
// maximum must error client-side BEFORE any frame is sent, leaving the
// session usable.
func TestBatchValidation(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 75)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(91))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	// The client caps itself at 4; the server announces its (larger)
	// default, so 4 is the negotiated maximum.
	cli := &Client{Rng: rand.New(rand.NewSource(92)), Engine: EngineConfig{MaxBatch: 4}}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.MaxBatch() != 4 {
		t.Fatalf("negotiated MaxBatch = %d, want 4", sess.MaxBatch())
	}
	good := func() []float64 { return make([]float64, 6) }
	for _, tc := range []struct {
		name    string
		xs      [][]float64
		wantErr string
	}{
		{"empty batch", nil, "empty"},
		{"ragged widths", [][]float64{good(), make([]float64, 5), good()}, "sample 1 has 5 features"},
		{"beyond negotiated max", [][]float64{good(), good(), good(), good(), good()}, "exceeds the negotiated maximum 4"},
	} {
		sent := cConn.Metrics().BytesSent.Value()
		_, _, err := sess.InferBatch(tc.xs)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
		if got := cConn.Metrics().BytesSent.Value(); got != sent {
			t.Fatalf("%s: %d bytes hit the wire before validation", tc.name, got-sent)
		}
	}
	// The session survives every validation failure.
	x := good()
	labels, _, err := sess.InferBatch([][]float64{x, x})
	if err != nil {
		t.Fatalf("batch after validation errors: %v", err)
	}
	if want := net.PredictFixed(f, x); labels[0] != want || labels[1] != want {
		t.Fatalf("labels %v, want %d", labels, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
}

// TestBatchServerEnforcesMax pins the server-side range check on the begin
// frame's sample count: a hand-crafted begin beyond the announced maximum,
// or with no samples at all, is a protocol error before anything is
// reserved — not an allocation.
func TestBatchServerEnforcesMax(t *testing.T) {
	net := testNet(t, act.ReLU, 76)
	for _, tc := range []struct {
		b       uint64
		wantErr string
	}{
		{3, "exceeds the announced maximum 2"},
		{0, "malformed infer-begin"},
	} {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(93)), Engine: EngineConfig{MaxBatch: 2}}
		var wg sync.WaitGroup
		var srvErr error
		var srvStats *Stats
		wg.Add(1)
		go func() {
			defer wg.Done()
			srvStats, srvErr = srv.ServeSession(sConn)
		}()
		cli := &Client{Rng: rand.New(rand.NewSource(94))}
		sess, err := cli.NewSession(cConn)
		if err != nil {
			t.Fatal(err)
		}
		// Bypass the client's own validation: begin an inference of B
		// samples at a server that announced 2.
		if err := sess.conn.Send(transport.MsgInferBegin, binary.AppendUvarint(nil, tc.b)); err != nil {
			t.Fatal(err)
		}
		if err := sess.conn.Flush(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		closer.Close()
		if srvErr == nil || !strings.Contains(srvErr.Error(), tc.wantErr) {
			t.Fatalf("B=%d: server error = %v, want %q", tc.b, srvErr, tc.wantErr)
		}
		// Nothing past the set-up OT: no inference, no OT.
		if srvStats.Inferences != 0 || srvStats.OTsConsumed != testNetWeightBits {
			t.Fatalf("B=%d: refused begin cost %d inference(s) and %d OTs, want the set-up OT's %d only",
				tc.b, srvStats.Inferences, srvStats.OTsConsumed, testNetWeightBits)
		}
	}
}

// TestSessionFrameCapsRefuseBeforeAllocating: after set-up a session party
// reads only the frame types its peer may send — a server an inference's
// frames and the end marker, a client an answer — with each capped, and
// every other type capped at 0. So five bytes, a header announcing a
// gigabyte, are refused from the header alone instead of being read whole
// into the inbox, for every type of either direction but the table stream
// and the answer, whose caps TestTableFrameCapRefusesBeforeAllocating and
// TestHostileServerFramesCapped pin; a type past the defined ones (200) the
// transport refuses whatever its size.
func TestSessionFrameCapsRefuseBeforeAllocating(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	model := testNet(t, act.ReLU, 77)
	// types lists every type up to the last defined, but skip, and 200.
	types := func(skip transport.MsgType) []transport.MsgType {
		var ts []transport.MsgType
		for typ := transport.MsgType(0); typ <= transport.MsgBusy; typ++ {
			if typ != skip {
				ts = append(ts, typ)
			}
		}
		return append(ts, 200)
	}
	// refusal is the error a header of typ must meet: a legal type's cap,
	// whatever it is, and 0 for every other.
	refusal := func(typ transport.MsgType, legal ...transport.MsgType) string {
		switch {
		case typ == 200:
			return "transport: frame of unknown type 200"
		case slices.Contains(legal, typ):
			return fmt.Sprintf("transport: %v frame of %d bytes exceeds its limit of ", typ, transport.MaxFrame)
		}
		return fmt.Sprintf("transport: %v frame of %d bytes exceeds its limit of 0", typ, transport.MaxFrame)
	}
	for _, typ := range types(transport.MsgTables) {
		c2s, s2c := newLogHalf(), newLogHalf()
		srv := &Server{Net: model, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(95)), Engine: EngineConfig{MaxBatch: 2}}
		var wg sync.WaitGroup
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, srvErr = srv.ServeSession(transport.New(logDuplex{r: c2s, w: s2c}))
		}()
		cli := &Client{Rng: rand.New(rand.NewSource(96))}
		if _, err := cli.NewSession(transport.New(logDuplex{r: s2c, w: c2s})); err != nil {
			t.Fatal(err)
		}
		hdr := [5]byte{byte(typ)}
		binary.LittleEndian.PutUint32(hdr[1:], transport.MaxFrame)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c2s.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		want := refusal(typ, transport.MsgInferBegin, transport.MsgConstLabels, transport.MsgInputLabels)
		if srvErr == nil || !strings.HasPrefix(srvErr.Error(), want) || !slices.Contains([]transport.MsgType{transport.MsgInferBegin, transport.MsgConstLabels, transport.MsgInputLabels}, typ) && srvErr.Error() != want {
			t.Errorf("1 GiB %v header to a server: error = %v, want %q…", typ, srvErr, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("refusing a 1 GiB %v header allocated %d bytes", typ, grew)
		}
		c2s.close()
		s2c.close()
	}
	// A client waiting for an answer: the server's answer header is swapped
	// for one of another type announcing a gigabyte, whose payload never
	// comes, so a client that read on would wait for its deadline.
	for _, typ := range types(transport.MsgOutputLabels) {
		cEnd, toClient := net.Pipe()
		toServer, sEnd := net.Pipe()
		cEnd.SetDeadline(time.Now().Add(5 * time.Second))
		go (&Server{Net: model, Fmt: fixed.Default}).ServeSession(transport.New(sEnd))        //nolint:errcheck — the server's session dies with the pipes
		go io.Copy(toServer, toClient)                                                        //nolint:errcheck — the client's frames go through untouched
		go headerSwap(toClient, toServer, transport.MsgOutputLabels, typ, transport.MaxFrame) //nolint:errcheck
		_, _, err := (&Client{}).Infer(transport.New(cEnd), []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3})
		if want := refusal(typ); err == nil || err.Error() != want {
			t.Errorf("1 GiB %v header to a client: error = %v, want %q…", typ, err, want)
		}
		for _, c := range []net.Conn{cEnd, toClient, toServer, sEnd} {
			c.Close()
		}
	}
}

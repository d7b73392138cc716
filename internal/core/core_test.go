package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/transport"
)

func testNet(t *testing.T, kind act.Kind, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(nn.Vec(6),
		nn.NewDense(5),
		nn.NewActivation(kind),
		nn.NewDense(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(seed)))
	return net
}

func secureInfer(t *testing.T, net *nn.Network, f fixed.Format, x []float64) (int, *Stats) {
	t.Helper()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(101))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvErr = srv.Serve(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(102))}
	label, st, err := cli.Infer(cConn, x)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return label, st
}

func TestSecureInferenceMatchesPlaintext(t *testing.T) {
	f := fixed.Default
	for _, kind := range []act.Kind{act.ReLU, act.TanhPL, act.SigmoidPLAN} {
		net := testNet(t, kind, int64(kind))
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 3; trial++ {
			x := make([]float64, 6)
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			want := net.PredictFixed(f, x)
			got, st := secureInfer(t, net, f, x)
			if got != want {
				t.Fatalf("%v trial %d: secure label %d, plaintext label %d", kind, trial, got, want)
			}
			if st.ANDGates == 0 || st.BytesSent == 0 {
				t.Errorf("stats not populated: %+v", st)
			}
		}
	}
}

func TestSecureInferenceWithPrunedModel(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 9)
	d := net.Layers[0].(*nn.Dense)
	for i := 0; i < len(d.Mask); i += 3 {
		d.Mask[i] = false
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	want := net.PredictFixed(f, x)
	got, _ := secureInfer(t, net, f, x)
	if got != want {
		t.Fatalf("pruned: secure %d, plaintext %d", got, want)
	}
}

func TestSecureInferenceCommMatchesGateCount(t *testing.T) {
	// Paper Eq. 4: garbled-table traffic = #ciphertexts × 128 bits, two
	// per non-XOR gate less one per half AND. Our measured client send
	// bytes must be dominated by exactly that.
	f := fixed.Default
	net := testNet(t, act.ReLU, 5)
	x := make([]float64, 6)
	_, st := secureInfer(t, net, f, x)
	count, _, err := netgen.FastCount(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if count.AND != st.ANDGates || count.HalfAND == 0 {
		t.Fatalf("netlist has %d ANDs (%d half), the session reports %d", count.AND, count.HalfAND, st.ANDGates)
	}
	tableBytes := 16 * count.Ciphertexts()
	if st.BytesSent < tableBytes {
		t.Fatalf("sent %d bytes < table bytes %d", st.BytesSent, tableBytes)
	}
	// Overhead (labels, OT, framing) should not dwarf the tables for this
	// size of circuit... but OT carries 32B per weight bit + base OT, so
	// just sanity-check the total is within 20x.
	if st.BytesSent > tableBytes*20 {
		t.Errorf("sent %d bytes ≫ table bytes %d — accounting looks wrong", st.BytesSent, tableBytes)
	}
}

// outsourcedInfer runs one §3.3 inference — constrained client, proxy and
// main server over in-memory pipes — and returns what the client got. A
// client that gives up before its shares are out leaves the other two
// waiting for them; closing the pipes releases both.
func outsourcedInfer(t *testing.T, net *nn.Network, f fixed.Format, x []float64) (int, *Stats, error) {
	t.Helper()
	cpConn, pcConn, closer1 := transport.Pipe() // client ↔ proxy
	defer closer1.Close()
	csConn, scConn, closer2 := transport.Pipe() // client ↔ server
	defer closer2.Close()
	psConn, spConn, closer3 := transport.Pipe() // proxy ↔ server
	defer closer3.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(201))}
	prx := &Proxy{Rng: rand.New(rand.NewSource(202))}

	var wg sync.WaitGroup
	var srvErr, prxErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		srvErr = srv.ServeOutsourced(spConn, scConn)
	}()
	go func() {
		defer wg.Done()
		prxErr = prx.Run(pcConn, psConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(203))}
	label, st, err := cli.InferOutsourced(cpConn, csConn, x)
	if err != nil {
		closer1.Close()
		closer2.Close()
		closer3.Close()
		wg.Wait()
		return 0, nil, err
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if prxErr != nil {
		t.Fatalf("proxy: %v", prxErr)
	}
	return label, st, nil
}

func TestOutsourcedInference(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 6)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	label, st, err := outsourcedInfer(t, net, f, x[:6])
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if want := net.PredictFixed(f, x[:6]); label != want {
		t.Fatalf("outsourced label %d, want %d", label, want)
	}
	// The constrained client's traffic must be tiny: shares out, two bit
	// vectors in — no garbled tables.
	if st.BytesSent > 1000 || st.BytesReceived > 1000 {
		t.Errorf("outsourced client traffic too high: %+v", st)
	}
	// A sample of the wrong width is refused before any share is sent: too
	// wide used to be truncated into a label for a different sample, too
	// narrow left the client waiting on two servers that had both failed.
	for _, n := range []int{9, 3} {
		want := fmt.Sprintf("core: sample has %d features, model wants 6", n)
		if _, _, err := outsourcedInfer(t, net, f, x[:n]); err == nil || err.Error() != want {
			t.Fatalf("%d features against a 6-feature model: err = %v, want %q", n, err, want)
		}
	}
}

func TestBadHelloRejected(t *testing.T) {
	// "deepsecure/11" is a version whose hello is the bare string and
	// whose sessions always run the base phase, "deepsecure/13" one whose
	// client answers every pool refill, and "deepsecure/15" the previous
	// one but two, which garbles the same tape in another level order, and
	// "deepsecure/16" the previous one but one, whose every session runs the
	// set-up OT, "deepsecure/17" one whose set-up OT keys its columns with
	// keys derived from the base seeds under a nonce, and "deepsecure/18"
	// the previous one, whose base phase the server opens: a hello of any
	// must be refused here and not fail mid-stream. A
	// hello of this version is refused when what follows the string is not
	// a session counter in [1, 2³²) and a whole number of pair ids, at most
	// maxClientPairs of them.
	good := string(helloFrame(7, []pairID{{1}, {2}}))
	for hello, want := range map[string]string{
		"bogus/10":      "unknown protocol",
		"deepsecure/9":  "unknown protocol",
		"deepsecure/11": "unknown protocol",
		"deepsecure/13" + good[len(protocolHello):]:             "unknown protocol",
		"deepsecure/15" + good[len(protocolHello):]:             "unknown protocol",
		"deepsecure/16" + good[len(protocolHello):]:             "unknown protocol",
		"deepsecure/17" + good[len(protocolHello):]:             "unknown protocol",
		"deepsecure/18" + good[len(protocolHello):]:             "unknown protocol",
		string(helloFrame(0, nil)):                              "malformed hello",
		string(helloFrame(1<<32, nil)):                          "malformed hello",
		protocolHello:                                           "malformed hello",
		protocolHello + "\x00":                                  "malformed hello",
		good[:len(good)-1]:                                      "malformed hello", // an id cut short
		good[:len(good)-20]:                                     "malformed hello", // between two ids
		string(helloFrame(7, make([]pairID, maxClientPairs+1))): "malformed hello",
	} {
		cConn, sConn, closer := transport.Pipe()
		net := testNet(t, act.ReLU, 8)
		srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(1))}
		var wg sync.WaitGroup
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			srvErr = srv.Serve(sConn)
		}()
		if err := cConn.Send(transport.MsgHello, []byte(hello)); err != nil {
			t.Fatal(err)
		}
		if err := cConn.Flush(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		closer.Close()
		if srvErr == nil || !strings.Contains(srvErr.Error(), want) {
			t.Fatalf("hello %q: server returned %v, want a %q error", hello, srvErr, want)
		}
	}
}

// TestOutsourcedOldHelloRefused: "deepsecure-outsourced/1" cut the §3.3
// stream's levels greedily, so its tables come in another order at other
// AND indices, "deepsecure-outsourced/2" keyed the set-up OT's columns
// with keys derived from the base seeds, so its OT delivers other labels,
// and "deepsecure-outsourced/3" ran the base phase the server opens. The
// proxy refuses a client, and the main server a proxy, that opens with any
// of them, before anything else moves.
func TestOutsourcedOldHelloRefused(t *testing.T) {
	for _, old := range []string{"deepsecure-outsourced/1", "deepsecure-outsourced/2", "deepsecure-outsourced/3"} {
		want := fmt.Sprintf("core: unknown protocol %q", old)
		for _, party := range []string{"proxy", "server"} {
			peer, conn, closer := transport.Pipe()
			other, _, closer2 := transport.Pipe()
			if err := peer.Send(transport.MsgHello, []byte(old)); err != nil {
				t.Fatal(err)
			}
			if err := peer.Flush(); err != nil {
				t.Fatal(err)
			}
			var err error
			if party == "proxy" {
				err = (&Proxy{}).Run(conn, other)
			} else {
				err = (&Server{Net: testNet(t, act.ReLU, 8), Fmt: fixed.Default}).ServeOutsourced(conn, other)
			}
			closer.Close()
			closer2.Close()
			if err == nil || err.Error() != want {
				t.Fatalf("%s: %v, want %q", party, err, want)
			}
		}
	}
}

func TestWrongFeatureCountRejected(t *testing.T) {
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	net := testNet(t, act.ReLU, 8)
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(1))}
	go srv.Serve(sConn) //nolint:errcheck — client aborts the session
	cli := &Client{Rng: rand.New(rand.NewSource(2))}
	if _, _, err := cli.Infer(cConn, make([]float64, 3)); err == nil {
		t.Fatal("client accepted wrong feature count")
	}
	closer.Close()
}

func TestConvModelSecureInference(t *testing.T) {
	if testing.Short() {
		t.Skip("conv GC run in -short mode")
	}
	f := fixed.Default
	net, err := nn.NewNetwork(nn.Shape{C: 1, H: 6, W: 6},
		nn.NewConv2D(2, 3, 1, 0),
		nn.NewActivation(act.ReLU),
		nn.NewMaxPool2D(2, 0),
		nn.NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(11)))
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 36)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	want := net.PredictFixed(f, x)
	got, _ := secureInfer(t, net, f, x)
	if got != want {
		t.Fatalf("conv secure label %d, want %d", got, want)
	}
}

// TestSharedBareBiasSecureInference: a convolution map whose only kernel
// weight falls on padding along the top row and the left column puts its
// bias word at eleven positions; the activation behind it reads that word
// once. The compiled session and the §3.3 streaming deployment — which has no
// schedule to refuse a wire read after it was retired, and used to garble
// from a recycled one — both return the plaintext label.
func TestSharedBareBiasSecureInference(t *testing.T) {
	f := fixed.Default
	net, err := nn.NewNetwork(nn.Shape{C: 1, H: 6, W: 6},
		nn.NewConv2D(2, 3, 1, 1),
		nn.NewActivation(act.ReLU),
		nn.NewMaxPool2D(2, 0),
		nn.NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(13)))
	conv := net.Layers[0].(*nn.Conv2D)
	for i := 1; i < 9; i++ {
		conv.Mask[i] = false
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, 36)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		want := net.PredictFixed(f, x)
		if got, _ := secureInfer(t, net, f, x); got != want {
			t.Errorf("trial %d: session label %d, want %d", trial, got, want)
		}
		if got, _, err := outsourcedInfer(t, net, f, x); err != nil || got != want {
			t.Errorf("trial %d: outsourced label %d, %v; want %d", trial, got, err, want)
		}
	}
}

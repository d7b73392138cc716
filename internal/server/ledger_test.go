package server

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/transport"
)

// TestOneLedger runs one of everything through an in-process client and
// server — serial, pipelined at window 2 and batched inferences, each
// session's set-up OT, a queued, a shed and a failed session — and then
// checks that there is one set of books: for every additive series with a
// Stats field, what the process root ledger gained over the test is what the
// client sessions' Stats and the server's Stats report, added up field for
// field. Along the way: an inference's own Stats reports its own gates and
// garble time even with another in flight, and a closed session's ledger no
// longer moves.
func TestOneLedger(t *testing.T) {
	model := testModel(t)
	srv, err := New(model, fixed.Default,
		WithEngine(core.EngineConfig{Pipeline: 2, MaxBatch: 4}),
		WithAdmission(AdmissionConfig{MaxActive: 1, MaxQueue: 1, QueueTimeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	addr := ln.Addr().String()
	ands, total := srv.ProgramStats()
	// The root ledger's series this test reads back, as they stood before.
	type series interface{ Value() int64 }
	root := obs.Root
	before := map[series]int64{}
	for _, v := range []series{root.BytesSent, root.BytesReceived, root.Inferences, root.SessionsResumed,
		root.GatesAnd, root.GatesFree, root.GateTime, root.OTConsumed,
		root.Sessions, root.ResumeMisses, root.Errors, root.SessionsQueued, root.SessionsShed,
		root.SessionsActive, root.AdmissionQueueDepth, root.Batches} {
		before[v] = v.Value()
	}

	// Session 1: a pipelining, batching client.
	rng := rand.New(rand.NewSource(31))
	pipelined := &core.Client{Engine: core.EngineConfig{Pipeline: 2, MaxBatch: 4}}
	defer pipelined.Close()
	sess1, nc1, err := openSession(t, pipelined, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc1.Close()
	if sess1.Window() != 2 {
		t.Fatalf("window %d, want 2", sess1.Window())
	}
	infer := func(x []float64, label int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if want := model.PredictFixed(fixed.Default, x); label != want {
			t.Fatalf("label %d, want %d", label, want)
		}
	}
	x0 := sample(rng, 6)
	label, st0, err := sess1.Infer(x0)
	infer(x0, label, err)

	xa, xb := sample(rng, 6), sample(rng, 6)
	pa, err := sess1.InferAsync(xa)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess1.InferAsync(xb)
	if err != nil {
		t.Fatal(err)
	}
	label, sta, err := pa.Wait()
	infer(xa, label, err)
	label, stb, err := pb.Wait()
	infer(xb, label, err)

	xs := [][]float64{sample(rng, 6), sample(rng, 6), sample(rng, 6)}
	labels, stBatch, err := sess1.InferBatch(xs)
	for i := range xs {
		infer(xs[i], labels[i], err)
	}

	// Each inference's Stats is that inference's, whatever else was in
	// flight: one walk of the circuit per sample, garbled online.
	for _, c := range []struct {
		name    string
		st      *core.Stats
		samples int64
	}{
		{"Infer", st0, 1},
		{"InferAsync a", sta, 1},
		{"InferAsync b", stb, 1},
		{"InferBatch(3)", stBatch, 3},
	} {
		if c.st.Inferences != c.samples || c.st.ANDGates != c.samples*ands || c.st.FreeGates != c.samples*(total-ands) {
			t.Errorf("%s: %d inference(s), %d AND, %d free gates; want %d, %d, %d", c.name,
				c.st.Inferences, c.st.ANDGates, c.st.FreeGates, c.samples, c.samples*ands, c.samples*(total-ands))
		}
		if c.st.GateTime <= 0 {
			t.Errorf("%s: gate time %v, want the online garbling's", c.name, c.st.GateTime)
		}
		if c.st.OTsConsumed != 0 || c.st.BytesSent == 0 || c.st.Duration <= 0 {
			t.Errorf("%s: session share not populated, or an OT charged to an inference: %+v", c.name, c.st)
		}
	}

	// With session 1 holding the only slot: a second arrival queues, a
	// third finds the queue full and is shed.
	plain := &core.Client{}
	type opened struct {
		sess *core.Session
		nc   net.Conn
		err  error
	}
	queued := make(chan opened, 1)
	go func() {
		sess, nc, err := openSession(t, plain, addr)
		queued <- opened{sess, nc, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().QueueDepth == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second session never queued")
		}
		time.Sleep(time.Millisecond)
	}
	shedNC, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer shedNC.Close()
	shedConn := transport.New(shedNC)
	var busy *core.BusyError
	if _, err := plain.NewSession(shedConn); !errors.As(err, &busy) {
		t.Fatalf("third session: err = %v, want *core.BusyError", err)
	}

	if err := sess1.Close(); err != nil {
		t.Fatal(err)
	}
	closed1 := *sess1.Stats()

	// Session 2, admitted from the queue: one plain inference.
	got := <-queued
	if got.err != nil {
		t.Fatal(got.err)
	}
	defer got.nc.Close()
	sess2 := got.sess
	x2 := sample(rng, 6)
	label, _, err = sess2.Infer(x2)
	infer(x2, label, err)
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, ok func(Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(srv.Stats()); {
			if time.Now().After(deadline) {
				t.Fatalf("%s: server stats %+v", what, srv.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("sessions 1 and 2 finished", func(st Stats) bool { return st.Sessions == 2 && st.ActiveSessions == 0 })

	// Session 3 is the plain client's second visit: it extends the OT base
	// correlation session 2 left behind, and comes for nothing else.
	sess3, nc3, err := openSession(t, plain, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc3.Close()
	if err := sess3.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 4 fails: a peer that sends garbage for a hello.
	waitFor("sessions 1 to 3 finished", func(st Stats) bool { return st.Sessions == 3 && st.ActiveSessions == 0 })
	junk, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	if _, err := junk.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	waitFor("session 4 failed", func(st Stats) bool { return st.Errors == 1 && st.ActiveSessions == 0 })

	// One set of books. The refused attempt has no Session to ask, but its
	// connection was recording in a ledger like any other.
	delta := func(v series) int64 {
		t.Helper()
		b, ok := before[v]
		if !ok {
			t.Fatal("a series was not read before the sessions ran")
		}
		return v.Value() - b
	}
	server := srv.Stats()
	clients := []*core.Stats{sess1.Stats(), sess2.Stats(), sess3.Stats(), core.StatsOf(shedConn.Metrics())}
	for _, c := range []struct {
		what  string
		root  int64
		field func(*core.Stats) int64
	}{
		{"bytes sent", delta(root.BytesSent), func(s *core.Stats) int64 { return s.BytesSent }},
		{"bytes received", delta(root.BytesReceived), func(s *core.Stats) int64 { return s.BytesReceived }},
		{"inferences", delta(root.Inferences), func(s *core.Stats) int64 { return s.Inferences }},
		{"sessions resumed", delta(root.SessionsResumed), func(s *core.Stats) int64 { return s.SessionsResumed }},
		{"AND gates", delta(root.GatesAnd), func(s *core.Stats) int64 { return s.ANDGates }},
		{"free gates", delta(root.GatesFree), func(s *core.Stats) int64 { return s.FreeGates }},
		{"gate time", delta(root.GateTime), func(s *core.Stats) int64 { return int64(s.GateTime) }},
		{"OTs consumed", delta(root.OTConsumed), func(s *core.Stats) int64 { return s.OTsConsumed }},
	} {
		sum := c.field(&server.Stats)
		for _, cl := range clients {
			sum += c.field(cl)
		}
		if c.root != sum || sum == 0 {
			t.Errorf("%s: the root ledger gained %d, the Stats add up to %d (server %d)", c.what, c.root, sum, c.field(&server.Stats))
		}
	}
	for _, c := range []struct {
		what       string
		root, want int64
		stat       int64
	}{
		{"sessions", delta(root.Sessions), 4, server.Sessions},
		{"resume misses", delta(root.ResumeMisses), 0, server.ResumeMisses},
		{"session errors", delta(root.Errors), 1, server.Errors},
		{"sessions queued", delta(root.SessionsQueued), 1, server.QueuedSessions},
		{"sessions shed", delta(root.SessionsShed), 1, server.ShedSessions},
		{"sessions active", delta(root.SessionsActive), 0, server.ActiveSessions},
		{"queue depth", delta(root.AdmissionQueueDepth), 0, server.QueueDepth},
		// Stats has no field for batches: both parties count the one.
		{"batches", delta(root.Batches), 2, 2},
	} {
		if c.root != c.want || c.stat != c.want {
			t.Errorf("%s: the root ledger gained %d, server Stats says %d, want %d", c.what, c.root, c.stat, c.want)
		}
	}
	// What the test set up, so the sums above are not vacuous: six samples
	// of session 1 on its one set-up OT of W weight labels.
	w := int64(len(nn.WeightBits(model, fixed.Default)))
	if s := clients[0]; s.Inferences != 6 || s.OTsConsumed != w {
		t.Errorf("session 1: %+v, want 6 inferences and W = %d OTs", s, w)
	}
	if server.Inferences != 7 || server.OTsConsumed < 2*w {
		t.Errorf("server: %+v", server)
	}

	// Session 1 closed before session 2 ran: nothing since may have moved
	// its ledger (Duration is the one field read off a clock).
	final1 := *sess1.Stats()
	closed1.Duration, final1.Duration = 0, 0
	if closed1 != final1 {
		t.Errorf("session 1's ledger moved after Close:\n at close %+v\n now      %+v", closed1, final1)
	}
}

// TestTwoServersKeepSeparateBooks runs two servers in one process and
// sends all the work to one of them: inferences and a shed session on A,
// nothing on B. A's books must show it and B's must stay at zero — each
// server records into its own ledger, not the process's.
func TestTwoServersKeepSeparateBooks(t *testing.T) {
	model := testModel(t)
	cfg := AdmissionConfig{MaxActive: 1}
	a, addrA, stopA := startAdmissionServer(t, model, cfg)
	defer stopA()
	b, _, stopB := startAdmissionServer(t, model, cfg)
	defer stopB()

	const n = 3
	cli := &core.Client{}
	sess, nc, err := openSession(t, cli, addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		x := sample(rng, 6)
		label, _, err := sess.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := model.PredictFixed(fixed.Default, x); label != want {
			t.Fatalf("label %d, want %d", label, want)
		}
	}
	// The session holds A's only slot and A has no queue: the next
	// arrival is shed.
	var busy *core.BusyError
	if _, _, err := openSession(t, cli, addrA); !errors.As(err, &busy) {
		t.Fatalf("second session on A: err = %v, want it shed (*core.BusyError)", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// The server books an inference after it has sent the outputs, so the
	// last one may still be on its way into the ledger.
	for deadline := time.Now().Add(10 * time.Second); a.Stats().Inferences < n || a.Stats().ActiveSessions != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("server A: %+v", a.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	if st := a.Stats(); st.Inferences != n || st.ShedSessions != 1 || st.Sessions != 1 {
		t.Errorf("server A: %d inference(s), %d shed, %d session(s); want %d, 1, 1",
			st.Inferences, st.ShedSessions, st.Sessions, n)
	}
	if st := b.Stats(); st.Inferences != 0 || st.ShedSessions != 0 || st.Sessions != 0 || st.BytesSent != 0 {
		t.Errorf("server B served nothing but its books moved: %+v", st)
	}
}

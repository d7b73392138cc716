package server

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// TestOneLedger runs one of everything through an in-process client and
// server — serial, pipelined at window 2 and batched inferences, a bank hit
// and a batched bank miss, an OT pool that refills mid-session, a queued, a
// shed and a failed session — and then checks that there is one set of
// books: for every additive series with a Stats field, what the process
// registry gained over the test is what the client sessions' Stats and the
// server's Stats report, added up field for field. Along the way: an
// inference's own Stats reports its own gates and bank outcome even with
// another in flight, and a closed session's ledger no longer moves.
func TestOneLedger(t *testing.T) {
	model := testModel(t)
	// 944 weight bits per sample against a pool of 2000: a refill every
	// other sample.
	srv, err := New(model, fixed.Default,
		WithEngine(core.EngineConfig{Pipeline: 2, MaxBatch: 4}),
		WithOTPool(precomp.PoolConfig{Capacity: 2000}),
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
	before := obs.Default.Snapshot()

	// Session 1: a banked, pipelining client. The bank holds two
	// executions and is not refilled, so takes go hit, hit, miss, and the
	// batch of three finds it empty.
	rng := rand.New(rand.NewSource(31))
	banked := &core.Client{Engine: core.EngineConfig{Pipeline: 2, MaxBatch: 4, Bank: bank.Config{Depth: 2}}}
	defer banked.Close()
	sess1, nc1, err := openSession(t, banked, addr)
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
	// flight: one walk of the circuit per sample, and its own bank outcome
	// (a hit garbles nothing online).
	for _, c := range []struct {
		name               string
		st                 *core.Stats
		samples            int64
		hits, misses       int64
		wantOnlineGarbling bool
	}{
		{"Infer", st0, 1, 1, 0, false},
		{"InferAsync a", sta, 1, 1, 0, false},
		{"InferAsync b", stb, 1, 0, 1, true},
		{"InferBatch(3)", stBatch, 3, 0, 3, true},
	} {
		if c.st.Inferences != c.samples || c.st.ANDGates != c.samples*ands || c.st.FreeGates != c.samples*(total-ands) {
			t.Errorf("%s: %d inference(s), %d AND, %d free gates; want %d, %d, %d", c.name,
				c.st.Inferences, c.st.ANDGates, c.st.FreeGates, c.samples, c.samples*ands, c.samples*(total-ands))
		}
		if c.st.BankHits != c.hits || c.st.BankMisses != c.misses {
			t.Errorf("%s: %d bank hit(s), %d miss(es); want %d, %d", c.name, c.st.BankHits, c.st.BankMisses, c.hits, c.misses)
		}
		if (c.st.GateTime > 0) != c.wantOnlineGarbling {
			t.Errorf("%s: gate time %v, online garbling expected: %v", c.name, c.st.GateTime, c.wantOnlineGarbling)
		}
		if c.st.OTsConsumed < c.samples*944 || c.st.BytesSent == 0 || c.st.Duration <= 0 {
			t.Errorf("%s: session share not populated: %+v", c.name, c.st)
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
	after := obs.Default.Snapshot()
	delta := func(name string, labels ...obs.Label) int64 {
		t.Helper()
		a, ok := after.Get(name, labels...)
		b, _ := before.Get(name, labels...)
		if !ok {
			t.Fatalf("series %s%v is not registered", name, labels)
		}
		return a.Value - b.Value
	}
	server := srv.Stats()
	clients := []*core.Stats{sess1.Stats(), sess2.Stats(), sess3.Stats(), core.StatsOf(shedConn.Metrics())}
	for _, c := range []struct {
		what  string
		root  int64
		field func(*core.Stats) int64
	}{
		{"bytes sent", delta("deepsecure_bytes_total", obs.Label{Key: "direction", Value: "sent"}), func(s *core.Stats) int64 { return s.BytesSent }},
		{"bytes received", delta("deepsecure_bytes_total", obs.Label{Key: "direction", Value: "received"}), func(s *core.Stats) int64 { return s.BytesReceived }},
		{"inferences", delta("deepsecure_inferences_total"), func(s *core.Stats) int64 { return s.Inferences }},
		{"sessions resumed", delta("deepsecure_sessions_resumed_total"), func(s *core.Stats) int64 { return s.SessionsResumed }},
		{"AND gates", delta("deepsecure_gates_total", obs.Label{Key: "kind", Value: "and"}), func(s *core.Stats) int64 { return s.ANDGates }},
		{"free gates", delta("deepsecure_gates_total", obs.Label{Key: "kind", Value: "free"}), func(s *core.Stats) int64 { return s.FreeGates }},
		{"gate time", delta("deepsecure_gate_time_seconds_total"), func(s *core.Stats) int64 { return int64(s.GateTime) }},
		{"OTs pooled", delta("deepsecure_ot_pooled_total"), func(s *core.Stats) int64 { return s.OTsPooled }},
		{"OTs consumed", delta("deepsecure_ot_consumed_total"), func(s *core.Stats) int64 { return s.OTsConsumed }},
		{"OT refills", delta("deepsecure_ot_refills_total"), func(s *core.Stats) int64 { return s.OTRefills }},
		{"bank hits", delta("deepsecure_bank_hits_total"), func(s *core.Stats) int64 { return s.BankHits }},
		{"bank misses", delta("deepsecure_bank_misses_total"), func(s *core.Stats) int64 { return s.BankMisses }},
	} {
		sum := c.field(&server.Stats)
		for _, cl := range clients {
			sum += c.field(cl)
		}
		if c.root != sum || sum == 0 {
			t.Errorf("%s: the registry gained %d, the Stats add up to %d (server %d)", c.what, c.root, sum, c.field(&server.Stats))
		}
	}
	for _, c := range []struct {
		what       string
		root, want int64
		stat       int64
	}{
		{"sessions", delta("deepsecure_sessions_total"), 4, server.Sessions},
		{"resume misses", delta("deepsecure_resume_misses_total"), 0, server.ResumeMisses},
		{"session errors", delta("deepsecure_session_errors_total"), 1, server.Errors},
		{"sessions queued", delta("deepsecure_sessions_queued_total"), 1, server.QueuedSessions},
		{"sessions shed", delta("deepsecure_sessions_shed_total"), 1, server.ShedSessions},
		{"sessions active", delta("deepsecure_sessions_active"), 0, server.ActiveSessions},
		{"queue depth", delta("deepsecure_admission_queue_depth"), 0, server.QueueDepth},
		// Stats has no field for batches: both parties count the one.
		{"batches", delta("deepsecure_batches_total"), 2, 2},
	} {
		if c.root != c.want || c.stat != c.want {
			t.Errorf("%s: the registry gained %d, server Stats says %d, want %d", c.what, c.root, c.stat, c.want)
		}
	}
	// What the test set up, so the sums above are not vacuous: two hits
	// and four misses in samples, refills beyond each side's setup fill.
	if s := clients[0]; s.BankHits != 2 || s.BankMisses != 4 || s.Inferences != 6 || s.OTRefills < 3 {
		t.Errorf("session 1: %+v", s)
	}
	if server.Inferences != 7 || server.OTRefills < 4 {
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

// TestAdmissionLatencyGuardIsPerServer runs two servers with the same p99
// guard in one process and makes one of them slow: that one must start
// shedding and the other, which has served nothing, must keep admitting —
// each guard reads its own server's latency, not the process's.
func TestAdmissionLatencyGuardIsPerServer(t *testing.T) {
	model := testModel(t)
	cfg := AdmissionConfig{MaxActive: 4, MaxP99: time.Microsecond}
	slow, slowAddr, stopSlow := startAdmissionServer(t, model, cfg)
	defer stopSlow()
	idle, idleAddr, stopIdle := startAdmissionServer(t, model, cfg)
	defer stopIdle()

	// Any real inference takes longer than the guard's microsecond; run
	// enough of them for the guard to trust the window.
	cli := &core.Client{}
	sess, nc, err := openSession(t, cli, slowAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < admissionGuardMinSamples; i++ {
		if _, _, err := sess.Infer(sample(rng, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// The server books an inference after it has sent the outputs, so the
	// last one may still be on its way into the histogram.
	for deadline := time.Now().Add(10 * time.Second); slow.Stats().Inferences < admissionGuardMinSamples; {
		if time.Now().After(deadline) {
			t.Fatalf("slow server booked %d inference(s)", slow.Stats().Inferences)
		}
		time.Sleep(time.Millisecond)
	}
	// The guard re-reads the histogram once per interval; make the next
	// arrival at each server the one that does.
	for _, s := range []*Server{slow, idle} {
		s.adm.guardMu.Lock()
		s.adm.lastCheck = time.Time{}
		s.adm.guardMu.Unlock()
	}

	var busy *core.BusyError
	if _, _, err := openSession(t, cli, slowAddr); !errors.As(err, &busy) {
		t.Fatalf("slow server: err = %v, want it to shed (*core.BusyError)", err)
	}
	sess, nc2, err := openSession(t, cli, idleAddr)
	if err != nil {
		t.Fatalf("idle server shed on another server's latency: %v", err)
	}
	defer nc2.Close()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if st := idle.Stats(); st.ShedSessions != 0 {
		t.Fatalf("idle server shed %d session(s)", st.ShedSessions)
	}
	if st := slow.Stats(); st.ShedSessions != 1 {
		t.Fatalf("slow server shed %d session(s), want 1", st.ShedSessions)
	}
}

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
	"deepsecure/internal/transport"
)

// startAdmissionServer launches a server with the given admission
// configuration on a loopback listener.
func startAdmissionServer(t *testing.T, model *nn.Network, cfg AdmissionConfig) (*Server, string, func()) {
	t.Helper()
	srv, err := New(model, fixed.Default, WithAdmission(cfg))
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func openSession(t *testing.T, cli *core.Client, addr string) (*core.Session, net.Conn, error) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cli.NewSession(transport.New(nc))
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return sess, nc, nil
}

// TestAdmissionShedAndRetry pins the satellite's degradation contract:
// with the server full, a new client is refused with MsgBusy (surfaced
// as *core.BusyError carrying the configured retry-after), and the same
// client successfully retries once load drains.
func TestAdmissionShedAndRetry(t *testing.T) {
	model := testModel(t)
	retryAfter := 50 * time.Millisecond
	srv, addr, stop := startAdmissionServer(t, model, AdmissionConfig{
		MaxActive:  1,
		RetryAfter: retryAfter,
	})
	defer stop()

	cli := &core.Client{Rng: rand.New(rand.NewSource(21))}
	holder, hc, err := openSession(t, cli, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	// The single slot is taken: the next arrival must be shed with the
	// configured hint, not hung or hard-closed.
	_, _, err = openSession(t, cli, addr)
	var be *core.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("second session: err = %v, want *core.BusyError", err)
	}
	if be.RetryAfter != retryAfter {
		t.Fatalf("retry-after hint %v, want %v", be.RetryAfter, retryAfter)
	}
	if st := srv.Stats(); st.ShedSessions < 1 {
		t.Fatalf("stats report %d shed sessions, want >= 1", st.ShedSessions)
	}

	// Drain the load and retry: the shed client must get in.
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess, nc, err := openSession(t, cli, addr)
		if err == nil {
			defer nc.Close()
			x := sample(rand.New(rand.NewSource(22)), 6)
			label, _, err := sess.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if want := model.PredictFixed(fixed.Default, x); label != want {
				t.Fatalf("post-retry inference label %d, want %d", label, want)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !errors.As(err, &be) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("retry was never admitted after load drained")
		}
		time.Sleep(be.RetryAfter)
	}
}

// TestAdmissionQueuedSession checks the bounded-queue path: an arrival
// past MaxActive but within MaxQueue waits (visible in QueueDepth) and
// is admitted when the active session ends, with the wait counted in
// QueuedSessions.
func TestAdmissionQueuedSession(t *testing.T) {
	model := testModel(t)
	srv, addr, stop := startAdmissionServer(t, model, AdmissionConfig{
		MaxActive:    1,
		MaxQueue:     2,
		QueueTimeout: 30 * time.Second,
	})
	defer stop()

	cli := &core.Client{Rng: rand.New(rand.NewSource(23))}
	holder, hc, err := openSession(t, cli, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	type opened struct {
		sess *core.Session
		nc   net.Conn
		err  error
	}
	ch := make(chan opened, 1)
	go func() {
		sess, nc, err := openSession(t, cli, addr)
		ch <- opened{sess, nc, err}
	}()

	// The second arrival must appear in the queue gauge, not be shed.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second session never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.err != nil {
		t.Fatalf("queued session failed: %v", got.err)
	}
	defer got.nc.Close()
	if err := got.sess.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.QueuedSessions != 1 || st.ShedSessions != 0 {
		t.Fatalf("stats %d queued / %d shed, want 1 / 0", st.QueuedSessions, st.ShedSessions)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
	}
}

// TestAdmissionQueueOverflowSheds checks arrivals beyond MaxActive +
// MaxQueue are refused immediately rather than waiting.
func TestAdmissionQueueOverflowSheds(t *testing.T) {
	model := testModel(t)
	srv, addr, stop := startAdmissionServer(t, model, AdmissionConfig{
		MaxActive:    1,
		MaxQueue:     0, // no queue: past MaxActive means shed now
		QueueTimeout: 30 * time.Second,
	})
	defer stop()

	cli := &core.Client{Rng: rand.New(rand.NewSource(24))}
	holder, hc, err := openSession(t, cli, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	t0 := time.Now()
	_, _, err = openSession(t, cli, addr)
	var be *core.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("overflow session: err = %v, want *core.BusyError", err)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("overflow shed took %v, want immediate", waited)
	}
	if st := srv.Stats(); st.ShedSessions != 1 || st.QueuedSessions != 0 {
		t.Fatalf("stats %d shed / %d queued, want 1 / 0", st.ShedSessions, st.QueuedSessions)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShedFreshClientGetsBusy: a client that holds no pair sends its
// base-phase frame, 8 kB, behind its hello. A shed that answered after the
// hello alone would close with that frame unread, and the reset the close
// may then send can destroy the busy frame in flight. Over loopback TCP a
// fresh client must read its *core.BusyError every time.
func TestShedFreshClientGetsBusy(t *testing.T) {
	model := testModel(t)
	retryAfter := 50 * time.Millisecond
	_, addr, stop := startAdmissionServer(t, model, AdmissionConfig{MaxActive: 1, RetryAfter: retryAfter})
	defer stop()
	holder, hc, err := openSession(t, &core.Client{}, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	for i := range 5 {
		_, _, err := openSession(t, &core.Client{}, addr)
		var be *core.BusyError
		if !errors.As(err, &be) || be.RetryAfter != retryAfter {
			t.Fatalf("fresh client %d: err = %v, want a *core.BusyError of %v", i, err, retryAfter)
		}
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// serveWithDeadlines starts ServeSession (breaker installed, so the
// watchdog can actually cut blocked I/O) and returns the channel its
// error lands on.
func serveWithDeadlines(t *testing.T, sConn *transport.Conn, closer io.Closer, d DeadlineConfig) <-chan error {
	t.Helper()
	net := testNet(t, act.ReLU, 71)
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(72)),
		Engine: EngineConfig{Deadlines: d}}
	sConn.SetBreaker(closer.Close)
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	return done
}

// wantDeadline asserts that the session terminated promptly in a
// DeadlineError for the expected phase — not a hang, and not the
// incidental broken-connection error the enforcement produced.
func wantDeadline(t *testing.T, done <-chan error, phase string, limit time.Duration) {
	t.Helper()
	select {
	case err := <-done:
		var de *DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("session error = %v, want a DeadlineError", err)
		}
		if de.Phase != phase || de.Limit != limit {
			t.Fatalf("DeadlineError{%s, %v}, want {%s, %v}", de.Phase, de.Limit, phase, limit)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s deadline did not terminate the session", phase)
	}
}

// A client that connects and then never speaks must be cut at the
// handshake deadline instead of pinning a session slot forever.
func TestHandshakeDeadlineCutsSilentClient(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 150 * time.Millisecond
	_, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{Handshake: limit})
	wantDeadline(t, done, "handshake", limit)
	checkLeaks()
}

// A client that sends its hello and base-phase frame but never answers the
// set-up OT stalls the server inside setup — past the handshake deadline's
// watch, squarely under the ot-setup one.
func TestOTSetupDeadlineCutsStalledClient(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 200 * time.Millisecond
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{OTSetup: limit})
	if err := cConn.Send(transport.MsgHello, helloFrame(1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := ot.NewExtSender(cConn, rand.New(rand.NewSource(74))); err != nil {
		t.Fatal(err)
	}
	// Keep draining the server's setup frames (arch, pipeline, A and U) so
	// it is genuinely stalled waiting on our OT reply, not on pipe
	// backpressure.
	go func() {
		for {
			if _, _, err := cConn.ReadFrame(); err != nil {
				return
			}
		}
	}()
	wantDeadline(t, done, "ot-setup", limit)
	checkLeaks()
}

// A client that opens an inference and then stalls mid-stream is cut by
// the per-inference deadline even though the session setup completed
// long ago.
func TestInferenceDeadlineCutsStalledClient(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 250 * time.Millisecond
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{Inference: limit})
	cli := &Client{Rng: rand.New(rand.NewSource(73))}
	if _, err := cli.NewSession(cConn); err != nil {
		t.Fatalf("open session: %v", err)
	}
	// Begin an inference and send only its const labels: the evaluator now
	// waits for garbler-input frames that never come.
	if err := cConn.Send(transport.MsgInferBegin, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := cConn.Send(transport.MsgConstLabels, make([]byte, 2*gc.LabelSize)); err != nil {
		t.Fatal(err)
	}
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, _, err := cConn.ReadFrame(); err != nil {
				return
			}
		}
	}()
	wantDeadline(t, done, "inference", limit)
	checkLeaks()
}

// setup bounds the set-up phases of the idle tests that open a session, so
// that Idle times only the waits after set-up, however slow the build.
const setup = 10 * time.Second

// closerFunc adapts a function to io.Closer.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// wantIdle asserts that the session ended in the idle DeadlineError within
// a few Idle intervals of quiet.
func wantIdle(t *testing.T, done <-chan error, limit time.Duration, quiet time.Time) {
	t.Helper()
	wantDeadline(t, done, "idle", limit)
	if d := time.Since(quiet); d > 5*limit {
		t.Fatalf("idle session cut %v after the client went quiet, limit %v", d, limit)
	}
}

// A client that never sends its hello is cut by Idle when the handshake
// has no deadline of its own.
func TestIdleDeadlineCutsSilentClient(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 150 * time.Millisecond
	_, sConn, closer := transport.Pipe()
	defer closer.Close()
	quiet := time.Now()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{Idle: limit})
	wantIdle(t, done, limit, quiet)
	checkLeaks()
}

// A client that goes quiet between inferences is cut by Idle while the
// server waits for the next begin frame.
func TestIdleDeadlineCutsClientBetweenInferences(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 300 * time.Millisecond
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{Handshake: setup, OTSetup: setup, Idle: limit})
	cli := &Client{Rng: rand.New(rand.NewSource(73))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	x := []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3}
	if label, _, err := sess.Infer(x); err != nil || label != testNet(t, act.ReLU, 71).PredictFixed(fixed.Default, x) {
		t.Fatalf("inference = %d, %v", label, err)
	}
	wantIdle(t, done, limit, time.Now())
	checkLeaks()
}

// A client that stalls mid-burst is cut by Idle while the evaluator waits
// for its next frame, with no inference deadline set.
func TestIdleDeadlineCutsClientMidBurst(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 300 * time.Millisecond
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{Handshake: setup, OTSetup: setup, Idle: limit})
	cli := &Client{Rng: rand.New(rand.NewSource(73))}
	if _, err := cli.NewSession(cConn); err != nil {
		t.Fatalf("open session: %v", err)
	}
	if err := cConn.Send(transport.MsgInferBegin, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := cConn.Send(transport.MsgConstLabels, make([]byte, 2*gc.LabelSize)); err != nil {
		t.Fatal(err)
	}
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	wantIdle(t, done, limit, time.Now())
	checkLeaks()
}

// A client that stops draining its answers blocks the server's writer on a
// synchronous pipe; Idle cuts the write. The session goroutine is held in
// the second inference until the connection breaks, so the parked writer
// is the only wait on the client that can end the session.
func TestIdleDeadlineCutsClientThatDrainsNoAnswer(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 300 * time.Millisecond
	cNet, sNet := net.Pipe()
	defer cNet.Close()
	broke := make(chan struct{})
	var once sync.Once
	brk := closerFunc(func() error {
		once.Do(func() { close(broke) })
		return sNet.Close()
	})
	calls := 0
	evalPanicHook = func(int) { // runs on the session goroutine
		if calls++; calls == 2 {
			select {
			case <-broke:
			case <-time.After(10 * time.Second):
			}
		}
	}
	defer func() { evalPanicHook = nil }()
	done := serveWithDeadlines(t, transport.New(sNet), brk, DeadlineConfig{Handshake: setup, OTSetup: setup, Idle: limit})
	cli := &Client{Rng: rand.New(rand.NewSource(73))}
	sess, err := cli.NewSession(transport.New(cNet))
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	// Two inferences fill the window; neither answer is read.
	x := []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < 2; i++ {
			if _, err := sess.InferAsync(x); err != nil {
				return
			}
		}
	}()
	wantIdle(t, done, limit, time.Now())
	cNet.Close()
	<-sent
	checkLeaks()
}

// A session that is computing is not waiting on its client: an evaluation
// held for three Idle intervals after the whole burst has arrived still
// answers, with the plaintext model's label.
func TestIdleDeadlineSparesBusyEvaluator(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 300 * time.Millisecond
	sent := make(chan struct{})
	evalPanicHook = func(int) { // runs on the session goroutine
		<-sent
		time.Sleep(3 * limit)
	}
	defer func() { evalPanicHook = nil }()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{Handshake: setup, OTSetup: setup, Idle: limit})
	cli := &Client{Rng: rand.New(rand.NewSource(73))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		close(sent)
		t.Fatalf("open session: %v", err)
	}
	x := []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3}
	p, err := sess.InferAsync(x)
	close(sent) // the pipe never blocks a write: the burst is all sent
	if err != nil {
		t.Fatal(err)
	}
	label, _, err := p.Wait()
	if want := testNet(t, act.ReLU, 71).PredictFixed(fixed.Default, x); err != nil || label != want {
		t.Fatalf("busy inference = %d, %v; want %d", label, err, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	checkLeaks()
}

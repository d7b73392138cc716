package core

import (
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
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

// A client that completes the hello but never participates in the OT
// base phase stalls the server inside setup — past the handshake
// deadline's watch, squarely under the ot-setup one.
func TestOTSetupDeadlineCutsStalledClient(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	const limit = 200 * time.Millisecond
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	done := serveWithDeadlines(t, sConn, closer, DeadlineConfig{OTSetup: limit})
	if err := cConn.Send(transport.MsgHello, helloFrame(1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keep draining the server's setup frames (arch, pipeline, base-OT
	// sends) so it is genuinely stalled waiting on our OT reply, not on
	// pipe backpressure.
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

package deepsecure

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deepsecure/internal/transport"
)

func retryTestModel(t *testing.T) *Network {
	t.Helper()
	model, err := NewNetwork(Vec(6),
		NewDense(5),
		NewActivation(ReLU),
		NewDense(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(rand.New(rand.NewSource(7)))
	return model
}

// A peer that dies mid-handshake is transient: DialSession re-dials and
// the session opens once the server behaves.
func TestDialSessionRetriesThroughDeadPeer(t *testing.T) {
	model := retryTestModel(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			// First two connections die before the handshake finishes;
			// later ones get a real session.
			if accepted.Add(1) <= 2 {
				nc.Close()
				continue
			}
			go func() {
				defer nc.Close()
				Serve(NewConn(nc), model, DefaultFormat) //nolint:errcheck
			}()
		}
	}()

	var retries []error
	sess, nc, err := DialSession(ln.Addr().String(), &Client{}, RetryPolicy{
		BaseBackoff: time.Millisecond,
		jitter:      -1,
		OnRetry:     func(_ int, err error, _ time.Duration) { retries = append(retries, err) },
	})
	if err != nil {
		t.Fatalf("DialSession: %v (retries: %v)", err, retries)
	}
	defer nc.Close()
	if len(retries) != 2 {
		t.Fatalf("OnRetry fired %d times, want 2: %v", len(retries), retries)
	}
	x := make([]float64, sess.InputLen())
	got, _, err := sess.Infer(x)
	if err != nil {
		t.Fatalf("inference over retried session: %v", err)
	}
	if want := model.PredictFixed(DefaultFormat, x); got != want {
		t.Fatalf("label %d, want %d", got, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// A peer that never behaves exhausts MaxAttempts and surfaces the last
// transient error.
func TestDialSessionGivesUpAfterMaxAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			nc.Close()
		}
	}()
	var onRetry atomic.Int64
	_, _, err = DialSession(ln.Addr().String(), &Client{}, RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		jitter:      -1,
		OnRetry:     func(int, error, time.Duration) { onRetry.Add(1) },
	})
	if err == nil || !strings.Contains(err.Error(), "no session after 3 attempts") {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
	if onRetry.Load() != 2 {
		t.Fatalf("OnRetry fired %d times, want 2 (between 3 attempts)", onRetry.Load())
	}
}

// Protocol-level rejection is permanent: no retry, the error comes back
// from the single attempt.
func TestDialSessionDoesNotRetryProtocolErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer nc.Close()
				// Answer the hello with a garbage architecture: a
				// well-formed frame whose payload cannot possibly parse.
				tc := transport.New(nc)
				if _, err := tc.Recv(transport.MsgHello); err != nil {
					return
				}
				tc.Send(transport.MsgArch, []byte{0xff, 0xff, 0xff}) //nolint:errcheck
				tc.Flush()                                           //nolint:errcheck
			}()
		}
	}()
	_, _, err = DialSession(ln.Addr().String(), &Client{}, RetryPolicy{
		BaseBackoff: time.Millisecond,
		jitter:      -1,
	})
	if err == nil {
		t.Fatal("DialSession succeeded against a garbage server")
	}
	if strings.Contains(err.Error(), "attempts") {
		t.Fatalf("protocol error was retried: %v", err)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("server saw %d connections, want exactly 1 (no retries)", got)
	}
}

// A shedding server's retry-after hint floors the backoff, and the
// session opens once capacity frees up.
func TestDialSessionHonorsBusyRetryAfter(t *testing.T) {
	model := retryTestModel(t)
	const hint = 100 * time.Millisecond
	srv, err := NewServer(model, DefaultFormat,
		WithAdmission(AdmissionConfig{MaxActive: 1, RetryAfter: hint}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	// Occupy the only admission slot...
	blocker, bc, err := DialSession(addr, &Client{}, RetryPolicy{MaxAttempts: 1})
	if err != nil {
		t.Fatalf("blocker session: %v", err)
	}
	defer bc.Close()
	// ... and release it shortly, while the second DialSession is inside
	// its busy-backoff loop.
	release := time.AfterFunc(150*time.Millisecond, func() {
		blocker.Close() //nolint:errcheck
		bc.Close()
	})
	defer release.Stop()

	var busyWaits []time.Duration
	sess, nc, err := DialSession(addr, &Client{}, RetryPolicy{
		MaxAttempts: 20,
		BaseBackoff: time.Millisecond, // far below the hint: the floor must come from the server
		jitter:      -1,
		OnRetry: func(_ int, err error, wait time.Duration) {
			var be *BusyError
			if errors.As(err, &be) {
				busyWaits = append(busyWaits, wait)
			}
		},
	})
	if err != nil {
		t.Fatalf("DialSession through busy server: %v", err)
	}
	defer nc.Close()
	defer sess.Close()
	if len(busyWaits) == 0 {
		t.Fatal("second session never saw a busy response")
	}
	for _, w := range busyWaits {
		if w < hint {
			t.Fatalf("busy backoff %v below the server's retry-after hint %v", w, hint)
		}
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// These tests pin the properties the server side of a session relies on now
// that it is a FIFO (mux.go): three goroutines whatever the window, answers
// in begin order, no deadlock on a path that buffers nothing, every illegal
// frame sequence a descriptive error and never a hang, and a table frame
// capped from the negotiated program.

// openRawSession serves one session of srv on an in-memory pipe and opens a
// client session on it, whose connection the caller then writes to directly.
// The returned channel yields ServeSession's error.
func openRawSession(t *testing.T, srv *Server, cli *Client) (*Session, <-chan error, io.Closer) {
	t.Helper()
	cConn, sConn, closer := transport.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		closer.Close()
		t.Fatalf("open session: %v", err)
	}
	return sess, done, closer
}

func sendBegin(t *testing.T, c *transport.Conn, batch int) {
	t.Helper()
	if err := c.Send(transport.MsgInferBegin, binary.AppendUvarint(nil, uint64(batch))); err != nil {
		t.Fatal(err)
	}
}

// sendBurstPrefix writes the begun inference's frames up to, not including,
// its first level run: const labels and every client input step before it,
// of the right sizes and arbitrary content (a weight step sends nothing).
// It returns that run's table budget.
func sendBurstPrefix(t *testing.T, c *transport.Conn, sched *circuit.Schedule) int {
	t.Helper()
	send := func(typ transport.MsgType, n int) {
		if err := c.Send(typ, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	send(transport.MsgConstLabels, 2*gc.LabelSize)
	for i := range sched.Steps {
		switch st := &sched.Steps[i]; {
		case st.Kind == circuit.StepLevels:
			return st.TableBytes
		case st.Kind == circuit.StepInputs && st.Party == circuit.Garbler:
			send(transport.MsgInputLabels, len(st.Wires)*gc.LabelSize)
		}
	}
	t.Fatal("schedule has no level run")
	return 0
}

func randomSample(rng *rand.Rand) []float64 {
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// muxGoroutines counts the goroutines with a sessionMux method on their
// stack: a session's reader, its session goroutine and its writer, and
// anything else a session were to start.
func muxGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "core.(*sessionMux).") {
			n++
		}
	}
	return n
}

// TestSessionGoroutinesAreThree: a server session with a window of eight,
// kept full by its client, is the reader, the session goroutine and the
// writer — no goroutine per in-flight inference — at the top of every
// inference and whenever the client looks in between, mid-evaluation
// included, and nothing once it is closed.
func TestSessionGoroutinesAreThree(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 41)
	cfg := EngineConfig{Workers: 2, Pipeline: 8}
	var mu sync.Mutex
	peak, begun := 0, 0
	sample := func() {
		n := muxGoroutines()
		mu.Lock()
		peak = max(peak, n)
		mu.Unlock()
	}
	evalPanicHook = func(int) { // runs on the session goroutine
		sample()
		begun++
	}
	defer func() { evalPanicHook = nil }()
	sess, done, closer := openRawSession(t, &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(42)), Engine: cfg},
		&Client{Rng: rand.New(rand.NewSource(43)), Engine: cfg})
	defer closer.Close()
	if sess.Window() != 8 {
		t.Fatalf("negotiated window %d, want 8", sess.Window())
	}
	rng := rand.New(rand.NewSource(44))
	const n = 24
	ps := make([]*PendingInference, n)
	want := make([]int, n)
	for i := range ps {
		x := randomSample(rng)
		want[i] = net.PredictFixed(f, x)
		var err error
		if ps[i], err = sess.InferAsync(x); err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		sample() // the server is somewhere inside the inferences behind this one
	}
	for i, p := range ps {
		if label, _, err := p.Wait(); err != nil || label != want[i] {
			t.Fatalf("inference %d = %d, %v; want %d", i, label, err, want[i])
		}
		sample()
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if begun != n || peak != 3 {
		t.Fatalf("%d inferences begun, at most %d sessionMux goroutines alive; want %d and 3 (reader, session goroutine, writer)", begun, peak, n)
	}
	checkLeaks()
}

// TestPipelineDepth2Transcript: what a depth-2 server writes is a function of
// what its client sent, not of scheduling — two sessions with equal seeded
// rngs produce the same set-up frames and the same output frames in begin
// order, byte for byte, with the derived table chunk and with a tiny one
// that gives most levels a frame of their own. The set-up and the outputs
// are compared each on its own, and the whole stream by length.
// (TestPipelineDepth1Conformance pins whole streams at depth 1.)
func TestPipelineDepth2Transcript(t *testing.T) {
	net := testNet(t, act.ReLU, 45)
	rng := rand.New(rand.NewSource(46))
	xs := make([][]float64, 6)
	for i := range xs {
		xs[i] = randomSample(rng)
	}
	split := func(raw []byte) (setup, outputs [][]byte) {
		for _, fr := range parseFrames(t, raw) {
			if fr.typ == transport.MsgOutputLabels {
				outputs = append(outputs, fr.payload)
			} else {
				setup = append(setup, append([]byte{byte(fr.typ)}, fr.payload...))
			}
		}
		return setup, outputs
	}
	for name, chunk := range map[string]int{
		"derived": 0,
		"tiny":    64,
	} {
		t.Run(name, func(t *testing.T) {
			_, _, e2gA, _ := sessionRun(t, net, xs, chunk, 2, 7701, 7702)
			_, _, e2gB, _ := sessionRun(t, net, xs, chunk, 2, 7701, 7702)
			setupA, outA := split(e2gA)
			setupB, outB := split(e2gB)
			if len(outA) != len(xs) || len(setupA) != 4 {
				t.Fatalf("%d output frames and %d set-up frames for %d inferences, want %d and 4 (arch, pipeline, the base OT's A, U)",
					len(outA), len(setupA), len(xs), len(xs))
			}
			same := func(what string, a, b [][]byte) {
				if len(a) != len(b) {
					t.Fatalf("%d vs %d %s frames", len(a), len(b), what)
				}
				for i := range a {
					if !bytes.Equal(a[i], b[i]) {
						t.Fatalf("%s frame %d differs between two runs of one client transcript", what, i)
					}
				}
			}
			same("output", outA, outB)
			same("set-up", setupA, setupB)
			if len(e2gA) != len(e2gB) {
				t.Fatalf("server wrote %d bytes in one run, %d in the other", len(e2gA), len(e2gB))
			}
		})
	}
}

// TestFIFOIllegalSequences: every frame sequence a session cannot legally
// take ends ServeSession with a descriptive error — or, for a disconnect
// between inferences, cleanly — within the test timeout, and leaves no
// goroutine behind once the connection is closed.
func TestFIFOIllegalSequences(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 47)
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := prog.Schedule
	inferOnce := func(t *testing.T, sess *Session) {
		t.Helper()
		if _, _, err := sess.Infer(randomSample(rand.New(rand.NewSource(48)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		send func(t *testing.T, sess *Session, closer io.Closer)
		want string // substring of ServeSession's error; empty = a clean end
	}{
		{"begin directly after begin", func(t *testing.T, sess *Session, _ io.Closer) {
			sendBegin(t, sess.conn, 1)
			sendBegin(t, sess.conn, 1)
		}, "protocol desync mid-inference: got infer-begin frame"},
		{"frame for an answered inference", func(t *testing.T, sess *Session, _ io.Closer) {
			inferOnce(t, sess)
			if err := sess.conn.Send(transport.MsgTables, []byte("junk")); err != nil {
				t.Fatal(err)
			}
		}, "tables frame between inferences"},
		{"frame for an id never begun", func(t *testing.T, sess *Session, _ io.Closer) {
			// Frames carry no id: a frame with no inference begun is one
			// between inferences.
			if err := sess.conn.Send(transport.MsgConstLabels, make([]byte, 2*gc.LabelSize)); err != nil {
				t.Fatal(err)
			}
		}, "const-labels frame between inferences"},
		{"frame for an inference whose burst is over", func(t *testing.T, sess *Session, _ io.Closer) {
			// A late const-labels frame after the next begin reads as that
			// inference's own; its second is out of step with the schedule.
			inferOnce(t, sess)
			sendBegin(t, sess.conn, 1)
			for range 2 {
				if err := sess.conn.Send(transport.MsgConstLabels, make([]byte, 2*gc.LabelSize)); err != nil {
					t.Fatal(err)
				}
			}
		}, "protocol desync mid-inference: got const-labels frame"},
		{"table flood past the run budget", func(t *testing.T, sess *Session, _ io.Closer) {
			sendBegin(t, sess.conn, 1)
			budget := sendBurstPrefix(t, sess.conn, sched)
			for i := 0; i < 2*ringFrames; i++ { // each within the frame cap, the first already past the run
				if err := sess.conn.Send(transport.MsgTables, make([]byte, budget+gc.TableSize)); err != nil {
					t.Fatal(err)
				}
			}
		}, "garbled-table overrun"},
		{"end-session with an inference open", func(t *testing.T, sess *Session, _ io.Closer) {
			sendBegin(t, sess.conn, 1)
			sendBurstPrefix(t, sess.conn, sched)
			if err := sess.conn.Send(transport.MsgEndSession, nil); err != nil {
				t.Fatal(err)
			}
		}, "session ended mid-inference"},
		{"disconnect mid-inference", func(t *testing.T, sess *Session, closer io.Closer) {
			sendBegin(t, sess.conn, 1)
			sendBurstPrefix(t, sess.conn, sched)
			if err := sess.conn.Flush(); err != nil {
				t.Fatal(err)
			}
			closer.Close()
		}, "transport: read header: EOF"},
		{"disconnect between inferences", func(t *testing.T, sess *Session, closer io.Closer) {
			inferOnce(t, sess)
			closer.Close()
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := testutil.VerifyNoLeaks(t)
			cfg := EngineConfig{Workers: 1, Pipeline: 2}
			sess, done, closer := openRawSession(t, &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(49)), Engine: cfg},
				&Client{Rng: rand.New(rand.NewSource(50)), Engine: cfg})
			defer closer.Close()
			tc.send(t, sess, closer)
			sess.conn.Flush() //nolint:errcheck — fails only where the case closed the pipe itself
			select {
			case err := <-done:
				if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
					t.Fatalf("ServeSession = %v, want %q", err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("ServeSession still running 30 s after the illegal sequence")
			}
			closer.Close() // releases the reader, if it is parked in a read
			checkLeaks()
		})
	}
}

// TestWindowValidation drives the session reader alone — the window is its
// one integer — through begin (a begin frame), frame (a frame of the open
// inference) and close (what the writer does before an answer goes out): a
// begin past the window is refused with a descriptive error.
func TestWindowValidation(t *testing.T) {
	type op struct {
		kind    string // begin | frame | close
		wantErr string // substring; empty = must succeed
	}
	for _, tc := range []struct {
		name  string
		depth int
		ops   []op
	}{
		{"serial begin-close cycles", 1, []op{
			{"begin", ""}, {"frame", ""}, {"close", ""},
			{"begin", ""}, {"frame", ""}, {"close", ""},
		}},
		{"overlap within depth", 2, []op{
			{"begin", ""}, {"frame", ""}, {"begin", ""}, {"frame", ""},
			{"close", ""}, {"begin", ""},
		}},
		{"begin past the window", 2, []op{
			{"begin", ""}, {"begin", ""},
			{"begin", "exceeds the in-flight window (depth 2)"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := testutil.VerifyNoLeaks(t)
			cConn, sConn, closer := transport.Pipe()
			m := &sessionMux{
				conn: sConn,
				cfg:  EngineConfig{Pipeline: tc.depth},
				fifo: make(chan frame, 16),
				stop: make(chan struct{}),
				end:  sessionOrdinals,
			}
			go m.readLoop()
			for i, o := range tc.ops {
				switch o.kind {
				case "begin":
					sendBegin(t, cConn, 1)
				case "frame":
					if err := cConn.Send(transport.MsgConstLabels, nil); err != nil {
						t.Fatal(err)
					}
				case "close":
					m.open.Add(-1)
					continue
				}
				if err := cConn.Flush(); err != nil {
					t.Fatal(err)
				}
				fr, ok := <-m.fifo
				switch {
				case o.wantErr == "" && !ok:
					t.Fatalf("op %d %s: unexpected error %v", i, o.kind, m.readErr)
				case o.wantErr == "" && (o.kind == "begin") != (fr.begin != nil):
					t.Fatalf("op %d %s: queued %+v", i, o.kind, fr)
				case o.wantErr != "" && (ok || m.readErr == nil || !strings.Contains(m.readErr.Error(), o.wantErr)):
					t.Fatalf("op %d %s: error %v, want substring %q", i, o.kind, m.readErr, o.wantErr)
				}
			}
			closer.Close()
			checkLeaks()
		})
	}
}

// TestPipelineWindowRejectsRunahead pins what the announced window means to
// a server that evaluates in order. Bare begins past it are refused by the
// reader before the evaluator can see them. A client that runs ahead with
// whole, conforming bursts is paced by the ring instead: the reader is never
// more than ringFrames ahead of the evaluator, so a begin is read either
// after the answer before it went out — then the run-ahead is invisible, and
// served in order — or, at depth 1, just before — then it is refused like
// the bare one. Both are correct; which one a given run gets is timing, and
// neither holds more than one inference's state.
func TestPipelineWindowRejectsRunahead(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 66)
	t.Run("bare begins", func(t *testing.T) {
		sess, done, closer := openRawSession(t, &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(81)), Engine: EngineConfig{Pipeline: 1}},
			&Client{Rng: rand.New(rand.NewSource(82))})
		defer closer.Close()
		sendBegin(t, sess.conn, 1)
		sendBegin(t, sess.conn, 1)
		if err := sess.conn.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err == nil || !strings.Contains(err.Error(), "in-flight window") {
			t.Fatalf("server error = %v, want in-flight window rejection", err)
		}
	})
	t.Run("conforming bursts", func(t *testing.T) {
		sess, done, closer := openRawSession(t, &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(83)), Engine: EngineConfig{Pipeline: 1}},
			&Client{Rng: rand.New(rand.NewSource(84)), Engine: EngineConfig{Pipeline: 4}})
		defer closer.Close()
		if sess.Window() != 1 {
			t.Fatalf("negotiated window %d, want 1", sess.Window())
		}
		sess.window = 4 // a client that ignores the announcement
		ended := make(chan error, 1)
		go func() { // a server closes the connection of a session it ended
			err := <-done
			closer.Close()
			ended <- err
		}()
		rng := rand.New(rand.NewSource(85))
		var ps []*PendingInference
		var want []int
		var cliErr error
		for i := 0; i < 4 && cliErr == nil; i++ {
			x := randomSample(rng)
			var p *PendingInference
			if p, cliErr = sess.InferAsync(x); cliErr == nil {
				ps = append(ps, p)
				want = append(want, net.PredictFixed(f, x))
			}
		}
		for i := 0; i < len(ps) && cliErr == nil; i++ {
			var label int
			if label, _, cliErr = ps[i].Wait(); cliErr == nil && label != want[i] {
				t.Fatalf("inference %d: label %d, want %d", i, label, want[i])
			}
		}
		if cliErr == nil {
			cliErr = sess.Close()
		}
		switch srvErr := <-ended; {
		case srvErr == nil && cliErr == nil: // paced: every label checked above
		case srvErr != nil && strings.Contains(srvErr.Error(), "in-flight window") && cliErr != nil: // refused
		default:
			t.Fatalf("server error = %v, client error = %v; want both nil or an in-flight window rejection", srvErr, cliErr)
		}
	})
}

// TestTableFrameCapRefusesBeforeAllocating: a session caps tables frames
// at the largest level run of its program times the batch cap, so a
// header announcing one byte more is refused unread — nothing allocated, the
// session over with an error, no goroutine left — where it used to be read
// into the ring whole, up to MaxFrame.
func TestTableFrameCapRefusesBeforeAllocating(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 77)
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 2
	limit := 0
	for i := range prog.Schedule.Steps {
		if st := &prog.Schedule.Steps[i]; st.Kind == circuit.StepLevels {
			limit = max(limit, st.TableBytes*maxBatch)
		}
	}
	c2s, s2c := newLogHalf(), newLogHalf()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(95)), Engine: EngineConfig{MaxBatch: maxBatch}}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(transport.New(logDuplex{r: c2s, w: s2c}))
		done <- err
	}()
	cConn := transport.New(logDuplex{r: s2c, w: c2s})
	if _, err := (&Client{Rng: rand.New(rand.NewSource(96))}).NewSession(cConn); err != nil {
		t.Fatal(err)
	}
	sendBegin(t, cConn, maxBatch)
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := [5]byte{byte(transport.MsgTables)}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(limit+1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c2s.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	srvErr := <-done
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("transport: tables frame of %d bytes exceeds its limit of %d", limit+1, limit); srvErr == nil || srvErr.Error() != want {
		t.Fatalf("server error = %v, want %q", srvErr, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing an oversized tables header allocated %d bytes", grew)
	}
	c2s.close()
	s2c.close()
	checkLeaks()
}

// swapAnswers forwards a server's frames to its client with the first two
// output frames exchanged.
func swapAnswers(from, to *transport.Conn) {
	var held *wireFrame
	swapped := false
	for {
		typ, payload, err := from.ReadFrame()
		if err != nil {
			return
		}
		if typ == transport.MsgOutputLabels && !swapped {
			if held == nil {
				held = &wireFrame{typ, payload}
				continue
			}
			to.Send(typ, payload)           //nolint:errcheck — an in-memory pipe
			to.Send(held.typ, held.payload) //nolint:errcheck
			swapped = true
		} else {
			to.Send(typ, payload) //nolint:errcheck
		}
		to.Flush() //nolint:errcheck
	}
}

// TestOutOfOrderAnswerRefused: answers come back in begin order, so the
// client authenticates an output frame against its oldest in-flight
// inference only. A server that answers inference 2 first sends labels that
// inference 1's deltas do not authenticate — Wait fails, the session is
// broken — not a scheduling artefact to search the window for.
func TestOutOfOrderAnswerRefused(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 55)
	c2s, s2m, m2c := newLogHalf(), newLogHalf(), newLogHalf()
	defer func() { c2s.close(); s2m.close(); m2c.close() }()
	cfg := EngineConfig{Workers: 1, Pipeline: 2}
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(56)), Engine: cfg}
	go srv.ServeSession(transport.New(logDuplex{r: c2s, w: s2m})) //nolint:errcheck — ends when the halves close
	go swapAnswers(transport.New(logDuplex{r: s2m, w: s2m}), transport.New(logDuplex{r: m2c, w: m2c}))
	cli := &Client{Rng: rand.New(rand.NewSource(57)), Engine: cfg}
	sess, err := cli.NewSession(transport.New(logDuplex{r: m2c, w: c2s}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(58))
	p1, err := sess.InferAsync(randomSample(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.InferAsync(randomSample(rng)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p1.Wait(); err == nil || !strings.Contains(err.Error(), "failed authentication") && !strings.Contains(err.Error(), "output-label frame has") {
		t.Fatalf("Wait on swapped answers = %v, want an authentication or length failure", err)
	}
	if _, err := sess.InferAsync(randomSample(rng)); err == nil || !strings.Contains(err.Error(), "session is broken") {
		t.Fatalf("InferAsync after an out-of-order answer = %v, want a broken session", err)
	}
	c2s.close()
	s2m.close()
	m2c.close()
	checkLeaks()
}

// TestHandshakeDeadlineCutsClientThatStopsReading: a pruned model's spec
// carries its sparsity map, one entry per weight, and past 64 KiB the
// architecture frame is written through at Send. A client that says hello,
// its base-phase frame behind it, and then stops reading parks the server
// in that write; the handshake
// deadline must surface as itself, not as the closed-connection error its
// enforcement produced.
func TestHandshakeDeadlineCutsClientThatStopsReading(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	nw, err := nn.NewNetwork(nn.Vec(128), nn.NewDense(96), nn.NewActivation(act.ReLU), nn.NewDense(4))
	if err != nil {
		t.Fatal(err)
	}
	nw.InitWeights(rand.New(rand.NewSource(59)))
	d := nw.Layers[0].(*nn.Dense)
	for i := range d.Mask {
		d.Mask[i] = i%64 == 0 // compacted: 1 weight in 64 survives
	}
	const limit = 200 * time.Millisecond
	srv := &Server{Net: nw, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(60)),
		Engine: EngineConfig{Deadlines: DeadlineConfig{Handshake: limit}}}
	if _, err := srv.Program(); err != nil {
		t.Fatal(err)
	}
	if len(srv.spec) < 64<<10 {
		t.Fatalf("spec of %d bytes is buffered, not written through", len(srv.spec))
	}
	// A synchronous pipe: a write completes only when the peer reads it.
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	sConn := transport.New(sEnd)
	sConn.SetBreaker(sEnd.Close)
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	cConn := transport.New(cEnd)
	if err := cConn.Send(transport.MsgHello, helloFrame(1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := ot.NewExtSender(cConn, rand.New(rand.NewSource(61))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		var de *DeadlineError
		if !errors.As(err, &de) || de.Phase != "handshake" || de.Limit != limit {
			t.Fatalf("session error = %v, want the handshake DeadlineError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handshake deadline did not end a session parked in the architecture write")
	}
	checkLeaks()
}

// tcpLink is a loopback TCP connection whose four socket buffers were set to
// 8 KiB before it was made (a listener's are inherited by what it accepts):
// a path that holds a few kilobytes, where a burst is some 400 kilobytes and
// a refill 170.
func tcpLink(t *testing.T) (cEnd, sEnd net.Conn) {
	t.Helper()
	small := func(_, _ string, c syscall.RawConn) (err error) {
		if cerr := c.Control(func(fd uintptr) {
			for _, opt := range []int{syscall.SO_RCVBUF, syscall.SO_SNDBUF} {
				if e := syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, 8<<10); e != nil {
					err = e
				}
			}
		}); cerr != nil {
			return cerr
		}
		return err
	}
	ln, err := (&net.ListenConfig{Control: small}).Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if cEnd, err = (&net.Dialer{Control: small}).Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if sEnd, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	return cEnd, sEnd
}

// TestFullWindowOnBoundedLink is the no-deadlock property on links that
// absorb nothing: a synchronous pipe (a write returns when the peer has read
// it) and loopback TCP with 8 KiB socket buffers. The client keeps a window
// of two full, so every answer is written while the client is mid-burst on
// the next inference, in table chunks small enough that a burst is many
// times the ring — 16 inferences on each link, and 56 on TCP in the row
// named for the OT pool the daemon once defaulted to, whose one refill came
// mid-session. The answer must not be able to stop the session goroutine
// popping the ring: written by that goroutine, server and client park in
// write against each other for good. However long the session, its OTs are
// the set-up's W.
func TestFullWindowOnBoundedLink(t *testing.T) {
	f := fixed.Default
	nw := testNet(t, act.ReLU, 97)
	pipe := func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }
	for _, tc := range []struct {
		name string
		link func(*testing.T) (net.Conn, net.Conn)
		n    int
	}{
		{"pipe", pipe, 16},
		{"tcp", tcpLink, 16},
		{"tcp, default daemon pool", tcpLink, 56},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := testutil.VerifyNoLeaks(t)
			cEnd, sEnd := tc.link(t)
			defer cEnd.Close()
			defer sEnd.Close()
			cfg := EngineConfig{Workers: 1, Pipeline: 2, chunkBytes: 4 << 10}
			srv := &Server{Net: nw, Fmt: f, Rng: rand.New(rand.NewSource(98)), Engine: cfg}
			type result struct {
				st  *Stats
				err error
			}
			srvDone := make(chan result, 1)
			go func() {
				st, err := srv.ServeSession(transport.New(sEnd))
				srvDone <- result{st, err}
			}()
			cliDone := make(chan error, 1)
			go func() {
				cliDone <- func() error {
					sess, err := (&Client{Rng: rand.New(rand.NewSource(99)), Engine: cfg}).NewSession(transport.New(cEnd))
					if err != nil {
						return err
					}
					rng := rand.New(rand.NewSource(100))
					var ps []*PendingInference
					var want []int
					for i := 0; i < tc.n; i++ {
						x := randomSample(rng)
						p, err := sess.InferAsync(x)
						if err != nil {
							return fmt.Errorf("inference %d: %w", i, err)
						}
						ps, want = append(ps, p), append(want, nw.PredictFixed(f, x))
					}
					for i, p := range ps {
						if label, _, err := p.Wait(); err != nil || label != want[i] {
							return fmt.Errorf("inference %d = %d, %v; want %d", i, label, err, want[i])
						}
					}
					return sess.Close()
				}()
			}()
			wedged := time.After(60 * time.Second)
			select {
			case err := <-cliDone:
				if err != nil {
					t.Fatalf("client: %v", err)
				}
			case <-wedged:
				t.Fatal("client still waiting after 60 s: the session wedged on a link that buffers nothing")
			}
			select {
			case r := <-srvDone:
				if r.err != nil || r.st.OTsConsumed != testNetWeightBits {
					t.Fatalf("server: %v after %d OTs, want nil and %d", r.err, r.st.OTsConsumed, testNetWeightBits)
				}
			case <-wedged:
				t.Fatal("ServeSession still running 60 s after its client closed")
			}
			cEnd.Close()
			sEnd.Close()
			checkLeaks()
		})
	}
}

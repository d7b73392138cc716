package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deepsecure"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/nn"
)

// env is one set-up instance of a workload: a real inference server on a
// loopback listener in this process, and the client side that drives it.
type env struct {
	w      *workload
	model  *nn.Network
	link   *linkStats
	srv    *deepsecure.InferenceServer
	addr   string
	served chan error // result of srv.Serve
	client *deepsecure.Client

	// The long-lived session of the non-churn workloads.
	conn net.Conn
	sess *deepsecure.Session
}

// setUp brings the workload from nothing to the point where its first
// operation can be issued: NewServer (netlist compile and schedule),
// listen, dial, and a first NewSession (handshake, client-side compile, OT
// base phase, pool fill). Its wall time is setup_s.
func setUp(w *workload, model *nn.Network, link *linkStats, tr *tracer, parent int) (*env, error) {
	e := &env{w: w, model: model, link: link, client: &deepsecure.Client{}, served: make(chan error, 1)}
	_, err := timed(tr, "server.new", parent, -1, func(int) (err error) {
		e.srv, err = deepsecure.NewServer(model, benchmarks.Format,
			deepsecure.WithOTPool(deepsecure.PoolConfig{Capacity: w.otPool, Background: true}))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("NewServer: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	go func() { e.served <- e.srv.Serve(ln) }()
	conn, sess, err := e.open(tr, parent, -1, "core.session_open_cold")
	if err != nil {
		e.stopServer()
		return nil, err
	}
	if w.churn > 0 {
		// Churn operations open their own sessions; this one only paid
		// the client-side compile the shared Client now caches.
		if err := closeSession(sess, conn); err != nil {
			e.stopServer()
			return nil, err
		}
		return e, nil
	}
	e.conn, e.sess = conn, sess
	return e, nil
}

// open dials the server and opens a session on the connection.
func (e *env) open(tr *tracer, parent, op int, spanName string) (net.Conn, *deepsecure.Session, error) {
	var conn net.Conn
	if _, err := timed(tr, "dial", parent, op, func(int) (err error) {
		conn, err = dial(e.addr, e.w.delay, e.link)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var sess *deepsecure.Session
	if _, err := timed(tr, spanName, parent, op, func(int) (err error) {
		sess, err = e.client.NewSession(deepsecure.NewConn(conn))
		return err
	}); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("NewSession: %w", err)
	}
	return conn, sess, nil
}

func closeSession(sess *deepsecure.Session, conn net.Conn) error {
	err := sess.Close()
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *env) stopServer() error {
	err := e.srv.Close()
	if serr := <-e.served; !errors.Is(serr, deepsecure.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.Close()
	return err
}

// tearDown closes the long-lived session, if any, and stops the server,
// returning once the accept loop has ended.
func (e *env) tearDown(tr *tracer, parent int) error {
	var err error
	if e.sess != nil {
		_, err = timed(tr, "core.close", parent, -1, func(int) error { return closeSession(e.sess, e.conn) })
	}
	if serr := e.stopServer(); err == nil {
		err = serr
	}
	return err
}

// opResult is the outcome of one operation of the timed window.
type opResult struct {
	op      int
	latency time.Duration
	infers  int           // inferences the operation carried
	correct int           // of those, labels equal to nn.PredictFixed
	traced  bool          // spans were recorded around it
	done    time.Time     // when the operation returned
	cpu     time.Duration // the process's CPU time at that moment
	err     error         // the operation itself failed or was refused
	wrong   string        // first label that differs from the reference, if any
}

func (r opResult) failed() bool { return r.err != nil || r.correct < r.infers }

// window is the timed part of a run: operations are handed out until the
// time is up (or, with a fixed count, until that many were issued), and
// their results collected.
type window struct {
	seed    int64
	seconds float64
	maxOps  int // > 0 fixes the operation count instead of the duration
	tr      *tracer
	root    int // parent span of every operation

	start time.Time
	next  atomic.Int64
	mu    sync.Mutex
	res   []opResult
	end   time.Time // when the last operation returned
}

// take returns the index of the next operation to issue, or false once
// the window is over.
func (wd *window) take() (int, bool) {
	if wd.maxOps > 0 {
		op := int(wd.next.Add(1) - 1)
		return op, op < wd.maxOps
	}
	if time.Since(wd.start).Seconds() >= wd.seconds {
		return 0, false
	}
	return int(wd.next.Add(1) - 1), true
}

// tracerFor alternates traced and untraced operations within one window,
// so both see the same session state, heap and machine noise and their
// medians can be compared (trace.overhead_pct).
func (wd *window) tracerFor(op int) *tracer {
	if op%2 == 1 {
		return wd.tr
	}
	return nil
}

// record stamps the operation with the time and the process's CPU time at
// which it returned, under the lock, so that res is in completion order.
func (wd *window) record(r opResult) {
	wd.mu.Lock()
	r.done, r.cpu = time.Now(), cpuTime()
	wd.res = append(wd.res, r)
	wd.end = r.done
	wd.mu.Unlock()
}

// check compares the labels of one operation with the plaintext
// fixed-point reference on the same inputs.
func (e *env) check(r *opResult, xs [][]float64, labels []int) {
	if r.err != nil {
		return
	}
	if len(labels) != len(xs) {
		r.err = fmt.Errorf("%d labels for %d samples", len(labels), len(xs))
		return
	}
	for i, x := range xs {
		want := e.model.PredictFixed(benchmarks.Format, x)
		if labels[i] == want {
			r.correct++
		} else if r.wrong == "" {
			r.wrong = fmt.Sprintf("sample %d: label %d, nn.PredictFixed says %d", i, labels[i], want)
		}
	}
}

// infer runs one operation's samples through an open session.
func (e *env) infer(sess *deepsecure.Session, xs [][]float64) ([]int, error) {
	if e.w.batch > 1 {
		labels, _, err := sess.InferBatch(xs)
		return labels, err
	}
	label, _, err := sess.Infer(xs[0])
	return []int{label}, err
}

// run drives the workload's traffic for one window.
func (e *env) run(wd *window) {
	wd.start = time.Now()
	wd.end = wd.start
	switch {
	case e.w.churn > 0:
		var wg sync.WaitGroup
		for c := 0; c < e.w.churn; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.runChurn(wd)
			}()
		}
		wg.Wait()
	case e.w.async:
		e.runAsync(wd)
	default:
		e.runSerial(wd)
	}
}

// runSerial issues one Infer (or InferBatch) at a time on the long-lived
// session. A failed operation ends the window: the session is gone.
func (e *env) runSerial(wd *window) {
	dim := e.sess.InputLen()
	for {
		op, ok := wd.take()
		if !ok {
			return
		}
		xs := inputs(wd.seed, op, e.w.batch, dim)
		tr := wd.tracerFor(op)
		r := opResult{op: op, infers: len(xs), traced: tr != nil}
		var labels []int
		r.latency, r.err = timed(tr, "op", wd.root, op, func(id int) error {
			_, err := timed(tr, "core.infer", id, op, func(int) (err error) {
				labels, err = e.infer(e.sess, xs)
				return err
			})
			return err
		})
		e.check(&r, xs, labels)
		wd.record(r)
		if r.err != nil {
			return
		}
	}
}

// runAsync keeps the session's negotiated in-flight window full: an
// operation's latency runs from its InferAsync call to the return of its
// Wait. A failed operation ends the window, and the operations in flight
// behind it are lost with the session.
func (e *env) runAsync(wd *window) {
	type inflight struct {
		r        opResult
		xs       [][]float64
		p        *deepsecure.PendingInference
		start    time.Time
		tr       *tracer
		op, span int // span ids
	}
	dim := e.sess.InputLen()
	var q []*inflight
	var failure error
	for failure == nil {
		for len(q) < e.sess.Window() && failure == nil {
			op, ok := wd.take()
			if !ok {
				break
			}
			f := &inflight{xs: inputs(wd.seed, op, 1, dim), tr: wd.tracerFor(op), start: time.Now()}
			f.r = opResult{op: op, infers: 1, traced: f.tr != nil}
			f.op = f.tr.begin("op", wd.root, op)
			f.span = f.tr.begin("core.infer", f.op, op)
			_, failure = timed(f.tr, "core.infer_async", f.span, op, func(int) (err error) {
				f.p, err = e.sess.InferAsync(f.xs[0])
				return err
			})
			q = append(q, f)
		}
		if len(q) == 0 {
			return
		}
		if failure != nil {
			break
		}
		f := q[0]
		q = q[1:]
		var label int
		_, f.r.err = timed(f.tr, "core.wait", f.span, f.r.op, func(int) (err error) {
			label, _, err = f.p.Wait()
			return err
		})
		f.tr.end(f.span)
		f.tr.end(f.op)
		f.r.latency = time.Since(f.start)
		e.check(&f.r, f.xs, []int{label})
		wd.record(f.r)
		failure = f.r.err
	}
	for _, f := range q {
		f.tr.end(f.span)
		f.tr.end(f.op)
		f.r.err = fmt.Errorf("session failed: %w", failure)
		wd.record(f.r)
	}
}

// runChurn is one closed-loop client whose every operation is a whole
// session. A refused or failed session is counted and the loop goes on.
func (e *env) runChurn(wd *window) {
	dim := e.model.In.Len()
	for {
		op, ok := wd.take()
		if !ok {
			return
		}
		xs := inputs(wd.seed, op, 1, dim)
		tr := wd.tracerFor(op)
		r := opResult{op: op, infers: 1, traced: tr != nil}
		var labels []int
		r.latency, r.err = timed(tr, "op", wd.root, op, func(id int) error {
			conn, sess, err := e.open(tr, id, op, "core.session_open")
			if err != nil {
				return err
			}
			_, err = timed(tr, "core.infer", id, op, func(int) (err error) {
				labels, err = e.infer(sess, xs)
				return err
			})
			_, cerr := timed(tr, "core.close", id, op, func(int) error { return closeSession(sess, conn) })
			if err == nil {
				err = cerr
			}
			return err
		})
		e.check(&r, xs, labels)
		wd.record(r)
	}
}

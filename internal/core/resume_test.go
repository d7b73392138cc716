package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// visit is one whole session of cli with srv over a recording pipe — open,
// one inference of x, close — as a value, so that concurrent visits can be
// judged on the test's goroutine afterwards.
type visit struct {
	label    int
	err      error // the client's first error, at whichever call
	srvErr   error
	cli, srv *Stats
	dirs     string // the client's byte flow: 'w' and 'r' runs
	turns    int    // the flow's changes of direction before the first burst
	c2s, s2c []byte
}

func runVisit(srv *Server, cli *Client, x []float64) visit {
	return runGatedVisit(srv, cli, x, func() {})
}

// gatedDuplex calls gate before its first read.
type gatedDuplex struct {
	logDuplex
	gate func()
	once sync.Once
}

func (d *gatedDuplex) Read(b []byte) (int, error) {
	d.once.Do(d.gate)
	return d.logDuplex.Read(b)
}

// runGatedVisit is runVisit whose client calls gate once its hello is sent,
// before it reads the server's answer.
func runGatedVisit(srv *Server, cli *Client, x []float64, gate func()) (v visit) {
	c2sHalf, s2cHalf := newLogHalf(), newLogHalf()
	wire := &dirLog{ReadWriter: &gatedDuplex{logDuplex: logDuplex{r: s2cHalf, w: c2sHalf}, gate: gate}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.srv, v.srvErr = srv.ServeSession(transport.New(logDuplex{r: c2sHalf, w: s2cHalf}))
	}()
	v.label, v.cli, v.err = func() (int, *Stats, error) {
		sess, err := cli.NewSession(transport.New(wire))
		if err != nil {
			return 0, nil, err
		}
		label, _, err := sess.Infer(x)
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		return label, sess.Stats(), err
	}()
	// A client that gave up leaves the server waiting for it: hang up.
	if v.err != nil {
		c2sHalf.close()
		s2cHalf.close()
	}
	<-done
	c2sHalf.close() // releases the server's session reader
	v.c2s, v.s2c = c2sHalf.bytesWritten(), s2cHalf.bytesWritten()
	v.turns = wire.turnsBefore(burstOffset(v.c2s))
	v.dirs = wire.take()
	return v
}

// burstOffset is the offset of the first MsgInferBegin frame in a client's
// byte stream, or its length if it holds none.
func burstOffset(c2s []byte) int {
	off := 0
	for off+5 <= len(c2s) && transport.MsgType(c2s[off]) != transport.MsgInferBegin {
		off += 5 + int(binary.LittleEndian.Uint32(c2s[off+1:]))
	}
	return off
}

func frameTypes(frames []wireFrame) []transport.MsgType {
	out := make([]transport.MsgType, len(frames))
	for i, f := range frames {
		out[i] = f.typ
	}
	return out
}

// pairOf reads the client's session counter and the pair id the session
// ran on off its recorded hello and architecture frames.
func pairOf(t *testing.T, v visit) (cid uint64, id pairID) {
	t.Helper()
	hello, arch := parseFrames(t, v.c2s)[0], parseFrames(t, v.s2c)[0]
	if hello.typ != transport.MsgHello || arch.typ != transport.MsgArch || len(arch.payload) < archHeader {
		t.Fatalf("session opens with %v / %v (%d bytes)", hello.typ, arch.typ, len(arch.payload))
	}
	cid, _, err := parseHello(hello.payload)
	if err != nil {
		t.Fatal(err)
	}
	return cid, pairID(arch.payload[digestSize:])
}

// wantVisit checks a visit that must have worked: the plaintext label, no
// error on either side, and the resumption counters of both ledgers — and
// that a resumed session ran no OT while any other ran the set-up's W.
func wantVisit(t *testing.T, what string, v visit, net *nn.Network, x []float64, resumed, missed int64) {
	t.Helper()
	if v.err != nil || v.srvErr != nil {
		t.Fatalf("%s: client %v, server %v", what, v.err, v.srvErr)
	}
	if want := net.PredictFixed(fixed.Default, x); v.label != want {
		t.Errorf("%s: label %d, want %d", what, v.label, want)
	}
	ots := int64(0)
	if resumed == 0 {
		ots = int64(len(nn.WeightBits(net, fixed.Default)))
	}
	for side, st := range map[string]*Stats{"client": v.cli, "server": v.srv} {
		if st.SessionsResumed != resumed || st.ResumeMisses != missed || st.OTsConsumed != ots {
			t.Errorf("%s: %s counted %d resumed, %d missed, %d OTs; want %d, %d, %d", what, side, st.SessionsResumed, st.ResumeMisses, st.OTsConsumed, resumed, missed, ots)
		}
	}
}

// TestRepeatSessionSkipsBasePhase pins the set-up conversation beside
// TestOneFlightWireShape's inferences. A client's first session with a
// server runs the whole set-up: hello and the 128 B points; arch, pipeline,
// the base OT's A and the set-up OT's U; then the client's set-up answer y,
// in the same flight as the first burst. A repeat session
// exchanges no OT frame in either direction — no base phase, no U, no y —
// and its set-up is the hello and the server's arch and pipeline, which the
// first burst follows. It moves the fresh session's bytes less the base
// phase and the set-up OT, and one id more in its hello.
func TestRepeatSessionSkipsBasePhase(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 51)
	srv, cli := &Server{Net: net, Fmt: fixed.Default}, &Client{}
	defer cli.Close()
	xs := randSamples(52, 3)
	spec, err := net.Spec(fixed.Default).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w := len(nn.WeightBits(net, fixed.Default))

	setup := func(v visit) (c2s, s2c []transport.MsgType) {
		c2s, s2c = frameTypes(parseFrames(t, v.c2s)), frameTypes(parseFrames(t, v.s2c))
		return c2s[:slices.Index(c2s, transport.MsgInferBegin)], s2c[:slices.Index(s2c, transport.MsgOutputLabels)]
	}
	const (
		hello, arch, pipeline = transport.MsgHello, transport.MsgArch, transport.MsgPipeline
		base, u, y            = transport.MsgOTBase, transport.MsgOTExtU, transport.MsgOTExtY
	)

	fresh := runVisit(srv, cli, xs[0])
	wantVisit(t, "first session", fresh, net, xs[0], 0, 0)
	c2s, s2c := setup(fresh)
	if !slices.Equal(c2s, []transport.MsgType{hello, base, y}) || !slices.Equal(s2c, []transport.MsgType{arch, pipeline, base, u}) {
		t.Errorf("fresh set-up: client sent %v, server %v", c2s, s2c)
	}
	if fresh.dirs != "wrwrw" { // hello and Bs, arch…A and U, y and burst, outputs, end
		t.Errorf("fresh session moved bytes %q, want \"wrwrw\"", fresh.dirs)
	}
	frames := parseFrames(t, fresh.c2s)
	if got, want := len(frames[0].payload), len(protocolHello)+1+8; got != want {
		t.Errorf("a client with no pair sent a hello of %d bytes, want %d", got, want)
	}
	if got, want := len(parseFrames(t, fresh.s2c)[0].payload), digestSize+16+len(spec); got != want {
		t.Errorf("architecture frame of %d bytes, want %d", got, want)
	}

	_, id0 := pairOf(t, fresh)
	for i := 1; i <= 2; i++ {
		again := runVisit(srv, cli, xs[i])
		wantVisit(t, "repeat session", again, net, xs[i], 1, 0)
		c2s, s2c = setup(again)
		if !slices.Equal(c2s, []transport.MsgType{hello}) || !slices.Equal(s2c, []transport.MsgType{arch, pipeline}) {
			t.Errorf("repeat set-up %d: client sent %v, server %v", i, c2s, s2c)
		}
		if again.dirs != "wrwrw" { // hello, arch and pipeline, burst, outputs, end
			t.Errorf("repeat session %d moved bytes %q, want \"wrwrw\"", i, again.dirs)
		}
		for dir, raw := range map[string][]byte{"client": again.c2s, "server": again.s2c} {
			for _, typ := range frameTypes(parseFrames(t, raw)) {
				if typ == base || typ == u || typ == y {
					t.Errorf("repeat session %d: the %s sent an %v frame", i, dir, typ)
				}
			}
		}
		if got, want := len(parseFrames(t, again.c2s)[0].payload), len(protocolHello)+1+8+16; got != want {
			t.Errorf("a client with one pair sent a hello of %d bytes, want %d", got, want)
		}
		if cid, id := pairOf(t, again); cid != uint64(i+1) || id != id0 {
			t.Errorf("repeat session %d is client session %d on pair %x; want %d on %x", i, cid, id, i+1, id0)
		}
		// What the skipped set-up carried: 128 B points and A, then U and y.
		const basePhase = 5 + 128*65 + 5 + 65
		setupOT := 5 + ot.ExtULen(w) + 5 + 2*w*ot.MsgLen
		if saved := len(fresh.c2s) + len(fresh.s2c) - len(again.c2s) - len(again.s2c); saved != basePhase+setupOT-16 {
			t.Errorf("repeat session %d moved %d bytes fewer than the fresh one, want the base phase's %d and the set-up OT's %d less one id", i, saved, basePhase, setupOT)
		}
	}
	if len(cli.pairs) != 1 || srv.pairs.order.Len() != 1 {
		t.Errorf("after three sessions the client holds %d pairs and the server %d, want one each", len(cli.pairs), srv.pairs.order.Len())
	}

	// Close wipes what the client carried: the next session is fresh again,
	// under a new id, and offers none.
	held := cli.pairs[0]
	cli.Close()
	if held.delta != (gc.Label{}) || slices.ContainsFunc(held.weights, func(l gc.Label) bool { return l != gc.Label{} }) || len(cli.pairs) != 0 {
		t.Error("Close left the pair's delta or weight labels behind")
	}
	after := runVisit(srv, cli, xs[0])
	wantVisit(t, "session after Close", after, net, xs[0], 0, 0)
	if _, id := pairOf(t, after); id == id0 {
		t.Error("the session after Close ran on the closed pair's id")
	}
	checkLeaks()
}

// TestFirstSetupFlights counts the one-way flights a session's set-up takes
// before the client's first burst, as the changes of direction on the
// client's wire ahead of it. A pair's first contact takes one round trip,
// as a repeat session does: its base-phase frame rides the hello, and the
// server's A and U ride the architecture. A resume miss takes two, for its
// base phase opens only once the server's answer shows the miss.
func TestFirstSetupFlights(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	a, b := &Server{Net: net, Fmt: fixed.Default}, &Server{Net: net, Fmt: fixed.Default}
	cli := &Client{}
	defer cli.Close()
	xs := randSamples(62, 3)
	for i, tc := range []struct {
		what            string
		srv             *Server
		turns           int
		resumed, missed int64
	}{
		{"first contact", a, 2, 0, 0},
		{"repeat session", a, 2, 1, 0},
		{"resume miss", b, 4, 0, 1},
	} {
		v := runVisit(tc.srv, cli, xs[i])
		wantVisit(t, tc.what, v, net, xs[i], tc.resumed, tc.missed)
		if v.turns != tc.turns {
			t.Errorf("%s: the wire turned %d times before the first burst (%q), want %d", tc.what, v.turns, v.dirs, tc.turns)
		}
	}
}

// TestResumeMissFallsBack: an id the server does not hold — the same
// Client against a new Server, or against one that evicted the pair — costs
// the set-up OT and nothing else, and a Client that alternates between two
// servers resumes on both, whichever it saw last.
func TestResumeMissFallsBack(t *testing.T) {
	net := testNet(t, act.ReLU, 53)
	a, b := &Server{Net: net, Fmt: fixed.Default}, &Server{Net: net, Fmt: fixed.Default}
	cli := &Client{}
	defer cli.Close()
	xs := randSamples(54, 8)
	wantVisit(t, "A, first", runVisit(a, cli, xs[0]), net, xs[0], 0, 0)
	miss := runVisit(b, cli, xs[1])
	wantVisit(t, "B, first: offered A's id", miss, net, xs[1], 0, 1)
	if !slices.Contains(frameTypes(parseFrames(t, miss.s2c)), transport.MsgOTBase) {
		t.Error("a missed offer ran no base phase")
	}
	for i, srv := range []*Server{a, b, b, a} {
		wantVisit(t, fmt.Sprintf("alternating visit %d", i), runVisit(srv, cli, xs[2+i]), net, xs[2+i], 1, 0)
	}
	if len(cli.pairs) != 2 {
		t.Errorf("the client holds %d pairs for two servers", len(cli.pairs))
	}

	// A fills its store with other pairs' labels, 1 MiB each, and so evicts
	// this client's: its next session is a first one again.
	filler := make([]gc.Label, 1<<16)
	for i := range maxServerBytes >> 20 {
		a.pairs.put(pairID{0xff, byte(i)}, filler)
	}
	wantVisit(t, "A, after eviction", runVisit(a, cli, xs[6]), net, xs[6], 0, 1)
	wantVisit(t, "A, after the new set-up", runVisit(a, cli, xs[7]), net, xs[7], 1, 0)
}

// TestConcurrentSessionsShareOneBase: a pair's set-up is not consumed by
// use. Eight sessions of one Client, open at the same time, all resume on
// the pair an earlier session filed, all classify, and no two of them share
// a client counter — so no two number their samples alike. (Run under
// -race in CI.)
func TestConcurrentSessionsShareOneBase(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 55)
	srv, cli := &Server{Net: net, Fmt: fixed.Default}, &Client{}
	defer cli.Close()
	xs := randSamples(56, 9)
	wantVisit(t, "first session", runVisit(srv, cli, xs[8]), net, xs[8], 0, 0)
	visits := make([]visit, 8)
	var wg sync.WaitGroup
	for i := range visits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visits[i] = runVisit(srv, cli, xs[i])
		}()
	}
	wg.Wait()
	cids := map[uint64]bool{}
	for i, v := range visits {
		wantVisit(t, fmt.Sprintf("concurrent session %d", i), v, net, xs[i], 1, 0)
		cid, _ := pairOf(t, v)
		cids[cid] = true
	}
	if len(cids) != 8 || cids[1] {
		t.Errorf("8 concurrent sessions drew client counters %v, want 8 distinct, none the first session's", cids)
	}
	if len(cli.pairs) != 1 {
		t.Errorf("the client holds %d pairs after resuming 8 times on one", len(cli.pairs))
	}
	checkLeaks()
}

// TestConcurrentFirstSessionsBothFresh: two sessions that a new Client opens
// at once find no pair filed — each side files only once the set-up OT is
// done — so both run the whole set-up, each under an id of its own, and
// both classify. The Client then holds both pairs.
func TestConcurrentFirstSessionsBothFresh(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	srv, cli := &Server{Net: net, Fmt: fixed.Default}, &Client{}
	defer cli.Close()
	xs := randSamples(62, 2)
	// Neither client reads the server's answer before both have sent their
	// hellos, so that neither offers what the other files.
	var hellos sync.WaitGroup
	hellos.Add(2)
	visits := make([]visit, 2)
	var wg sync.WaitGroup
	for i := range visits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visits[i] = runGatedVisit(srv, cli, xs[i], func() { hellos.Done(); hellos.Wait() })
		}()
	}
	wg.Wait()
	for i, v := range visits {
		wantVisit(t, fmt.Sprintf("first session %d", i), v, net, xs[i], 0, 0)
	}
	_, a := pairOf(t, visits[0])
	if _, b := pairOf(t, visits[1]); a == b {
		t.Error("two fresh sessions ran on one id")
	}
	if len(cli.pairs) != 2 || srv.pairs.order.Len() != 2 {
		t.Errorf("the client holds %d pairs and the server %d, want two each", len(cli.pairs), srv.pairs.order.Len())
	}
}

// TestCopiedBaseIDBuysNothing: an id is a name, not a key. A second Client
// that presents an id copied off the wire — here with a pair of its own
// filed under it, the most it could have — is taken for a repeat visitor,
// and the server evaluates its garbling on the owner's weight labels, which
// the thief's delta and zero-labels do not match: every output fails
// authentication, it learns no label, and it drops the pair it presented.
// The owner's next session resumes as if nothing had happened, and nothing
// is left running.
func TestCopiedBaseIDBuysNothing(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 58)
	srv, owner := &Server{Net: net, Fmt: fixed.Default}, &Client{}
	defer owner.Close()
	xs := randSamples(59, 4)
	first := runVisit(srv, owner, xs[0])
	wantVisit(t, "owner, first", first, net, xs[0], 0, 0)
	_, id := pairOf(t, first)

	thief := &Client{}
	defer thief.Close()
	wantVisit(t, "thief with a server of its own", runVisit(&Server{Net: net, Fmt: fixed.Default}, thief, xs[1]), net, xs[1], 0, 0)
	thief.pairs[0].id = id
	stolen := runVisit(srv, thief, xs[2])
	if stolen.err == nil || !strings.Contains(stolen.err.Error(), "failed authentication") {
		t.Errorf("a session on a copied id returned label %d, %v; want a label-authentication failure", stolen.label, stolen.err)
	}
	if stolen.srv.SessionsResumed != 1 || stolen.srv.OTsConsumed != 0 {
		t.Errorf("the server did not take the copied id for a repeat visit: %+v", stolen.srv)
	}
	if len(thief.pairs) != 0 {
		t.Errorf("the thief still holds %d pairs after its outputs failed authentication", len(thief.pairs))
	}
	wantVisit(t, "owner, after the theft", runVisit(srv, owner, xs[3]), net, xs[3], 1, 0)
	checkLeaks()
}

// TestBaseStoresAreBounded: the server's store never holds more than
// maxServerBytes of labels, counted by what each pair's take, under twice
// as many pairs as fit, evicts the least recently used first, and files no
// pair larger than the whole budget; the client's is capped at
// maxClientPairs, wipes what it drops and hands out copies.
func TestBaseStoresAreBounded(t *testing.T) {
	var store serverPairs
	shared := make([]gc.Label, 1<<12) // the store does not look inside
	size := serverPair{labels: shared}.size()
	fit := maxServerBytes / size
	idOf := func(i int) (id pairID) {
		binary.BigEndian.PutUint64(id[:], uint64(i)+1)
		return id
	}
	for i := 0; i < 2*fit; i++ {
		store.put(idOf(i), shared)
		if i == fit-1 {
			// Client 0 comes back just before the store overflows.
			if id, l := store.first([]pairID{idOf(-1), idOf(0)}); l == nil || id != idOf(0) {
				t.Fatal("the full store does not hold its first pair")
			}
		}
		if n := store.order.Len(); store.bytes > maxServerBytes || n != len(store.byID) || store.bytes != n*size || n != min(i+1, fit) {
			t.Fatalf("after %d clients the store holds %d pairs (%d indexed) in %d bytes, budget %d", i+1, n, len(store.byID), store.bytes, maxServerBytes)
		}
	}
	held := func(i int) bool { _, l := store.first([]pairID{idOf(i)}); return l != nil }
	if !held(2*fit-1) || !held(fit+1) || held(1) || held(fit-1) {
		t.Error("eviction is not oldest-first")
	}
	// Used at client fit-1, client 0 outlived the fit-1 that came after it
	// and went with the next.
	if held(0) {
		t.Error("a pair used once outlived a full turnover of the store")
	}
	// A pair of four entries' size evicts the four least recently used:
	// fit+1 was used since fit+2, fit+3 and fit+4 came in.
	before := store.order.Len()
	store.put(idOf(-2), make([]gc.Label, 4*len(shared)+3))
	if n := store.order.Len(); n != before-4+1 || !held(-2) || held(fit) || held(fit+4) || !held(fit+1) || !held(fit+5) {
		t.Errorf("a pair four entries wide left %d of %d pairs", n, before)
	}
	// A pair larger than the budget is not filed and evicts nothing.
	before = store.order.Len()
	store.put(idOf(-3), make([]gc.Label, maxServerBytes/gc.LabelSize))
	if held(-3) || store.order.Len() != before {
		t.Error("a pair larger than the budget was filed")
	}

	cli := &Client{}
	var pairs []*clientPair
	for i := 0; i < maxClientPairs+3; i++ {
		// A pair with something in it to wipe.
		e := &clientPair{id: idOf(i), delta: gc.Label{1}, weights: []gc.Label{{2}, {3}}}
		pairs = append(pairs, e)
		cli.filePair(e)
	}
	if ids := cli.pairIDs(); len(ids) != maxClientPairs || ids[0] != idOf(maxClientPairs+2) || ids[maxClientPairs-1] != idOf(3) {
		t.Errorf("client holds %d pairs, newest %x, oldest %x", len(ids), ids[0], ids[len(ids)-1])
	}
	for i, e := range pairs {
		if wiped := e.delta == (gc.Label{}) && e.weights[0] == (gc.Label{}) && e.weights[1] == (gc.Label{}); wiped != (i < 3) {
			t.Errorf("pair %d wiped: %v", i, wiped)
		}
	}
	if _, _, ok := cli.resume(idOf(0)); ok {
		t.Error("resume found a pair the client dropped")
	}
	delta, weights, ok := cli.resume(idOf(5))
	if !ok || delta != (gc.Label{1}) || !slices.Equal(weights, []gc.Label{{2}, {3}}) || cli.pairIDs()[0] != idOf(5) {
		t.Error("resume does not find, or does not promote, what the client holds")
	}
	weights[0] = gc.Label{}
	if pairs[5].weights[0] != (gc.Label{2}) {
		t.Error("resume handed out the store's own weight labels")
	}
}

// TestSessionRefusesItsLastOrdinals: a session owns 2³² sample ordinals.
// A client refuses, before sending anything, a batch that would number past
// them and goes on; a server refuses such a begin frame.
func TestSessionRefusesItsLastOrdinals(t *testing.T) {
	net := testNet(t, act.ReLU, 63)
	srv, cli := &Server{Net: net, Fmt: fixed.Default}, &Client{}
	defer cli.Close()
	xs := randSamples(64, 2)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	served := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		served <- err
	}()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.next != 0 || sess.end != sessionOrdinals {
		t.Fatalf("a Client's first session numbers [%d, %d)", sess.next, sess.end)
	}
	next := sess.next
	sess.next = sess.end - 1
	if _, _, err := sess.InferBatch(xs); err == nil || !strings.Contains(err.Error(), "numbered all its") {
		t.Errorf("a batch past the session's ordinals: %v", err)
	}
	sess.next = next
	if label, _, err := sess.Infer(xs[0]); err != nil || label != net.PredictFixed(fixed.Default, xs[0]) {
		t.Errorf("after the refusal: label %d, %v", label, err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	m := &sessionMux{cfg: EngineConfig{}, next: 5*sessionOrdinals - 1, end: 5 * sessionOrdinals}
	if _, err := m.admit(binary.AppendUvarint(nil, 2)); err == nil || !strings.Contains(err.Error(), "past the session's") {
		t.Errorf("a begin past the session's ordinals: %v", err)
	}
	if inf, err := m.admit(binary.AppendUvarint(nil, 1)); err != nil || inf.first != 5*sessionOrdinals-1 {
		t.Errorf("the session's last sample: %v", err)
	}
}

// TestShedReadsTheBaseFrame: Shed answers a fresh client only once it has
// read the base-phase frame behind the hello, so that the close after the
// answer leaves nothing unread to reset the connection with, and a client
// that offers a pair, which sends nothing behind its hello, is answered
// without a wait. Either way the client sees a *BusyError.
func TestShedReadsTheBaseFrame(t *testing.T) {
	net := testNet(t, act.ReLU, 63)
	cli := &Client{}
	defer cli.Close()
	x := randSamples(64, 1)[0]
	wantVisit(t, "first session", runVisit(&Server{Net: net, Fmt: fixed.Default}, cli, x), net, x, 0, 0)
	for _, c := range []*Client{{}, cli} {
		c2s, s2c := newLogHalf(), newLogHalf()
		shed := make(chan error, 1)
		go func() { shed <- Shed(transport.New(logDuplex{r: c2s, w: s2c}), 250*time.Millisecond) }()
		_, err := c.NewSession(transport.New(logDuplex{r: s2c, w: c2s}))
		var be *BusyError
		if !errors.As(err, &be) || be.RetryAfter != 250*time.Millisecond {
			t.Fatalf("offering %d pairs: %v, want a *BusyError of 250ms", len(c.pairIDs()), err)
		}
		if err := <-shed; err != nil {
			t.Fatal(err)
		}
		c2s.mu.Lock()
		unread := len(c2s.buf)
		c2s.mu.Unlock()
		if unread != 0 {
			t.Errorf("offering %d pairs: the shed left %d bytes unread", len(c.pairIDs()), unread)
		}
	}
}

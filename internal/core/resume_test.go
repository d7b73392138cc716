package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
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
	c2s, s2c []byte
}

func runVisit(srv *Server, cli *Client, x []float64) (v visit) {
	c2sHalf, s2cHalf := newLogHalf(), newLogHalf()
	wire := &dirLog{ReadWriter: logDuplex{r: s2cHalf, w: c2sHalf}}
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
	v.dirs, v.c2s, v.s2c = wire.take(), c2sHalf.bytesWritten(), s2cHalf.bytesWritten()
	return v
}

func frameTypes(frames []wireFrame) []transport.MsgType {
	out := make([]transport.MsgType, len(frames))
	for i, f := range frames {
		out[i] = f.typ
	}
	return out
}

// nonceOf reads the session's OT nonce halves off its recorded hello and
// architecture frames.
func nonceOf(t *testing.T, v visit) (cid, sid uint64, id baseID) {
	t.Helper()
	hello, arch := parseFrames(t, v.c2s)[0], parseFrames(t, v.s2c)[0]
	if hello.typ != transport.MsgHello || arch.typ != transport.MsgArch || len(arch.payload) < archHeader {
		t.Fatalf("session opens with %v / %v (%d bytes)", hello.typ, arch.typ, len(arch.payload))
	}
	cid, _, err := parseHello(hello.payload)
	if err != nil {
		t.Fatal(err)
	}
	return cid, binary.BigEndian.Uint64(arch.payload[archHeader-8:]), baseID(arch.payload[digestSize:])
}

// wantVisit checks a visit that must have worked: the plaintext label, no
// error on either side, and the resumption counters of both ledgers.
func wantVisit(t *testing.T, what string, v visit, net *nn.Network, x []float64, resumed, missed int64) {
	t.Helper()
	if v.err != nil || v.srvErr != nil {
		t.Fatalf("%s: client %v, server %v", what, v.err, v.srvErr)
	}
	if want := net.PredictFixed(fixed.Default, x); v.label != want {
		t.Errorf("%s: label %d, want %d", what, v.label, want)
	}
	for side, st := range map[string]*Stats{"client": v.cli, "server": v.srv} {
		if st.SessionsResumed != resumed || st.ResumeMisses != missed {
			t.Errorf("%s: %s counted %d resumed, %d missed; want %d, %d", what, side, st.SessionsResumed, st.ResumeMisses, resumed, missed)
		}
	}
}

// TestRepeatSessionSkipsBasePhase pins the set-up conversation beside
// TestOneFlightWireShape's inferences. A client's first session with a
// server is the conversation it always was, the hello and the architecture
// frame longer by their new fields: hello; arch, pipeline and the base OT's
// A; the 128 B points; the ciphertexts and the set-up OT's U; then the
// client's set-up answer y, in the same flight as the first burst. A repeat
// session exchanges no base-OT frame in either direction — BaseSend opens
// by sending one and BaseReceive by waiting for one, so neither is entered
// and no P-256 operation runs — and its set-up is the hello and ONE server
// flight (arch, pipeline, U), which y and the first burst follow.
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
	if !slices.Equal(c2s, []transport.MsgType{hello, base, y}) || !slices.Equal(s2c, []transport.MsgType{arch, pipeline, base, base, u}) {
		t.Errorf("fresh set-up: client sent %v, server %v", c2s, s2c)
	}
	if fresh.dirs != "wrwrwrw" { // hello, A, Bs, ciphertexts…U, y and burst, outputs, end
		t.Errorf("fresh session moved bytes %q, want \"wrwrwrw\"", fresh.dirs)
	}
	frames := parseFrames(t, fresh.c2s)
	if got, want := len(frames[0].payload), len(protocolHello)+1+8; got != want {
		t.Errorf("a client with no base sent a hello of %d bytes, want %d", got, want)
	}
	if got, want := len(parseFrames(t, fresh.s2c)[0].payload), digestSize+16+8+len(spec); got != want {
		t.Errorf("architecture frame of %d bytes, want %d", got, want)
	}

	for i := 1; i <= 2; i++ {
		again := runVisit(srv, cli, xs[i])
		wantVisit(t, "repeat session", again, net, xs[i], 1, 0)
		c2s, s2c = setup(again)
		if !slices.Equal(c2s, []transport.MsgType{hello, y}) || !slices.Equal(s2c, []transport.MsgType{arch, pipeline, u}) {
			t.Errorf("repeat set-up %d: client sent %v, server %v", i, c2s, s2c)
		}
		if again.dirs != "wrwrw" { // hello, the server's one flight, y and burst, outputs, end
			t.Errorf("repeat session %d moved bytes %q, want \"wrwrw\"", i, again.dirs)
		}
		for dir, raw := range map[string][]byte{"client": again.c2s, "server": again.s2c} {
			if slices.Contains(frameTypes(parseFrames(t, raw)), base) {
				t.Errorf("repeat session %d: the %s sent an ot-base frame", i, dir)
			}
		}
		if got, want := len(parseFrames(t, again.c2s)[0].payload), len(protocolHello)+1+8+16; got != want {
			t.Errorf("a client with one base sent a hello of %d bytes, want %d", got, want)
		}
		_, _, id0 := nonceOf(t, fresh)
		if cid, sid, id := nonceOf(t, again); cid != uint64(i+1) || sid != uint64(i+1) || id != id0 {
			t.Errorf("repeat session %d is client session %d, server session %d on base %x; want %d, %d on %x", i, cid, sid, id, i+1, i+1, id0)
		}
		// What the skipped phase carried: A, 128 B points, 128 ciphertext pairs.
		const basePhase = 5 + 65 + 5 + 128*65 + 5 + 128*32
		if saved := len(fresh.c2s) + len(fresh.s2c) - len(again.c2s) - len(again.s2c); saved != basePhase-16 {
			t.Errorf("repeat session %d moved %d bytes fewer than the fresh one, want the base phase's %d less one id", i, saved, basePhase)
		}
	}
	if len(cli.bases) != 1 || srv.bases.order.Len() != 1 {
		t.Errorf("after three sessions the client holds %d bases and the server %d, want one each", len(cli.bases), srv.bases.order.Len())
	}

	// Close wipes what the client carried: the next session is fresh again,
	// under a new id, and offers none.
	held := cli.bases[0].base
	cli.Close()
	if *held != (ot.SenderBase{}) || len(cli.bases) != 0 {
		t.Error("Close left base seeds behind")
	}
	wantVisit(t, "session after Close", runVisit(srv, cli, xs[0]), net, xs[0], 0, 0)
	checkLeaks()
}

// TestResumeMissFallsBack: an id the server does not know — the same Client
// against a new Server — costs a base phase and nothing else, and a Client
// that alternates between two servers resumes on both, whichever it saw last.
func TestResumeMissFallsBack(t *testing.T) {
	net := testNet(t, act.ReLU, 53)
	a, b := &Server{Net: net, Fmt: fixed.Default}, &Server{Net: net, Fmt: fixed.Default}
	cli := &Client{}
	defer cli.Close()
	xs := randSamples(54, 6)
	wantVisit(t, "A, first", runVisit(a, cli, xs[0]), net, xs[0], 0, 0)
	miss := runVisit(b, cli, xs[1])
	wantVisit(t, "B, first: offered A's id", miss, net, xs[1], 0, 1)
	if !slices.Contains(frameTypes(parseFrames(t, miss.s2c)), transport.MsgOTBase) {
		t.Error("a missed offer ran no base phase")
	}
	for i, srv := range []*Server{a, b, b, a} {
		wantVisit(t, fmt.Sprintf("alternating visit %d", i), runVisit(srv, cli, xs[2+i]), net, xs[2+i], 1, 0)
	}
	if len(cli.bases) != 2 {
		t.Errorf("the client holds %d bases for two servers", len(cli.bases))
	}
}

// TestConcurrentSessionsShareOneBase: the base is not consumed by use. Eight
// sessions of one Client, open at the same time, all resume on the one base
// an earlier session filed, all classify, and no two of them share a client
// counter or a server counter — so no two share an OT nonce. (Run under -race
// in CI.)
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
	cids, sids := map[uint64]bool{}, map[uint64]bool{}
	for i, v := range visits {
		wantVisit(t, fmt.Sprintf("concurrent session %d", i), v, net, xs[i], 1, 0)
		cid, sid, _ := nonceOf(t, v)
		cids[cid], sids[sid] = true, true
	}
	if len(cids) != 8 || len(sids) != 8 || cids[1] || sids[1] {
		t.Errorf("8 concurrent sessions drew client counters %v and server counters %v, want 8 distinct of each, none the first session's", cids, sids)
	}
	if len(cli.bases) != 1 {
		t.Errorf("the client holds %d bases after resuming 8 times on one", len(cli.bases))
	}
	checkLeaks()
}

// TestReplayedCounterStillGetsFreshNonce: each party's half of the nonce is
// its own. A client that says the same session number twice is given two
// server numbers; and a Client numbers its sessions before it reads a byte,
// so nothing a server replays reaches its half (the eight concurrent
// sessions above drew eight). ot's TestUMatrixMasksNotReusedAcrossBatches
// shows that either half differing alone separates the keystreams.
func TestReplayedCounterStillGetsFreshNonce(t *testing.T) {
	net := testNet(t, act.ReLU, 57)
	srv := &Server{Net: net, Fmt: fixed.Default}
	var sids []uint64
	for range 2 {
		cConn, sConn, closer := transport.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeSession(sConn) //nolint:errcheck — ends when the pipe closes under it
		}()
		if err := cConn.Send(transport.MsgHello, helloFrame(7, nil)); err != nil {
			t.Fatal(err)
		}
		arch, err := cConn.Recv(transport.MsgArch)
		if err != nil || len(arch) < archHeader {
			t.Fatalf("architecture frame: %d bytes, %v", len(arch), err)
		}
		sids = append(sids, binary.BigEndian.Uint64(arch[archHeader-8:]))
		closer.Close()
		<-done
	}
	if sids[0] == sids[1] {
		t.Errorf("a replayed client counter was answered with server counter %d twice", sids[0])
	}
}

// TestCopiedBaseIDBuysNothing: an id is a name, not a key. A second Client
// that presents an id copied off the wire — here with another pair's
// correlation filed under it, the most it could have — is taken for a repeat
// visitor, and gets a session keyed to seeds it does not hold: the labels it
// receives through the pool are noise, every output fails authentication,
// and it learns no label. The owner's next session resumes as if nothing had
// happened, and nothing is left running.
func TestCopiedBaseIDBuysNothing(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	net := testNet(t, act.ReLU, 58)
	srv, owner := &Server{Net: net, Fmt: fixed.Default}, &Client{}
	defer owner.Close()
	xs := randSamples(59, 4)
	first := runVisit(srv, owner, xs[0])
	wantVisit(t, "owner, first", first, net, xs[0], 0, 0)
	_, _, id := nonceOf(t, first)

	thief := &Client{}
	defer thief.Close()
	wantVisit(t, "thief with a server of its own", runVisit(&Server{Net: net, Fmt: fixed.Default}, thief, xs[1]), net, xs[1], 0, 0)
	thief.bases[0].id = id
	stolen := runVisit(srv, thief, xs[2])
	if stolen.err == nil || !strings.Contains(stolen.err.Error(), "failed authentication") {
		t.Errorf("a session on a copied id returned label %d, %v; want a label-authentication failure", stolen.label, stolen.err)
	}
	if stolen.srv.SessionsResumed != 1 {
		t.Errorf("the server did not take the copied id for a repeat visit: %+v", stolen.srv)
	}
	wantVisit(t, "owner, after the theft", runVisit(srv, owner, xs[3]), net, xs[3], 1, 0)
	checkLeaks()
}

// TestBaseStoresAreBounded: the server's store never exceeds its cap under
// twice as many distinct clients and evicts the least recently used; the
// client's is capped at maxClientBases the same way and wipes what it
// drops.
func TestBaseStoresAreBounded(t *testing.T) {
	var store receiverBases
	shared := new(ot.ReceiverBase) // the store does not look inside
	idOf := func(i int) (id baseID) {
		binary.BigEndian.PutUint64(id[:], uint64(i)+1)
		return id
	}
	for i := 0; i < 2*maxServerBases; i++ {
		store.put(idOf(i), shared)
		if i == maxServerBases-1 {
			// Client 0 comes back just before the store overflows.
			if id, b := store.first([]baseID{idOf(-1), idOf(0)}); b == nil || id != idOf(0) {
				t.Fatal("the full store does not hold its first base")
			}
		}
		if n := store.order.Len(); n > maxServerBases || n != len(store.byID) {
			t.Fatalf("after %d clients the store holds %d bases (%d indexed), cap %d", i+1, n, len(store.byID), maxServerBases)
		}
	}
	held := func(i int) bool { _, b := store.first([]baseID{idOf(i)}); return b != nil }
	if !held(2*maxServerBases-1) || !held(maxServerBases+1) || held(1) || held(maxServerBases-1) {
		t.Error("eviction is not oldest-first")
	}
	// Used at client maxServerBases-1, client 0 outlived the maxServerBases-1
	// that came after it and went with the next.
	if held(0) {
		t.Error("a base used once outlived a full turnover of the store")
	}
	var probe receiverBases
	for i := 0; i <= maxServerBases; i++ {
		probe.put(idOf(i), shared)
		probe.first([]baseID{idOf(0)})
	}
	if _, b := probe.first([]baseID{idOf(0)}); b == nil {
		t.Error("the most recently used base was evicted")
	}
	if _, b := probe.first([]baseID{idOf(1)}); b != nil {
		t.Error("the least recently used base survived an overflow")
	}

	cli := &Client{}
	var bases []*ot.SenderBase
	for i := 0; i < maxClientBases+3; i++ {
		// A base with something in it to wipe.
		sb, _ := testBasePair(t, int64(60+i))
		bases = append(bases, sb)
		cli.fileBase(idOf(i), sb)
	}
	if ids := cli.baseIDs(); len(ids) != maxClientBases || ids[0] != idOf(maxClientBases+2) || ids[maxClientBases-1] != idOf(3) {
		t.Errorf("client holds %d bases, newest %x, oldest %x", len(ids), ids[0], ids[len(ids)-1])
	}
	for i, sb := range bases {
		if wiped := *sb == (ot.SenderBase{}); wiped != (i < 3) {
			t.Errorf("base %d wiped: %v", i, wiped)
		}
	}
	if cli.resume(idOf(0), nil, ot.Nonce{}) != nil || cli.resume(idOf(5), nil, ot.Nonce{}) == nil || cli.baseIDs()[0] != idOf(5) {
		t.Error("resume does not find, or does not promote, what the client holds")
	}
}

// testBasePair runs one base phase over a pipe.
func testBasePair(t *testing.T, seed int64) (*ot.SenderBase, *ot.ReceiverBase) {
	t.Helper()
	a, b, closer := transport.Pipe()
	defer closer.Close()
	type res struct {
		b   *ot.SenderBase
		err error
	}
	done := make(chan res, 1)
	go func() {
		sb, err := ot.NewSenderBase(a, rand.New(rand.NewSource(seed)))
		done <- res{sb, err}
	}()
	rb, err := ot.NewReceiverBase(b, rand.New(rand.NewSource(seed+1000)))
	s := <-done
	if err = errors.Join(err, s.err); err != nil {
		t.Fatal(err)
	}
	return s.b, rb
}

package ot

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/transport"
)

func randPairs(rng *rand.Rand, n int) [][2]Msg {
	pairs := make([][2]Msg, n)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
	}
	return pairs
}

func randChoices(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func TestBaseOT(t *testing.T) {
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(1))
	pairs := randPairs(rng, 16)
	choices := randChoices(rng, 16)

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = BaseSend(a, rand.New(rand.NewSource(2)), pairs)
	}()
	got, err := BaseReceive(b, rand.New(rand.NewSource(3)), choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Errorf("base OT %d: got wrong message for choice %v", i, c)
		}
		other := pairs[i][1]
		if c {
			other = pairs[i][0]
		}
		if got[i] == other && other != want {
			t.Errorf("base OT %d: received the unchosen message", i)
		}
	}
}

func runExtension(t *testing.T, nOTs int, seedS, seedR int64) ([][2]Msg, []bool, []Msg) {
	t.Helper()
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(77))
	pairs := randPairs(rng, nOTs)
	choices := randChoices(rng, nOTs)

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(seedS)))
		if err != nil {
			sendErr = err
			return
		}
		sendErr = s.Send(pairs)
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(seedR)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Receive(choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return pairs, choices, got
}

func TestExtensionSmall(t *testing.T) {
	pairs, choices, got := runExtension(t, 10, 4, 5)
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Errorf("ext OT %d wrong", i)
		}
	}
}

func TestExtensionLargeAndUnaligned(t *testing.T) {
	// Not a multiple of 8: exercises bit packing edges.
	for _, n := range []int{1, 7, 129, 1000, 4097} {
		pairs, choices, got := runExtension(t, n, int64(n), int64(n)+1)
		bad := 0
		for i, c := range choices {
			want := pairs[i][0]
			if c {
				want = pairs[i][1]
			}
			if got[i] != want {
				bad++
			}
		}
		if bad != 0 {
			t.Errorf("n=%d: %d wrong transfers", n, bad)
		}
	}
}

func TestExtensionMultipleBatches(t *testing.T) {
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(9))
	batches := [][2]interface{}{}
	_ = batches

	var wg sync.WaitGroup
	var sendErr error
	pairsA := randPairs(rng, 100)
	pairsB := randPairs(rng, 33)
	choicesA := randChoices(rng, 100)
	choicesB := randChoices(rng, 33)

	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(10)))
		if err != nil {
			sendErr = err
			return
		}
		if err := s.Send(pairsA); err != nil {
			sendErr = err
			return
		}
		sendErr = s.Send(pairsB)
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := r.Receive(choicesA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := r.Receive(choicesB)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	check := func(pairs [][2]Msg, choices []bool, got []Msg) {
		for i, c := range choices {
			want := pairs[i][0]
			if c {
				want = pairs[i][1]
			}
			if got[i] != want {
				t.Errorf("batch OT %d wrong", i)
			}
		}
	}
	check(pairsA, choicesA, gotA)
	check(pairsB, choicesB, gotB)
}

func TestExtensionEmptyBatch(t *testing.T) {
	// An empty choice vector must be a no-op on both sides — no frames,
	// no stream advance — and must not desynchronize later batches on
	// the same extension stream.
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(51))
	pairs := randPairs(rng, 20)
	choices := randChoices(rng, 20)

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(52)))
		if err != nil {
			sendErr = err
			return
		}
		if err := s.Send(nil); err != nil { // empty batch
			sendErr = err
			return
		}
		sendErr = s.Send(pairs)
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	sent0 := b.Metrics().BytesSent.Value()
	empty, err := r.Receive(nil)
	if err != nil {
		t.Fatalf("empty Receive: %v", err)
	}
	if empty != nil {
		t.Errorf("empty Receive returned %d messages", len(empty))
	}
	if b.Metrics().BytesSent.Value() != sent0 {
		t.Error("empty batch put frames on the wire")
	}
	got, err := r.Receive(choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Errorf("post-empty OT %d wrong", i)
		}
	}
}

func TestExtensionPackingBoundaryBackToBack(t *testing.T) {
	// Back-to-back batches on ONE extension stream with sizes walking
	// the 8-bit packing boundary: any bit-packing off-by-one in U, the
	// correction vector, or the per-seed keystream accounting corrupts
	// the batch after the unaligned one.
	sizes := []int{7, 8, 9, 15, 16, 17, 1, 24, 5}
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(54))
	batchPairs := make([][][2]Msg, len(sizes))
	batchChoices := make([][]bool, len(sizes))
	for i, n := range sizes {
		batchPairs[i] = randPairs(rng, n)
		batchChoices[i] = randChoices(rng, n)
	}

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(55)))
		if err != nil {
			sendErr = err
			return
		}
		for _, pairs := range batchPairs {
			if err := s.Send(pairs); err != nil {
				sendErr = err
				return
			}
		}
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(56)))
	if err != nil {
		t.Fatal(err)
	}
	for bi, choices := range batchChoices {
		got, err := r.Receive(choices)
		if err != nil {
			t.Fatalf("batch %d (m=%d): %v", bi, len(choices), err)
		}
		for i, c := range choices {
			want := batchPairs[bi][i][0]
			if c {
				want = batchPairs[bi][i][1]
			}
			if got[i] != want {
				t.Errorf("batch %d (m=%d) OT %d wrong", bi, len(choices), i)
			}
		}
	}
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
}

func TestPreparedReceiveMatchesInline(t *testing.T) {
	// The Prepare/Finish split (used by the precomputed-OT pool) must
	// transfer identically to the inline Receive on the same stream,
	// including when the two styles alternate.
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(57))
	pairs1 := randPairs(rng, 21)
	choices1 := randChoices(rng, 21)
	pairs2 := randPairs(rng, 13)
	choices2 := randChoices(rng, 13)

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(58)))
		if err != nil {
			sendErr = err
			return
		}
		if err := s.Send(pairs1); err != nil {
			sendErr = err
			return
		}
		// Second batch through the split sender path.
		u, err := a.Recv(transport.MsgOTExtU)
		if err != nil {
			sendErr = err
			return
		}
		sendErr = s.SendWithU(pairs2, u)
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(59)))
	if err != nil {
		t.Fatal(err)
	}
	// First batch via the split receiver path.
	pr := r.Prepare(choices1)
	if err := b.Send(transport.MsgOTExtU, pr.U); err != nil {
		t.Fatal(err)
	}
	y, err := b.Recv(transport.MsgOTExtY)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := r.Finish(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	// Second batch inline.
	got2, err := r.Receive(choices2)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	check := func(pairs [][2]Msg, choices []bool, got []Msg) {
		t.Helper()
		for i, c := range choices {
			want := pairs[i][0]
			if c {
				want = pairs[i][1]
			}
			if got[i] != want {
				t.Errorf("OT %d wrong", i)
			}
		}
	}
	check(pairs1, choices1, got1)
	check(pairs2, choices2, got2)
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := 37
	mBytes := (m + 7) / 8
	cols := make([][]byte, k)
	for i := range cols {
		cols[i] = make([]byte, mBytes)
		rng.Read(cols[i])
	}
	rows := transposeToRows(cols, m)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			colBit := cols[i][j/8]&(1<<uint(j%8)) != 0
			rowBit := rows[j][i/8]&(1<<uint(i%8)) != 0
			if colBit != rowBit {
				t.Fatalf("transpose mismatch at col %d row %d", i, j)
			}
		}
	}
}

func TestPRGDeterministicAndDistinct(t *testing.T) {
	var s1, s2 Msg
	s2[0] = 1
	a := prgNext(prgStream(s1, Nonce{}), 64)
	b := prgNext(prgStream(s1, Nonce{}), 64)
	c := prgNext(prgStream(s2, Nonce{}), 64)
	if !bytes.Equal(a, b) {
		t.Error("prg not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Error("prg ignores seed")
	}
	var zero [64]byte
	if bytes.Equal(a, zero[:]) {
		t.Error("prg output all zero")
	}
}

func TestPRGStreamAdvancesAcrossDraws(t *testing.T) {
	// Consecutive draws from one stream must never repeat keystream:
	// reusing a mask across OT batches would leak the XOR of the
	// receiver's choice bits between batches.
	s := prgStream(Msg{}, Nonce{})
	a := prgNext(s, 64)
	b := prgNext(s, 64)
	if bytes.Equal(a, b) {
		t.Error("stream repeats keystream across draws")
	}
	// Draw boundaries don't matter, only total bytes: both parties stay
	// synchronized even when batch sizes differ over time.
	s1, s2 := prgStream(Msg{0: 7}, Nonce{}), prgStream(Msg{0: 7}, Nonce{})
	x := append(prgNext(s1, 10), prgNext(s1, 22)...)
	y := prgNext(s2, 32)
	if !bytes.Equal(x, y) {
		t.Error("keystream depends on draw boundaries")
	}
}

// memPipe is an unbounded in-memory byte queue with blocking reads, used
// to build a duplex whose raw wire bytes the test can record.
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *memPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *memPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		p.cond.Wait()
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

type duplexRW struct {
	r, w *memPipe
}

func (d duplexRW) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d duplexRW) Write(b []byte) (int, error) { return d.w.Write(b) }

type recordingRW struct {
	duplexRW
	mu  sync.Mutex
	log []byte
}

func (r *recordingRW) Write(b []byte) (int, error) {
	r.mu.Lock()
	r.log = append(r.log, b...)
	r.mu.Unlock()
	return r.duplexRW.Write(b)
}

func (r *recordingRW) snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.log...)
}

// frames parses a recorded byte stream into (type, payload) frames.
func parseFrames(t *testing.T, raw []byte) map[transport.MsgType][][]byte {
	t.Helper()
	out := map[transport.MsgType][][]byte{}
	for len(raw) > 0 {
		if len(raw) < 5 {
			t.Fatalf("truncated frame header (%d bytes left)", len(raw))
		}
		typ := transport.MsgType(raw[0])
		n := int(uint32(raw[1]) | uint32(raw[2])<<8 | uint32(raw[3])<<16 | uint32(raw[4])<<24)
		raw = raw[5:]
		if len(raw) < n {
			t.Fatalf("truncated %v frame payload", typ)
		}
		out[typ] = append(out[typ], append([]byte(nil), raw[:n]...))
		raw = raw[n:]
	}
	return out
}

func TestUMatrixMasksNotReusedAcrossBatches(t *testing.T) {
	// Two extension batches with IDENTICAL choice vectors must put
	// different u-matrices on the wire: if the PRG restarted per batch,
	// u1 XOR u2 would equal the XOR of the two batches' choice-bit rows
	// (zero here), letting the sender detect — and in general read —
	// relations between the receiver's private choice bits.
	ab, ba := newMemPipe(), newMemPipe()
	senderRW := duplexRW{r: ba, w: ab}
	receiverRW := &recordingRW{duplexRW: duplexRW{r: ab, w: ba}}
	a, b := transport.New(senderRW), transport.New(receiverRW)

	rng := rand.New(rand.NewSource(31))
	const m = 64
	pairs1 := randPairs(rng, m)
	pairs2 := randPairs(rng, m)
	choices := randChoices(rng, m) // same choices both batches

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(32)))
		if err != nil {
			sendErr = err
			return
		}
		if err := s.Send(pairs1); err != nil {
			sendErr = err
			return
		}
		sendErr = s.Send(pairs2)
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	got1, err := r.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := r.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	for i, c := range choices {
		want1, want2 := pairs1[i][0], pairs2[i][0]
		if c {
			want1, want2 = pairs1[i][1], pairs2[i][1]
		}
		if got1[i] != want1 || got2[i] != want2 {
			t.Fatalf("OT %d incorrect across batches", i)
		}
	}
	us := parseFrames(t, receiverRW.snapshot())[transport.MsgOTExtU]
	if len(us) != 2 {
		t.Fatalf("recorded %d u-matrix frames, want 2", len(us))
	}
	if bytes.Equal(us[0], us[1]) {
		t.Fatal("u-matrix reused across batches: PRG masks repeat, choice bits leak")
	}

	// The same across sessions derived from one base correlation: with
	// identical choices, the u-matrices of two sessions whose nonces differ
	// in the client's counter alone, or in the server's alone, share no
	// column — so each party keeps the masks apart with its own counter,
	// whatever the peer replays in the other half. And on the sender's side
	// no column stream repeats either, so no q row is formed twice.
	t.Run("derivedSessions", func(t *testing.T) {
		sb, rb := testBases(t, 34, 35)
		nonces := []Nonce{SessionNonce(1, 1), SessionNonce(2, 1), SessionNonce(1, 2)}
		var us, qs [][]byte
		for _, n := range nonces {
			us = append(us, rb.Session(nil, n).Prepare(choices).U)
			var q []byte
			for _, st := range sb.Session(nil, n).streams {
				q = append(q, prgNext(st, m/8)...)
			}
			qs = append(qs, q)
		}
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			x, y := pair[0], pair[1]
			for i := 0; i < k; i++ {
				col := func(mat []byte) []byte { return mat[i*m/8 : (i+1)*m/8] }
				if bytes.Equal(col(us[x]), col(us[y])) {
					t.Fatalf("sessions %x and %x put the same u column %d on the wire: masks repeat, choice bits leak", nonces[x], nonces[y], i)
				}
				if bytes.Equal(col(qs[x]), col(qs[y])) {
					t.Fatalf("sessions %x and %x draw the same sender keystream for column %d", nonces[x], nonces[y], i)
				}
			}
		}
		if again := rb.Session(nil, nonces[0]).Prepare(choices).U; !bytes.Equal(again, us[0]) {
			t.Error("a session is not a function of the base and the nonce")
		}
	})
}

func TestPackBits(t *testing.T) {
	bits := []bool{true, false, true, true, false, false, false, false, true}
	got := packBits(bits)
	if len(got) != 2 || got[0] != 0b00001101 || got[1] != 0b00000001 {
		t.Errorf("packBits = %08b", got)
	}
}

func TestCorruptedExtYFails(t *testing.T) {
	// A tampered Y payload (wrong length) must be rejected.
	a, b, closer := transport.Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(30)))
		if err != nil {
			return
		}
		// Drain U, then reply with a short bogus Y.
		if _, err := a.Recv(transport.MsgOTExtU); err != nil {
			return
		}
		_ = a.Send(transport.MsgOTExtY, []byte{1, 2, 3})
		_ = a.Flush()
		_ = s
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Receive(randChoices(rand.New(rand.NewSource(32)), 10))
	wg.Wait()
	if err == nil {
		t.Error("short Y payload must be rejected")
	}
}

package ot

import (
	"bytes"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepsecure/internal/gc"
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

// baseOT runs the k random base OTs with the given choices, both halves in
// memory, and returns the receiver's seeds and the sender's pairs.
func baseOT(t *testing.T, choices []bool, seedR, seedS int64) (got [k]Msg, seeds [2][k]Msg) {
	t.Helper()
	var s [k / 8]byte
	for i, c := range choices {
		if c {
			s[i/8] |= 1 << (i % 8)
		}
	}
	bs, points, err := baseChoose(rand.New(rand.NewSource(seedR)), s[:])
	if err != nil {
		t.Fatal(err)
	}
	a, err := baseSend(&seeds, rand.New(rand.NewSource(seedS)), points)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseKeys(got[:], a, bs); err != nil {
		t.Fatal(err)
	}
	return got, seeds
}

// TestBaseOT: the random base OT's receiver holds the seed its choice bit
// selects and not the other, which differs from it.
func TestBaseOT(t *testing.T) {
	choices := randChoices(rand.New(rand.NewSource(1)), k)
	got, seeds := baseOT(t, choices, 3, 2)
	for i, c := range choices {
		want, other := seeds[0][i], seeds[1][i]
		if c {
			want, other = other, want
		}
		if got[i] != want {
			t.Errorf("base OT %d: choice %v, the receiver's seed is not the chosen one", i, c)
		}
		if got[i] == other || want == other {
			t.Errorf("base OT %d: the unchosen seed equals the chosen one", i)
		}
	}
	// Two sessions' seeds share nothing.
	again, _ := baseOT(t, choices, 5, 4)
	for i := range got {
		if got[i] == again[i] {
			t.Errorf("base OT %d: the same seed under fresh scalars", i)
		}
	}
}

// TestBasePointCPinned pins the fixed point C: its x by the stated rule (the
// first ctr whose x = sha256("deepsecure/ot-base/C" ‖ ctr) mod p decodes)
// and its place on the curve, with an even y.
func TestBasePointCPinned(t *testing.T) {
	const wantX = "39028456979de295649ebbdeae93837d4d4c8474f6b8f16295d09e608d0cc2e3"
	if got := hex.EncodeToString(cx.FillBytes(make([]byte, 32))); got != wantX {
		t.Errorf("C.x = %s, pinned %s", got, wantX)
	}
	if !curve.IsOnCurve(cx, cy) || cy.Bit(0) != 0 {
		t.Errorf("C = (%x, %x) is off the curve or has an odd y", cx, cy)
	}
	// The rule: no earlier counter decodes, and this one does.
	p := curve.Params().P
	for ctr := uint32(0); ; ctr++ {
		h := sha256.Sum256(binary.BigEndian.AppendUint32([]byte("deepsecure/ot-base/C"), ctr))
		x := new(big.Int).Mod(new(big.Int).SetBytes(h[:]), p)
		if y := new(big.Int).ModSqrt(curveRHS(x), p); y != nil {
			if x.Cmp(cx) != 0 {
				t.Fatalf("counter %d decodes first, to x = %x, not C's", ctr, x)
			}
			t.Logf("C is counter %d's point", ctr)
			return
		}
	}
}

// curveRHS is x³ − 3x + b mod p, P-256's y² at x.
func curveRHS(x *big.Int) *big.Int {
	params := curve.Params()
	r := new(big.Int).Exp(x, big.NewInt(3), params.P)
	r.Sub(r, new(big.Int).Lsh(x, 1))
	r.Sub(r, x)
	r.Add(r, params.B)
	return r.Mod(r, params.P)
}

// TestBaseSendRefusesBadPoints: the base-OT sender refuses a receiver point
// that is C, whose two seeds the receiver would both know, or off the
// curve, or a frame of the wrong length; the receiver refuses an A off the
// curve.
func TestBaseSendRefusesBadPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	_, points, err := baseChoose(rng, make([]byte, k/8))
	if err != nil {
		t.Fatal(err)
	}
	var seeds [2][k]Msg
	if _, err := baseSend(&seeds, rng, points); err != nil {
		t.Fatal(err)
	}
	c := elliptic.Marshal(curve, cx, cy)
	offCurve := bytes.Clone(points[:pointLen])
	offCurve[pointLen-1] ^= 1
	for name, p := range map[string][]byte{
		"C":         slices.Concat(points[:2*pointLen], c, points[3*pointLen:]),
		"off-curve": slices.Concat(points[:(k-1)*pointLen], offCurve),
		"short":     points[:k*pointLen-1],
	} {
		if _, err := baseSend(&seeds, rng, p); err == nil {
			t.Errorf("%s: the sender took the points", name)
		}
	}
	if err := baseKeys(make([]Msg, 1), offCurve, [][]byte{make([]byte, 32)}); err == nil {
		t.Error("the receiver took an A off the curve")
	}
}

// testExt runs one base phase over a pipe and returns both extension
// parties, for batches that run through Pads, off the wire.
func testExt(t testing.TB, seedS, seedR int64) (*ExtSender, *ExtReceiver) {
	t.Helper()
	a, b, closer := transport.Pipe()
	defer closer.Close()
	return newExt(t, a, b, seedS, seedR)
}

// newExt runs one base phase over a and b and returns both extension
// parties, speaking over them.
func newExt(t testing.TB, a, b transport.FrameConn, seedS, seedR int64) (*ExtSender, *ExtReceiver) {
	t.Helper()
	var es *ExtSender
	var sErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		es, sErr = NewExtSender(a, rand.New(rand.NewSource(seedS)))
	}()
	er, err := NewExtReceiver(b, rand.New(rand.NewSource(seedR)))
	wg.Wait()
	if err == nil {
		err = b.Flush()
	}
	if err == nil && sErr == nil {
		sErr = es.Ready()
	}
	if err != nil || sErr != nil {
		t.Fatalf("base phase: sender %v, receiver %v", sErr, err)
	}
	return es, er
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

// TestPadsAlternateWithSendReceive pins that random-OT batches (Pads on
// both sides, U carried by the caller) yield the random-OT correlation
// when they alternate with Send/Receive batches on one extension.
func TestPadsAlternateWithSendReceive(t *testing.T) {
	a, b, closer := transport.Pipe()
	defer closer.Close()
	rng := rand.New(rand.NewSource(57))
	choices1 := randChoices(rng, 21)
	pairs2 := randPairs(rng, 13)
	choices2 := randChoices(rng, 13)
	choices3 := randChoices(rng, 9)

	var wg sync.WaitGroup
	var sendErr error
	var pads1, pads3 [][2]Msg
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := NewExtSender(a, rand.New(rand.NewSource(58)))
		if err == nil {
			err = s.Ready() // A travels ahead of the first U
		}
		if err != nil {
			sendErr = err
			return
		}
		random := func(m int) ([][2]Msg, error) {
			u, err := a.Recv(transport.MsgOTExtU)
			if err != nil {
				return nil, err
			}
			pads := make([][2]Msg, m)
			return pads, s.Pads(u, pads)
		}
		if pads1, sendErr = random(len(choices1)); sendErr != nil {
			return
		}
		if sendErr = s.Send(pairs2); sendErr != nil {
			return
		}
		pads3, sendErr = random(len(choices3))
	}()
	r, err := NewExtReceiver(b, rand.New(rand.NewSource(59)))
	if err != nil {
		t.Fatal(err)
	}
	random := func(choices []bool) []Msg {
		t.Helper()
		u, pads := r.Pads(choices)
		if err := b.Send(transport.MsgOTExtU, u); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return pads
	}
	got1 := random(choices1)
	got2, err := r.Receive(choices2)
	if err != nil {
		t.Fatal(err)
	}
	got3 := random(choices3)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
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
	check(pads1, choices1, got1)
	check(pairs2, choices2, got2)
	check(pads3, choices3, got3)
}

// TestRandomOTPads pins the random-OT correlation the OT pool banks: for
// every row j the receiver's pad is the sender's pad[j][c_j] and not its
// pad[j][1−c_j], and no pad repeats — not across two batches of one
// extension, nor across the extensions of two base phases, whose row-hash
// tweaks both start at 0.
func TestRandomOTPads(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	seen := map[Msg]string{}
	for ext, seeds := range [][2]int64{{36, 37}, {136, 137}} {
		es, er := testExt(t, seeds[0], seeds[1])
		for batch, m := range []int{67, 8} {
			choices := randChoices(rng, m)
			u, got := er.Pads(choices)
			pads := make([][2]Msg, m)
			if err := es.Pads(u, pads); err != nil {
				t.Fatal(err)
			}
			for j, c := range choices {
				own, other := pads[j][0], pads[j][1]
				if c {
					own, other = other, own
				}
				where := fmt.Sprintf("extension %d batch %d row %d", ext, batch, j)
				if got[j] != own || got[j] == other {
					t.Fatalf("%s: the receiver's pad is not the sender's pad for choice %v alone", where, c)
				}
				for _, p := range pads[j] {
					if prev, ok := seen[p]; ok {
						t.Fatalf("%s: pad repeats the one of %s", where, prev)
					}
					seen[p] = where
				}
			}
		}
		if err := es.Pads(make([]byte, ExtULen(8)-1), make([][2]Msg, 8)); err == nil {
			t.Error("a U matrix of the wrong size yielded pads")
		}
	}
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
	rows := transposed(cols, m)
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

// draw returns the n keystream bytes of the column keyed key from offset
// off on: what a batch of an extension party whose columns have drawn off
// bytes reads next.
func draw(key gc.Label, off uint64, n int) []byte {
	out := make([]byte, n)
	gc.XORKeyStream(out, out, []gc.Label{key}, off)
	return out
}

func TestPRGDeterministicAndDistinct(t *testing.T) {
	var s1, s2 Msg
	s2[0] = 1
	a := draw(s1, 0, 64)
	b := draw(s1, 0, 64)
	c := draw(s2, 0, 64)
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
	key := Msg{}
	a := draw(key, 0, 64)
	b := draw(key, 64, 64)
	if bytes.Equal(a, b) {
		t.Error("stream repeats keystream across draws")
	}
	// Draw boundaries don't matter, only total bytes: both parties stay
	// synchronized even when batch sizes differ over time.
	key = Msg{0: 7}
	x := append(draw(key, 0, 10), draw(key, 10, 22)...)
	y := draw(key, 0, 32)
	if !bytes.Equal(x, y) {
		t.Error("keystream depends on draw boundaries")
	}
	// And both parties move every column on by a batch's mBytes, whatever
	// the batch's role: a U frame, random-OT pads or chosen messages.
	es, er := testExt(t, 39, 40)
	for _, m := range []int{9, 64, 1} {
		before := es.off
		u, _ := er.Pads(make([]bool, m))
		if err := es.Pads(u, make([][2]Msg, m)); err != nil {
			t.Fatal(err)
		}
		if want := before + uint64((m+7)/8); es.off != want || er.off != want {
			t.Fatalf("after a batch of %d the columns stand at %d (sender) and %d (receiver), want %d", m, es.off, er.off, want)
		}
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
		// Drain A and U, then reply with a short bogus Y.
		if s.Ready() != nil {
			return
		}
		if _, err := a.Recv(transport.MsgOTExtU); err != nil {
			return
		}
		_ = a.Send(transport.MsgOTExtY, []byte{1, 2, 3})
		_ = a.Flush()
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

// BenchmarkSessionOT times a pair's set-up OT after its base phase, both
// parties over transport.Pipe: one chosen-message extension of m OTs, the
// base phase that keys it run with the timer stopped. m = 1 056 is the
// weight bits of the mlp_churn model, 4 032 those of the other bench
// workloads. Run with -benchmem: the bytes and allocations are the
// extension's.
func BenchmarkSessionOT(b *testing.B) {
	for _, m := range []int{1056, 4032} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			a, c, closer := transport.Pipe()
			defer closer.Close()
			rng := rand.New(rand.NewSource(50))
			pairs, choices := randPairs(rng, m), randChoices(rng, m)
			errc := make(chan error, 1)
			b.ReportAllocs()
			for i := range b.N {
				b.StopTimer()
				es, er := newExt(b, a, c, 48+int64(i), 49)
				b.StartTimer()
				go func() { errc <- es.Send(pairs) }()
				if _, err := er.Receive(choices); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

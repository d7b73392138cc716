package precomp

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// pools builds a connected sender/receiver pool pair over an in-memory
// pipe, running the base phase and the announcement handshake. key is the
// receiver's choice-bit key (nil = unkeyed, all false).
func pools(t *testing.T, cfg PoolConfig, key []bool, seed int64) (*SenderPool, *ReceiverPool, func()) {
	t.Helper()
	sConn, rConn, closer := transport.Pipe()
	var ots *ot.ExtSender
	var otsErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ots, otsErr = ot.NewExtSender(sConn, rand.New(rand.NewSource(seed)))
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(seed+2)))
	wg.Wait()
	if err != nil || otsErr != nil {
		closer.Close()
		t.Fatalf("base phase: sender %v, receiver %v", otsErr, err)
	}
	sp := NewSenderPool(sConn, ots, rand.New(rand.NewSource(seed+1)))
	senderErr := make(chan error, 1)
	go func() { senderErr <- sp.HandleAnnounce() }()
	rp := NewReceiverPool(rConn, otr, nil, cfg)
	rp.SetKey(key)
	if err := rp.Announce(); err != nil {
		t.Fatal(err)
	}
	if err := <-senderErr; err != nil {
		t.Fatal(err)
	}
	if sp.Width() != len(key) {
		t.Fatalf("sender learned key width %d, want %d", sp.Width(), len(key))
	}
	return sp, rp, func() { closer.Close() }
}

// keyAt returns the key's choice bits at sequence numbers q0 … q0+n-1:
// what a lock-step Receive must be called with.
func keyAt(key []bool, q0 int64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = len(key) > 0 && key[(q0+int64(i))%int64(len(key))]
	}
	return out
}

// transfer runs one oblivious batch through the pools in lock-step: the
// sender's Send on a goroutine, the receiver's Receive inline.
func transfer(t *testing.T, sp *SenderPool, rp *ReceiverPool, pairs [][2]ot.Msg, choices []bool) []ot.Msg {
	t.Helper()
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = sp.Send(pairs)
	}()
	got, err := rp.Receive(choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatalf("sender: %v", sendErr)
	}
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	return got
}

func randPairs(rng *rand.Rand, n int) [][2]ot.Msg {
	pairs := make([][2]ot.Msg, n)
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

func checkTransfer(t *testing.T, what string, got []ot.Msg, pairs [][2]ot.Msg, choices []bool) {
	t.Helper()
	if len(got) != len(pairs) {
		t.Fatalf("%s: %d transfers for %d pairs", what, len(got), len(pairs))
	}
	for j, b := range choices {
		want := pairs[j][0]
		if b {
			want = pairs[j][1]
		}
		if got[j] != want {
			t.Fatalf("%s OT %d: wrong transfer for choice %v", what, j, b)
		}
	}
}

// directIKNP runs the same batch over raw ExtSender/ExtReceiver and
// returns the receiver's output — the reference the pooled path must
// match bit for bit.
func directIKNP(t *testing.T, pairs [][2]ot.Msg, choices []bool, seed int64) []ot.Msg {
	t.Helper()
	sConn, rConn, closer := transport.Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		ots, err := ot.NewExtSender(sConn, rand.New(rand.NewSource(seed)))
		if err != nil {
			sendErr = err
			return
		}
		sendErr = ots.Send(pairs)
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := otr.Receive(choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestKeyedConformance is the pool's property test: for a random key and
// random label pairs, the pooled transfer must equal the direct IKNP
// transfer bit for bit (both must yield pairs[j][key bit]), across batch
// sizes that cross the 8-bit packing boundary and a capacity that is not
// a multiple of the key width (fills wrap around the key).
func TestKeyedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	key := randChoices(rng, 37)
	sp, rp, done := pools(t, PoolConfig{Capacity: 300, RefillLowWater: 40}, key, 50)
	defer done()
	for trial, m := range []int{1, 7, 8, 9, 63, 64, 65, 100, 200} {
		pairs := randPairs(rng, m)
		choices := keyAt(key, rp.Seq(), m)
		pooled := transfer(t, sp, rp, pairs, choices)
		direct := directIKNP(t, pairs, choices, int64(1000+trial))
		checkTransfer(t, "pooled", pooled, pairs, choices)
		for j := range pooled {
			if pooled[j] != direct[j] {
				t.Fatalf("m=%d OT %d: pooled output differs from direct IKNP", m, j)
			}
		}
	}
}

// TestChoiceMustMatchKey pins that the receiver's argument is checked
// against the key, not used to select: asking for the other label fails
// instead of yielding it.
func TestChoiceMustMatchKey(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	key := randChoices(rng, 16)
	sp, rp, done := pools(t, PoolConfig{Capacity: 64}, key, 55)
	defer done()
	choices := keyAt(key, 0, 8)
	choices[3] = !choices[3]
	go sp.Send(randPairs(rng, 8)) //nolint:errcheck — the receiver's verdict is the test
	if _, err := rp.Receive(choices); err == nil || !strings.Contains(err.Error(), "differs from the pool key") {
		t.Fatalf("Receive with a choice bit off the key = %v, want a key-mismatch error", err)
	}
}

// TestSingleUseSafety proves no pooled OT is ever consumed twice:
// reserved ranges are strictly increasing and disjoint on both sides,
// exhaustion triggers a refill (never reuse), the accounting stays
// consistent, and every consumed entry is zeroed in both banks — on a tiny
// explicit pool and on the one a zero config derives from the key (W × a
// window of 2), so nearly every batch forces a refill exchange.
func TestSingleUseSafety(t *testing.T) {
	tiny := PoolConfig{Capacity: 32, RefillLowWater: 8}
	t.Run("explicit", func(t *testing.T) { testSingleUse(t, tiny) })
	t.Run("derived", func(t *testing.T) { testSingleUse(t, PoolConfig{}.Sized(11, 2)) })
}

func testSingleUse(t *testing.T, cfg PoolConfig) {
	rng := rand.New(rand.NewSource(42))
	key := randChoices(rng, 11)
	sp, rp, done := pools(t, cfg, key, 60)
	defer done()

	var consumed int64
	nextSeq := int64(0)
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(70) // frequently exceeds capacity remnants
		pairs := randPairs(rng, m)
		if sp.Seq() != nextSeq || rp.Seq() != nextSeq {
			t.Fatalf("trial %d: seq diverged (sender %d, receiver %d, want %d)", trial, sp.Seq(), rp.Seq(), nextSeq)
		}
		choices := keyAt(key, nextSeq, m)
		checkTransfer(t, "tiny pool", transfer(t, sp, rp, pairs, choices), pairs, choices)
		// The consumed range is exactly [nextSeq, nextSeq+m): seq is
		// monotone, so ranges across trials are pairwise disjoint.
		if sp.Seq() != nextSeq+int64(m) || rp.Seq() != nextSeq+int64(m) {
			t.Fatalf("trial %d: range not exactly m=%d wide (sender %d, receiver %d)", trial, m, sp.Seq(), rp.Seq())
		}
		nextSeq += int64(m)
		consumed += int64(m)

		if rp.Seq() != consumed {
			t.Fatalf("trial %d: receiver consumed %d, want %d", trial, rp.Seq(), consumed)
		}
		if rp.bank.end < rp.Seq() {
			t.Fatalf("trial %d: consumed %d exceeds generated %d — an entry was reused", trial, rp.Seq(), rp.bank.end)
		}
		// Every banked entry below the frontier is spent and zeroed.
		for _, c := range rp.bank.chunks {
			for i, e := range c.e {
				if c.start+int64(i) < nextSeq && e != (ot.Msg{}) {
					t.Fatalf("trial %d: receiver entry %d consumed but not zeroed", trial, c.start+int64(i))
				}
			}
		}
		for _, c := range sp.bank.chunks {
			for i, e := range c.e {
				if c.start+int64(i) < nextSeq && e != ([2]ot.Msg{}) {
					t.Fatalf("trial %d: sender entry %d consumed but not zeroed", trial, c.start+int64(i))
				}
			}
		}
	}
	if n := rp.bank.fills; n < 5 {
		t.Errorf("tiny pool under sustained traffic performed only %d refills", n)
	}
	// The receiver may have banked a refill the sender's last Send did not
	// need to wait for; what is consumed must agree exactly.
	if sp.Seq() != rp.Seq() || sp.bank.end > rp.bank.end+64 {
		t.Errorf("sender accounting (%d/%d) diverges from receiver (%d/%d)",
			sp.bank.end, sp.Seq(), rp.bank.end, rp.Seq())
	}
	// A spent entry refuses a second take on either side.
	if _, err := rp.bank.take(nextSeq - 1); err == nil {
		t.Error("receiver bank handed out a consumed entry")
	}
	if _, err := sp.bank.take(nextSeq - 1); err == nil {
		t.Error("sender bank handed out a consumed entry")
	}
}

// TestRangesInterleave drives the engine-facing API the way a pipelined
// session does: two inferences (the second a 3-sample batch) own disjoint
// ranges and their input steps run interleaved — inference 2's first step
// before inference 1's last. A pool smaller than one sample's key forces
// on-demand refills; every label must still be the keyed one.
func TestRangesInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const w = 40
	key := randChoices(rng, w)
	sp, rp, done := pools(t, PoolConfig{Capacity: 25, RefillLowWater: 5, Background: true}, key, 65)
	defer done()
	sConn, rConn := sp.conn, rp.conn

	type inference struct {
		sr, rr Range
		x0     [][]ot.Msg // [sample][bit] zero-labels
		delta  []ot.Msg   // per sample
	}
	mk := func(b int) *inference {
		in := &inference{delta: make([]ot.Msg, b), x0: make([][]ot.Msg, b)}
		for s := range in.x0 {
			rng.Read(in.delta[s][:])
			in.x0[s] = make([]ot.Msg, w)
			for c := range in.x0[s] {
				rng.Read(in.x0[s][c][:])
			}
		}
		return in
	}
	// step transfers evaluator-input bits [c0, c1) of one inference.
	step := func(in *inference, c0, c1 int) {
		t.Helper()
		var wg sync.WaitGroup
		var sendErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sendErr = sp.Cover(in.sr); sendErr != nil {
				return
			}
			_, sendErr = sp.SendStep(sConn, in.sr, c0, c1-c0, nil, func(i, s int) (ot.Msg, ot.Msg, error) {
				return in.x0[s][c0+i], in.delta[s], nil
			})
			if sendErr == nil {
				sendErr = sConn.Flush()
			}
		}()
		if err := rp.Cover(in.rr); err != nil {
			t.Fatal(err)
		}
		err := rp.RecvStep(rConn, in.rr, c0, key[c0:c1], func(i, s int, m ot.Msg) {
			want := in.x0[s][c0+i]
			if key[c0+i] {
				for k := range want {
					want[k] ^= in.delta[s][k]
				}
			}
			if m != want {
				t.Errorf("range %d sample %d bit %d: wrong label", in.rr.Q0, s, c0+i)
			}
		})
		wg.Wait()
		if sendErr != nil || err != nil {
			t.Fatalf("step [%d,%d): sender %v, receiver %v", c0, c1, sendErr, err)
		}
	}
	one, two := mk(1), mk(3)
	one.sr, one.rr = sp.Reserve(1), rp.Reserve(1)
	two.sr, two.rr = sp.Reserve(3), rp.Reserve(3)
	if one.sr != one.rr || two.sr != two.rr {
		t.Fatalf("parties disagree on ranges: %+v/%+v, %+v/%+v", one.sr, one.rr, two.sr, two.rr)
	}
	if one.rr.End() != two.rr.Q0 || two.rr.End() != two.rr.Q0+3*w || rp.Seq() != 4*w {
		t.Fatalf("ranges not consecutive: %+v then %+v, seq %d", one.rr, two.rr, rp.Seq())
	}
	step(one, 0, 17)
	step(two, 0, 17)
	step(one, 17, w)
	step(two, 17, w)
	if c, g := rp.Seq(), rp.bank.end; c != 4*w || g < c {
		t.Errorf("after two inferences: %d consumed, %d generated", c, g)
	}
	if err := rp.SendRefills(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundRefill exercises the helper-goroutine precompute path
// (run under -race in CI): refills decided at low water must keep
// transfers correct.
func TestBackgroundRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	key := randChoices(rng, 13)
	sp, rp, done := pools(t, PoolConfig{Capacity: 64, RefillLowWater: 48, Background: true}, key, 70)
	defer done()
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(40)
		pairs := randPairs(rng, m)
		choices := keyAt(key, rp.Seq(), m)
		checkTransfer(t, "background", transfer(t, sp, rp, pairs, choices), pairs, choices)
	}
	if n := rp.bank.fills; n < 2 {
		t.Errorf("background mode performed only %d fills", n)
	}
	if c, g := rp.Seq(), rp.bank.end; g < c {
		t.Errorf("consumed %d exceeds generated %d", c, g)
	}
}

// TestUnkeyedPoolIsAllFalse pins the unkeyed pool: all-false choices
// work, in lock-step, exactly as with a key.
func TestUnkeyedPoolIsAllFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sp, rp, done := pools(t, PoolConfig{Capacity: 64, Background: true}, nil, 75)
	defer done()
	for _, m := range []int{40, 30, 70} {
		pairs := randPairs(rng, m)
		choices := make([]bool, m)
		checkTransfer(t, "unkeyed", transfer(t, sp, rp, pairs, choices), pairs, choices)
	}
	rp.Abort()
}

// TestOversizedRefillSplits pins that a refill beyond what one exchange
// may carry is decided as several consecutive ones.
func TestOversizedRefillSplits(t *testing.T) {
	p := NewReceiverPool(nil, nil, nil, PoolConfig{Capacity: 16})
	p.decide(maxRefill + 5)
	if len(p.refills) != 2 || p.refills[0].start != 0 || p.refills[0].n != 5 ||
		p.refills[1].start != 5 || p.refills[1].n != maxRefill || p.asked != maxRefill+5 {
		t.Fatalf("decide(maxRefill+5) queued %+v, asked %d", p.refills, p.asked)
	}
}

// TestEmptyBatch pins that a zero-length batch touches neither the wire
// nor the pool on either side.
func TestEmptyBatch(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 16}, nil, 80)
	defer done()
	sent0 := rp.conn.(*transport.Conn).Metrics().BytesSent.Value()
	got, err := rp.Receive(nil)
	if err != nil || got != nil {
		t.Fatalf("empty Receive = (%v, %v)", got, err)
	}
	if err := sp.Send(nil); err != nil {
		t.Fatalf("empty Send: %v", err)
	}
	if rp.conn.(*transport.Conn).Metrics().BytesSent.Value() != sent0 {
		t.Error("empty batch put frames on the wire")
	}
	if rp.Seq() != 0 || sp.Seq() != 0 {
		t.Error("empty batch consumed pooled OTs")
	}
}

// TestSizedDefault pins what a zero Capacity means: the pool is sized from
// the program, W × window, within [1, maxRefill] — so a model whose W ×
// window is beyond one refill still announces a capacity Announce accepts —
// and an explicit capacity is left alone. Either way the low-water default
// is resolved.
func TestSizedDefault(t *testing.T) {
	for _, tc := range []struct {
		cfg       PoolConfig
		w, window int
		want      PoolConfig
	}{
		{PoolConfig{}, 944, 2, PoolConfig{Capacity: 1888, RefillLowWater: 472}},
		{PoolConfig{Background: true}, 944, 1, PoolConfig{Capacity: 944, RefillLowWater: 236, Background: true}},
		{PoolConfig{}, 0, 2, PoolConfig{Capacity: 1, RefillLowWater: 0}},
		{PoolConfig{}, maxRefill/2 + 1, 2, PoolConfig{Capacity: maxRefill, RefillLowWater: maxRefill / 4}},
		{PoolConfig{Capacity: 100}, 944, 2, PoolConfig{Capacity: 100, RefillLowWater: 25}},
		{PoolConfig{Capacity: 100, RefillLowWater: 7}, 944, 2, PoolConfig{Capacity: 100, RefillLowWater: 7}},
	} {
		got := tc.cfg.Sized(tc.w, tc.window)
		if got != tc.want {
			t.Errorf("%+v.Sized(%d, %d) = %+v, want %+v", tc.cfg, tc.w, tc.window, got, tc.want)
		}
		if got.Capacity < 1 || got.Capacity > maxRefill {
			t.Errorf("%+v.Sized(%d, %d): capacity %d is one Announce refuses", tc.cfg, tc.w, tc.window, got.Capacity)
		}
	}
}

// TestZeroCapacityRefused pins that a pool of capacity 0 no longer means
// "transfer by IKNP per step": an unsized zero config fails Announce
// locally, and a sender that is told capacity 0 by its peer refuses the
// session with a PeerError.
func TestZeroCapacityRefused(t *testing.T) {
	sConn, rConn, closer := transport.Pipe()
	defer closer.Close()
	senderErr := make(chan error, 1)
	go func() {
		ots, err := ot.NewExtSender(sConn, rand.New(rand.NewSource(91)))
		if err == nil {
			err = NewSenderPool(sConn, ots, rand.New(rand.NewSource(92))).HandleAnnounce()
		}
		senderErr <- err
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	sent0 := rConn.Metrics().BytesSent.Value()
	if err := NewReceiverPool(rConn, otr, nil, PoolConfig{}).Announce(); err == nil {
		t.Fatal("Announce with an unsized zero capacity succeeded")
	}
	if rConn.Metrics().BytesSent.Value() != sent0 {
		t.Error("an unsized pool leaked frames onto the wire")
	}
	// What a peer still speaking the unpooled protocol would send.
	if err := rConn.Send(transport.MsgOTRefill, countsPayload(0, 8)); err != nil {
		t.Fatal(err)
	}
	if err := rConn.Flush(); err != nil {
		t.Fatal(err)
	}
	var pe *PeerError
	if err := <-senderErr; !errors.As(err, &pe) {
		t.Fatalf("HandleAnnounce of a capacity-0 announcement = %v, want a PeerError", err)
	}
}

// TestUnannouncedExtURefused pins the other half: an extension request
// (MsgOTExtU) that no refill announcement precedes is the opening of a
// per-step IKNP exchange, and the sender refuses it with a PeerError
// wherever it reads its next pool frame, answering nothing.
func TestUnannouncedExtURefused(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 16}, nil, 94)
	defer done()
	rConn := rp.conn.(*transport.Conn)
	if err := rConn.Send(transport.MsgOTExtU, make([]byte, ot.ExtULen(8))); err != nil {
		t.Fatal(err)
	}
	if err := rConn.Flush(); err != nil {
		t.Fatal(err)
	}
	sent0 := sp.conn.(*transport.Conn).Metrics().BytesSent.Value()
	var pe *PeerError
	// A range past the setup fill makes Cover read for the refill that
	// should have been announced.
	if err := sp.Cover(Range{Q0: 0, B: 1, W: 17}); !errors.As(err, &pe) {
		t.Fatalf("Cover reading an unannounced ot-ext-u = %v, want a PeerError", err)
	}
	if err := sp.HandleRefill(transport.MsgOTExtU, nil); !errors.As(err, &pe) {
		t.Fatalf("HandleRefill(ot-ext-u) = %v, want a PeerError", err)
	}
	if sp.conn.(*transport.Conn).Metrics().BytesSent.Value() != sent0 || sp.Available() != 16 {
		t.Error("the refused request was answered or banked")
	}
}

// TestLowWaterAboveCapacity pins the misconfiguration clamp: a low-water
// mark at or above capacity must degrade to refill-after-every-batch,
// not wedge the session in a zero-count refill exchange.
func TestLowWaterAboveCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sp, rp, done := pools(t, PoolConfig{Capacity: 16, RefillLowWater: 64}, nil, 97)
	defer done()
	for trial := 0; trial < 4; trial++ {
		m := 1 + rng.Intn(12)
		pairs := randPairs(rng, m)
		choices := make([]bool, m)
		checkTransfer(t, "clamped", transfer(t, sp, rp, pairs, choices), pairs, choices)
	}
	if c, g := rp.Seq(), rp.bank.end; g < c {
		t.Errorf("consumed %d exceeds generated %d", c, g)
	}
}

// TestOversizedCapacityFailsLocally pins that a capacity beyond the
// refill limit errors on the receiver before any frame hits the wire.
func TestOversizedCapacityFailsLocally(t *testing.T) {
	sConn, rConn, closer := transport.Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Run only the base phase; the announcement must never arrive.
		ot.NewExtSender(sConn, rand.New(rand.NewSource(98))) //nolint:errcheck
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(99)))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReceiverPool(rConn, otr, nil, PoolConfig{Capacity: maxRefill + 1})
	sent0 := rConn.Metrics().BytesSent.Value()
	if err := rp.Announce(); err == nil {
		t.Fatal("oversized capacity must fail Announce")
	}
	if rConn.Metrics().BytesSent.Value() != sent0 {
		t.Error("oversized capacity leaked frames onto the wire")
	}
}

// TestAnnouncedFillAtSetup pins that the pool is bulk-filled during the
// announcement handshake — before any online batch.
func TestAnnouncedFillAtSetup(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 128}, nil, 95)
	defer done()
	if rp.Available() != 128 || sp.Available() != 128 {
		t.Fatalf("setup fill left %d/%d available, want 128/128", rp.Available(), sp.Available())
	}
	if rp.bank.end != 128 || rp.bank.fills != 1 || rp.Seq() != 0 {
		t.Errorf("setup fill: %d generated in %d fill(s), %d consumed", rp.bank.end, rp.bank.fills, rp.Seq())
	}
}

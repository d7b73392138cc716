package precomp

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// recorder is a FrameConn that counts the frames it sends by type and
// keeps a copy of every MsgOTMasked payload.
type recorder struct {
	*transport.Conn
	sent   map[transport.MsgType]int
	masked [][]byte
}

func (r *recorder) Send(t transport.MsgType, payload []byte) error {
	r.sent[t]++
	if t == transport.MsgOTMasked {
		r.masked = append(r.masked, append([]byte(nil), payload...))
	}
	return r.Conn.Send(t, payload)
}

// pools builds a connected sender/receiver pool pair over an in-memory
// pipe, running the base phase to its end and Announce, and checks that both parties
// banked the first fill of cfg.Capacity entries.
func pools(t *testing.T, cfg PoolConfig, seed int64) (*SenderPool, *ReceiverPool, func()) {
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
	if err == nil {
		err = rConn.Flush()
	}
	if err == nil && otsErr == nil {
		otsErr = ots.Ready()
	}
	if err != nil || otsErr != nil {
		closer.Close()
		t.Fatalf("base phase: sender %v, receiver %v", otsErr, err)
	}
	sp := NewSenderPool(&recorder{Conn: sConn, sent: map[transport.MsgType]int{}}, ots, nil)
	rp := NewReceiverPool(&recorder{Conn: rConn, sent: map[transport.MsgType]int{}}, otr, nil, cfg)
	senderErr := make(chan error, 1)
	go func() { senderErr <- sp.HandleAnnounce() }()
	if err := rp.Announce(); err != nil {
		t.Fatal(err)
	}
	if err := <-senderErr; err != nil {
		t.Fatal(err)
	}
	if len(sp.pads) != cfg.Capacity || len(rp.pads) != cfg.Capacity {
		t.Fatalf("Announce banked %d/%d entries, want %d", len(sp.pads), len(rp.pads), cfg.Capacity)
	}
	return sp, rp, func() { closer.Close() }
}

// transfer runs one batch through the pools in lock-step: the sender's
// Send on a goroutine, the receiver's Receive inline.
func transfer(t *testing.T, sp *SenderPool, rp *ReceiverPool, pairs [][2]ot.Msg) []ot.Msg {
	t.Helper()
	sendErr := make(chan error, 1)
	go func() { sendErr <- sp.Send(pairs) }()
	got, err := rp.Receive(make([]bool, len(pairs)))
	if err := <-sendErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("%d transfers for %d pairs", len(got), len(pairs))
	}
	for j := range pairs {
		if got[j] != pairs[j][0] {
			t.Fatalf("OT %d of %d: the receiver did not get pairs[j][0]", j, len(pairs))
		}
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

// TestUnkeyedPoolIsAllFalse pins the transfer: every entry's choice bit
// is 0, so the receiver gets pairs[j][0], across batch sizes on both sides
// of the 8-bit packing boundary, within the first fill and past it.
func TestUnkeyedPoolIsAllFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sp, rp, done := pools(t, PoolConfig{Capacity: 300, Background: true}, 75)
	defer done()
	for _, m := range []int{1, 7, 8, 9, 63, 64, 65, 100, 200} {
		transfer(t, sp, rp, randPairs(rng, m))
	}
	rp.Abort()
}

// TestChoiceMustMatchKey pins that the receiver's choices are checked, not
// used to select: every entry's choice bit is 0, so a true choice is
// refused with a *ChoiceError before any frame is sent, and no entry is
// spent.
func TestChoiceMustMatchKey(t *testing.T) {
	_, rp, done := pools(t, PoolConfig{Capacity: 64}, 55)
	defer done()
	rec := rp.conn.(*recorder)
	sent0 := rec.Metrics().BytesSent.Value()
	choices := make([]bool, 8)
	choices[3] = true
	var ce *ChoiceError
	if _, err := rp.Receive(choices); !errors.As(err, &ce) || ce.OT != 3 {
		t.Fatalf("Receive with choice 3 true = %v, want a *ChoiceError for OT 3", err)
	}
	if rec.Metrics().BytesSent.Value() != sent0 || len(rp.pads) != 64 {
		t.Error("the refused choice sent a frame or spent an entry")
	}
}

// TestSingleUseSafety proves that no entry masks two pairs. It recovers
// the pads the sender used from the recorded MsgOTMasked frames
// (r_b = y_b ⊕ x_b) and checks that none repeats across steps and across
// the fills that steps larger than the remaining pool run inline: on a
// pool of explicit capacity, and on one of capacity 1, whose every fill is
// sized by the step that forces it.
func TestSingleUseSafety(t *testing.T) {
	t.Run("explicit", func(t *testing.T) { testSingleUse(t, PoolConfig{Capacity: 32}, 60) })
	t.Run("derived", func(t *testing.T) { testSingleUse(t, PoolConfig{Capacity: 1}, 62) })
}

func testSingleUse(t *testing.T, cfg PoolConfig, seed int64) {
	rng := rand.New(rand.NewSource(42))
	sp, rp, done := pools(t, cfg, seed)
	defer done()
	seen := map[ot.Msg]int{}
	for step := 0; step < 20; step++ {
		m := 1 + rng.Intn(70) // often beyond what remains
		pairs := randPairs(rng, m)
		sBefore, rBefore := sp.pads, rp.pads
		transfer(t, sp, rp, pairs)
		// Without a fill in between, the taken entries are cleared where
		// they lay.
		if m <= len(rBefore) {
			for j := range m {
				if sBefore[j] != ([2]ot.Msg{}) || rBefore[j] != (ot.Msg{}) {
					t.Fatalf("step %d: entry %d was taken but not cleared", step, j)
				}
			}
		}
		if len(sp.pads) != len(rp.pads) {
			t.Fatalf("step %d: the parties hold %d and %d entries", step, len(sp.pads), len(rp.pads))
		}
		frames := sp.conn.(*recorder).masked
		if len(frames) != step+1 {
			t.Fatalf("step %d sent %d masked frames in all", step, len(frames))
		}
		y := frames[step]
		for j, pr := range pairs {
			for b, x := range pr {
				pad := x.XOR(ot.Msg(y[(2*j+b)*ot.MsgLen:]))
				if prev, ok := seen[pad]; ok {
					t.Fatalf("step %d OT %d: pad %d repeats one of step %d", step, j, b, prev)
				}
				seen[pad] = step
			}
		}
	}
	fills := rp.conn.(*recorder).sent[transport.MsgOTRefill]
	if fills < 5 || rp.conn.(*recorder).sent[transport.MsgOTExtU] != fills {
		t.Errorf("20 steps on a pool of %d ran %d fills", cfg.Capacity, fills)
	}
}

// TestEmptyBatch pins that a zero-length batch touches neither the wire
// nor the pool on either side.
func TestEmptyBatch(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 16}, 80)
	defer done()
	sent0 := rp.conn.(*recorder).Metrics().BytesSent.Value()
	got, err := rp.Receive(nil)
	if err != nil || got != nil {
		t.Fatalf("empty Receive = (%v, %v)", got, err)
	}
	if err := sp.Send(nil); err != nil {
		t.Fatalf("empty Send: %v", err)
	}
	if rp.conn.(*recorder).Metrics().BytesSent.Value() != sent0 || sp.conn.(*recorder).sent[transport.MsgOTMasked] != 0 {
		t.Error("empty batch put frames on the wire")
	}
	if len(rp.pads) != 16 || len(sp.pads) != 16 {
		t.Error("empty batch consumed pooled OTs")
	}
}

// TestOversizedCapacityFailsLocally pins that a capacity outside
// [1, maxFill] fails Announce on the receiver before any frame is sent.
func TestOversizedCapacityFailsLocally(t *testing.T) {
	_, rConn, closer := transport.Pipe()
	defer closer.Close()
	for _, c := range []int{0, -1, maxFill + 1} {
		if err := NewReceiverPool(rConn, nil, nil, PoolConfig{Capacity: c}).Announce(); err == nil {
			t.Errorf("Announce with capacity %d succeeded", c)
		}
	}
	if rConn.Metrics().BytesSent.Value() != 0 {
		t.Error("a capacity outside the bounds leaked frames onto the wire")
	}
}

// TestZeroCapacityRefused pins the sender's half: a fill frame whose count
// is 0, beyond maxFill, truncated or followed by trailing bytes is refused
// before U is read, and nothing is banked or answered.
func TestZeroCapacityRefused(t *testing.T) {
	sConn, rConn, closer := transport.Pipe()
	defer closer.Close()
	sp := NewSenderPool(sConn, nil, nil)
	for _, payload := range [][]byte{
		binary.AppendUvarint(nil, 0),
		binary.AppendUvarint(nil, maxFill+1),
		{0x80},
		append(binary.AppendUvarint(nil, 8), 0),
		nil,
	} {
		if err := rConn.Send(transport.MsgOTRefill, payload); err != nil {
			t.Fatal(err)
		}
		if err := rConn.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sp.HandleAnnounce(); err == nil {
			t.Errorf("fill frame %x was accepted", payload)
		}
	}
	if len(sp.pads) != 0 || sConn.Metrics().BytesSent.Value() != 0 {
		t.Error("a refused fill frame was banked or answered")
	}
}

// TestUnannouncedExtURefused pins that a Send that needs a fill refuses a
// MsgOTExtU that no MsgOTRefill announced, answering nothing and banking
// nothing.
func TestUnannouncedExtURefused(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 16}, 94)
	defer done()
	rConn := rp.conn.(*recorder)
	if err := rConn.Send(transport.MsgOTExtU, make([]byte, ot.ExtULen(8))); err != nil {
		t.Fatal(err)
	}
	if err := rConn.Flush(); err != nil {
		t.Fatal(err)
	}
	sent0 := sp.conn.(*recorder).Metrics().BytesSent.Value()
	if err := sp.Send(make([][2]ot.Msg, 17)); err == nil {
		t.Fatal("Send banked an ot-ext-u no fill announced")
	}
	if sp.conn.(*recorder).Metrics().BytesSent.Value() != sent0 || len(sp.pads) != 16 {
		t.Error("the unannounced request was answered or banked")
	}
}

package ot

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepsecure/internal/transport"
)

// testBases runs one base phase over a pipe and returns both halves of the
// correlation.
func testBases(t testing.TB, seedS, seedR int64) (*SenderBase, *ReceiverBase) {
	t.Helper()
	a, b, closer := transport.Pipe()
	defer closer.Close()
	var sb *SenderBase
	var sErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, sErr = NewSenderBase(a, rand.New(rand.NewSource(seedS)))
	}()
	rb, err := NewReceiverBase(b, rand.New(rand.NewSource(seedR)))
	wg.Wait()
	if err != nil || sErr != nil {
		t.Fatalf("base phase: sender %v, receiver %v", sErr, err)
	}
	return sb, rb
}

// noBaseConn fails the test when a base-OT frame crosses it: a derived
// session runs no base phase. (BaseSend opens by sending one and
// BaseReceive by reading one, so neither can be entered unnoticed.)
type noBaseConn struct {
	transport.FrameConn
	t *testing.T
}

func (c noBaseConn) Send(typ transport.MsgType, p []byte) error {
	if typ == transport.MsgOTBase {
		c.t.Error("a derived session sent an ot-base frame")
	}
	return c.FrameConn.Send(typ, p)
}

func (c noBaseConn) Recv(want transport.MsgType) ([]byte, error) {
	if want == transport.MsgOTBase {
		c.t.Error("a derived session waits for an ot-base frame")
	}
	return c.FrameConn.Recv(want)
}

// TestSessionsDeriveFromOneBase: one base phase, then any number of
// sessions — one after another and at the same time, each on a connection of
// its own with a nonce of its own — every one a correct OT extension that
// exchanges no base-OT frame; their row-hash counters start 2^32 apart per
// client counter; and parties that disagree on the nonce (or hold halves of
// different bases — an id thief) transfer nothing: the receiver's outputs
// match neither message.
func TestSessionsDeriveFromOneBase(t *testing.T) {
	sb, rb := testBases(t, 41, 42)
	const m = 203
	run := func(sn, rn Nonce, sb *SenderBase) (pairs [][2]Msg, choices []bool, got []Msg) {
		a, b, closer := transport.Pipe()
		defer closer.Close()
		rng := rand.New(rand.NewSource(int64(sn[7])<<8 | int64(rn[15])))
		pairs, choices = randPairs(rng, m), randChoices(rng, m)
		errc := make(chan error, 1)
		go func() {
			s := sb.Session(noBaseConn{a, t}, sn)
			if err := s.Send(pairs[:m/2]); err != nil {
				errc <- err
				return
			}
			errc <- s.Send(pairs[m/2:])
		}()
		r := rb.Session(noBaseConn{b, t}, rn)
		first, err := r.Receive(choices[:m/2])
		if err != nil {
			t.Error(err)
		}
		rest, err := r.Receive(choices[m/2:])
		if err != nil {
			t.Error(err)
		}
		if err := <-errc; err != nil {
			t.Error(err)
		}
		return pairs, choices, append(first, rest...)
	}
	correct := func(pairs [][2]Msg, choices []bool, got []Msg) (n int) {
		for i, c := range choices {
			want := pairs[i][0]
			if c {
				want = pairs[i][1]
			}
			if got[i] == want {
				n++
			}
		}
		return n
	}
	var wg sync.WaitGroup
	for cid := uint64(1); cid <= 3; cid++ {
		for sid := uint64(1); sid <= 2; sid++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := SessionNonce(cid, sid)
				if got := correct(run(n, n, sb)); got != m {
					t.Errorf("session %x: %d of %d OTs correct", n, got, m)
				}
			}()
		}
		wg.Wait() // three rounds of two concurrent sessions
	}
	if a, b := sb.Session(nil, SessionNonce(1, 9)).idx, sb.Session(nil, SessionNonce(2, 9)).idx; b-a != 1<<32 || a != rb.Session(nil, SessionNonce(1, 3)).idx {
		t.Errorf("row-hash counters of client sessions 1 and 2 start at %d and %d, want 2^32 apart and the same on both sides", a, b)
	}

	// No message of either kind gets through to a receiver whose streams
	// are not the sender's: its rows hash to noise.
	other, _ := testBases(t, 43, 44)
	for what, got := range map[string]int{
		"sender on the wrong server counter": correct(run(SessionNonce(1, 1), SessionNonce(1, 2), sb)),
		"sender on the wrong client counter": correct(run(SessionNonce(2, 1), SessionNonce(1, 1), sb)),
		"sender holding another base":        correct(run(SessionNonce(1, 1), SessionNonce(1, 1), other)),
	} {
		if got != 0 {
			t.Errorf("%s: %d of %d messages still arrived", what, got, m)
		}
	}

	// Zero wipes the base and leaves derived sessions alone.
	live := sb.Session(nil, SessionNonce(7, 7))
	fresh := sb.Session(nil, SessionNonce(7, 7))
	before := draw(fresh.keys[5], fresh.off, 32)
	sb.Zero()
	if *sb != (SenderBase{}) {
		t.Error("Zero left seed material in the base")
	}
	if string(draw(live.keys[5], live.off, 32)) != string(before) {
		t.Error("Zero disturbed a session derived before it")
	}
}

// transposeBitLoop is the bit-at-a-time transpose transposeToRows replaced:
// the reference the word-wise one must equal byte for byte.
func transposeBitLoop(cols [][]byte, m int) [][16]byte {
	rows := make([][16]byte, m)
	for i := 0; i < k; i++ {
		col := cols[i]
		byteIdx := i / 8
		bitMask := byte(1 << uint(i%8))
		for j := 0; j < m; j++ {
			if col[j/8]&(1<<uint(j%8)) != 0 {
				rows[j][byteIdx] |= bitMask
			}
		}
	}
	return rows
}

// transposed runs transposeToRows over the columns laid end to end, as the
// extension parties hold them, and returns the rows.
func transposed(cols [][]byte, m int) []Msg {
	rows := make([]Msg, m)
	transposeToRows(bytesOf(rows), slices.Concat(cols...), m)
	return rows
}

func checkTranspose(t *testing.T, cols [][]byte, m int) {
	t.Helper()
	got, want := transposed(cols, m), transposeBitLoop(cols, m)
	if len(got) != len(want) {
		t.Fatalf("m = %d: %d rows, want %d", m, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("m = %d: row %d = %x, the bit loop says %x", m, j, got[j], want[j])
		}
	}
}

// TestTransposeMatchesBitLoop holds the word-wise transpose to the loop it
// replaced on random columns, ragged tails (whose padding bits are random
// too and must be dropped) included.
func TestTransposeMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 736, 4096, 4099} {
		cols := make([][]byte, k)
		for i := range cols {
			cols[i] = make([]byte, (m+7)/8)
			rng.Read(cols[i])
		}
		checkTranspose(t, cols, m)
	}
}

func FuzzTranspose(f *testing.F) {
	f.Add([]byte{0x80}, uint16(1))
	f.Add([]byte{1, 2, 3, 0xff, 0x55}, uint16(65))
	f.Add([]byte("deepsecure"), uint16(736))
	f.Fuzz(func(t *testing.T, data []byte, m16 uint16) {
		if len(data) == 0 {
			return
		}
		m := int(m16) % 2048
		cols := make([][]byte, k)
		for i := range cols {
			cols[i] = make([]byte, (m+7)/8)
			for b := range cols[i] {
				cols[i][b] = data[(i*31+b*7+int(data[(i+b)%len(data)]))%len(data)]
			}
		}
		checkTranspose(t, cols, m)
	})
}

// BenchmarkSessionOT times a repeat session's set-up OT, both parties over
// transport.Pipe: deriving the sender and the receiver from a stored base
// under a fresh nonce, then one chosen-message batch of m OTs. m = 1 056 is
// the weight bits of the mlp_churn model, 4 032 those of the other bench
// workloads. Run with -benchmem: the bytes and allocations are the
// session's.
func BenchmarkSessionOT(b *testing.B) {
	sb, rb := testBases(b, 48, 49)
	for _, m := range []int{1056, 4032} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			a, c, closer := transport.Pipe()
			defer closer.Close()
			rng := rand.New(rand.NewSource(50))
			pairs, choices := randPairs(rng, m), randChoices(rng, m)
			errc := make(chan error, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				nonce := SessionNonce(uint64(i)+1, 1)
				go func() { errc <- sb.Session(a, nonce).Send(pairs) }()
				if _, err := rb.Session(c, nonce).Receive(choices); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

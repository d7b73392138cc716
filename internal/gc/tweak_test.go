package gc_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/nn"
	"deepsecure/internal/transport"
)

// TestSessionTweaksNeverRepeat is the uniqueness half of the session-Δ
// argument: a session garbles every sample of every inference under one
// Free-XOR offset, which is sound only if no hash query repeats a tweak.
// Over pipelined sessions (window 2) of three inferences of B ∈ {1, 3, 16}
// samples each, the garbler's every tweak (t, o) is recorded in the kernel
// — t the gate's, o the sample's session ordinal — and no pair may occur
// twice, while the session's labels stay right. The count of pairs is
// checked too, so that a recorder that saw nothing cannot pass.
func TestSessionTweaksNeverRepeat(t *testing.T) {
	const inferences = 3
	f := fixed.Default
	net, err := nn.NewNetwork(nn.Vec(6), nn.NewDense(4), nn.NewActivation(act.ReLU), nn.NewDense(3))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(21)))
	srv := &core.Server{Net: net, Fmt: f, Engine: core.EngineConfig{Workers: 2, Pipeline: 2}}
	prog, err := srv.Program()
	if err != nil {
		t.Fatal(err)
	}
	hashes := 2*prog.Schedule.ANDs - prog.Schedule.Halves // tweaks per sample: two per full AND, one per half
	rng := rand.New(rand.NewSource(22))
	for _, b := range []int{1, 3, 16} {
		var mu sync.Mutex
		var seen [][2]uint64
		gc.SetTweakSeen(func(t, o uint64) {
			mu.Lock()
			seen = append(seen, [2]uint64{t, o})
			mu.Unlock()
		})
		cConn, sConn, closer := transport.Pipe()
		served := make(chan error, 1)
		go func() {
			_, err := srv.ServeSession(sConn)
			served <- err
		}()
		sess, err := (&core.Client{Engine: core.EngineConfig{Workers: 2, Pipeline: 2}}).NewSession(cConn)
		if err != nil {
			t.Fatal(err)
		}
		var pending []*core.PendingBatch
		var xs [][][]float64
		for range inferences {
			batch := make([][]float64, b)
			for s := range batch {
				batch[s] = make([]float64, 6)
				for j := range batch[s] {
					batch[s][j] = rng.Float64()*2 - 1
				}
			}
			pb, err := sess.InferBatchAsync(batch)
			if err != nil {
				t.Fatal(err)
			}
			pending, xs = append(pending, pb), append(xs, batch)
		}
		for i, pb := range pending {
			labels, _, err := pb.Wait()
			if err != nil {
				t.Fatal(err)
			}
			for s, x := range xs[i] {
				if want := net.PredictFixed(f, x); labels[s] != want {
					t.Fatalf("B=%d inference %d sample %d: label %d, plaintext %d", b, i, s, labels[s], want)
				}
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		closer.Close()
		gc.SetTweakSeen(nil)

		if want := int(hashes) * inferences * b; len(seen) != want {
			t.Fatalf("B=%d: recorded %d tweaks, want %d", b, len(seen), want)
		}
		slices.SortFunc(seen, func(x, y [2]uint64) int { return cmp.Or(cmp.Compare(x[1], y[1]), cmp.Compare(x[0], y[0])) })
		for i := 1; i < len(seen); i++ {
			if seen[i] == seen[i-1] {
				t.Fatalf("B=%d: the garbler hashed twice under the tweak (t, o) = (%d, %d)", b, seen[i][0], seen[i][1])
			}
		}
	}
}

// TestPairTweaksNeverRepeat is the same argument across sessions: every
// session of a client–server pair garbles under the pair's one Free-XOR
// offset, so no (t, o) may repeat over all of them. One Client runs a
// first session, which files the pair, then two sequential and four
// concurrent repeat sessions against one server, each an inference of one
// sample and one of three; every tweak the garbler hashes under is
// recorded and counted, none may occur twice, and every label must be the
// plaintext's.
func TestPairTweaksNeverRepeat(t *testing.T) {
	f := fixed.Default
	net, err := nn.NewNetwork(nn.Vec(6), nn.NewDense(4), nn.NewActivation(act.ReLU), nn.NewDense(3))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(23)))
	cfg := core.EngineConfig{Workers: 2, Pipeline: 2}
	srv, cli := &core.Server{Net: net, Fmt: f, Engine: cfg}, &core.Client{Engine: cfg}
	defer cli.Close()
	prog, err := srv.Program()
	if err != nil {
		t.Fatal(err)
	}
	hashes := 2*prog.Schedule.ANDs - prog.Schedule.Halves

	var mu sync.Mutex
	var seen [][2]uint64
	gc.SetTweakSeen(func(t, o uint64) {
		mu.Lock()
		seen = append(seen, [2]uint64{t, o})
		mu.Unlock()
	})
	defer gc.SetTweakSeen(nil)
	session := func(seed int64, resumed int64) error {
		rng := rand.New(rand.NewSource(seed))
		xs := make([][]float64, 4)
		for i := range xs {
			xs[i] = make([]float64, 6)
			for j := range xs[i] {
				xs[i][j] = rng.Float64()*2 - 1
			}
		}
		cConn, sConn, closer := transport.Pipe()
		defer closer.Close()
		served := make(chan error, 1)
		go func() {
			_, err := srv.ServeSession(sConn)
			served <- err
		}()
		sess, err := cli.NewSession(cConn)
		if err != nil {
			return err
		}
		one, err := sess.InferAsync(xs[0])
		if err != nil {
			return err
		}
		three, err := sess.InferBatchAsync(xs[1:])
		if err != nil {
			return err
		}
		label, _, err := one.Wait()
		if err != nil {
			return err
		}
		labels, _, err := three.Wait()
		if err != nil {
			return err
		}
		for i, x := range xs {
			if got, want := append([]int{label}, labels...)[i], net.PredictFixed(f, x); got != want {
				return fmt.Errorf("session %d sample %d: label %d, plaintext %d", seed, i, got, want)
			}
		}
		if err := sess.Close(); err != nil {
			return err
		}
		if got := sess.Stats().SessionsResumed; got != resumed {
			return fmt.Errorf("session %d: %d resumed, want %d", seed, got, resumed)
		}
		return <-served
	}
	sessions := 1
	if err := session(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := session(int64(1+i), 1); err != nil {
			t.Fatal(err)
		}
		sessions++
	}
	errs := make(chan error, 4)
	for i := range 4 {
		go func() { errs <- session(int64(3+i), 1) }()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		sessions++
	}

	mu.Lock()
	defer mu.Unlock()
	if want := int(hashes) * 4 * sessions; len(seen) != want {
		t.Fatalf("recorded %d tweaks over %d sessions, want %d", len(seen), sessions, want)
	}
	slices.SortFunc(seen, func(x, y [2]uint64) int { return cmp.Or(cmp.Compare(x[1], y[1]), cmp.Compare(x[0], y[0])) })
	for i := 1; i < len(seen); i++ {
		if seen[i] == seen[i-1] {
			t.Fatalf("the pair's garbler hashed twice under the tweak (t, o) = (%d, %d)", seen[i][0], seen[i][1])
		}
	}
}

package gc_test

import (
	"cmp"
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

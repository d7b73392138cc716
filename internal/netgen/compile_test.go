package netgen

import (
	"math/rand"
	"runtime"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
)

func TestCompileMatchesGenerate(t *testing.T) {
	net, err := nn.NewNetwork(nn.Vec(5),
		nn.NewDense(4),
		nn.NewActivation(act.ReLU),
		nn.NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(1)))
	f := fixed.Default

	prog, err := Compile(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The compiled stats must agree with a direct streaming count.
	want, wantLay, err := Count(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Stats
	got.MaxLive = want.MaxLive // replay does not re-measure liveness
	if got != want {
		t.Fatalf("compiled stats %+v, streaming stats %+v", got, want)
	}
	if *prog.Layout != *wantLay {
		t.Fatalf("compiled layout %+v, streaming layout %+v", prog.Layout, wantLay)
	}

	// Replaying the tape into a counting pass re-derives the gate stats.
	tapeStats := prog.Tape.Stats()
	if tapeStats.AND != want.AND || tapeStats.XOR != want.XOR || tapeStats.INV != want.INV {
		t.Fatalf("tape stats %+v disagree with %+v", tapeStats, want)
	}
}

// plainSink evaluates the event stream on plaintext bits the way the GC
// sinks do: input values are bound when their declaration event arrives
// (wire ids recycle, so upfront binding would be wrong), gates execute in
// stream order, outputs are captured at their event.
type plainSink struct {
	vals map[uint32]bool
	gb   []bool // garbler input bits, consumed in declaration order
	eb   []bool // evaluator input bits
	out  []bool
}

func (s *plainSink) OnInputs(p circuit.Party, ws []uint32) error {
	src := &s.gb
	if p == circuit.Evaluator {
		src = &s.eb
	}
	for _, w := range ws {
		s.vals[w] = (*src)[0]
		*src = (*src)[1:]
	}
	return nil
}

func (s *plainSink) OnGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.XOR:
		s.vals[g.Out] = s.vals[g.A] != s.vals[g.B]
	case circuit.AND, circuit.HalfAND:
		s.vals[g.Out] = s.vals[g.A] && s.vals[g.B]
	case circuit.INV:
		s.vals[g.Out] = !s.vals[g.A]
	}
	return nil
}

func (s *plainSink) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		s.out = append(s.out, s.vals[w])
	}
	return nil
}

func (s *plainSink) OnDrop(w uint32) error { return nil }

func TestCompiledTapeEvaluates(t *testing.T) {
	// Replay the compiled tape through a plaintext in-stream evaluator
	// and check it computes the same label as the fixed-point forward
	// pass — the tape is a faithful recording of the netlist.
	net, err := nn.NewNetwork(nn.Vec(4),
		nn.NewDense(3),
		nn.NewActivation(act.ReLU),
		nn.NewDense(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(2)))
	f := fixed.Default

	prog, err := Compile(net, f, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		var xb []bool
		for _, v := range x {
			xb = append(xb, f.FromFloatSat(v).Bits()...)
		}
		sink := &plainSink{
			vals: map[uint32]bool{circuit.WTrue: true},
			gb:   xb,
			eb:   nn.WeightBits(net, f),
		}
		if err := prog.Tape.Replay(sink); err != nil {
			t.Fatal(err)
		}
		label := 0
		for i, b := range sink.out {
			if b {
				label |= 1 << uint(i)
			}
		}
		if want := net.PredictFixed(f, x); label != want {
			t.Fatalf("trial %d: tape circuit label %d, plaintext label %d", trial, label, want)
		}
	}
}

// TestCompiledDepthPinned is the depth half of stdcell's gate-count pins
// (it lives here because the compiled program does): every level is a
// barrier the engines pay for, so a cell that saved gates by getting
// deeper would move cost, not remove it. The models are the benchmark's
// mlp_wan / mlp_batch16 one — 324 levels with the Booth multiplier's eight
// rows, 412 with the sixteen of the array before it — and its tanh_lan
// one, whose depth is mostly the CORDIC cell's: 20 rotations and a 14-step
// divider (5529 levels while the divider ran all 40 steps of the datapath
// width) — and mlp_churn's. The counts are exact since levels hold at most
// 1 024 gates, which spreads the first layer's products over more levels:
// 417, 3 111 and 216 against 324, 3 018 and 202 unbounded. The half-AND counts are pinned with them: two
// per Booth array bit, one where it reads x's bit 0 (211 a MAC, 192 after a
// ReLU), plus one per row, where the first adder's lowest bit meets the raw
// bias bit; the CORDIC cells, which see no weight, add none.
func TestCompiledDepthPinned(t *testing.T) {
	for _, c := range []struct {
		in, hidden, out int
		kind            act.Kind
		maxLevels       int
		ands, halves    int64
	}{
		// 128 MACs, 32 post-ReLU MACs, 8 ReLUs, one 4-way argmax.
		{16, 8, 4, act.ReLU, 417, 128*327 + 32*308 + 8*15 + 99, 128*211 + 32*192 + 12},
		// A Tanh output keeps its sign: 160 full MACs, 8 CORDIC cells.
		{16, 8, 4, act.TanhCORDIC, 3111, 160*327 + 8*2178 + 99, 160*211 + 12},
		// 32 MACs, 8 post-ReLU MACs, 4 ReLUs, one 2-way argmax.
		{8, 4, 2, act.ReLU, 216, 13020, 32*211 + 8*192 + 6},
	} {
		net, err := nn.NewNetwork(nn.Vec(c.in),
			nn.NewDense(c.hidden),
			nn.NewActivation(c.kind),
			nn.NewDense(c.out),
		)
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(rand.New(rand.NewSource(1)))
		prog, err := Compile(net, fixed.Default, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Schedule.NumLevels(); got > c.maxLevels {
			t.Errorf("%v: schedule has %d levels, want at most %d", c.kind, got, c.maxLevels)
		} else {
			t.Logf("%v: %d levels, %d non-XOR gates", c.kind, got, prog.Stats.AND)
		}
		if got := prog.Stats.AND; got != c.ands {
			t.Errorf("%v: program has %d non-XOR gates, want %d", c.kind, got, c.ands)
		}
		if got := prog.Stats.HalfAND; got != c.halves || prog.Schedule.Halves != got {
			t.Errorf("%v: program has %d half ANDs (its schedule %d), want %d", c.kind, got, prog.Schedule.Halves, c.halves)
		}
		if got, want := prog.Schedule.TableBytes(), 16*prog.Stats.Ciphertexts(); got != want {
			t.Errorf("%v: schedule streams %d table bytes, want 16 per ciphertext = %d", c.kind, got, want)
		}
	}
}

// TestHalfANDCountsPinned pins the workloads' half-AND counts as the
// benchmark's issue states them, and compacted B3's through FastCount.
func TestHalfANDCountsPinned(t *testing.T) {
	for _, c := range []struct {
		name         string
		count        func() (circuit.Stats, error)
		ands, halves int64
	}{
		{"mlp(16,8,4,ReLU)", countMLP(16, 8, 4, act.ReLU), 51931, 33164},
		{"mlp(16,8,4,TanhCORDIC)", countMLP(16, 8, 4, act.TanhCORDIC), 69843, 33772},
		{"mlp(8,4,2,ReLU)", countMLP(8, 4, 2, act.ReLU), 13020, 8294},
		{"compacted B3", func() (circuit.Stats, error) {
			net, err := benchmarks.Compacted(benchmarks.All[2])
			if err != nil {
				return circuit.Stats{}, err
			}
			s, _, err := FastCount(net, benchmarks.Format, Options{})
			return s, err
		}, 2031573, 1240123},
	} {
		s, err := c.count()
		if err != nil {
			t.Fatal(err)
		}
		if s.AND != c.ands || s.HalfAND != c.halves {
			t.Errorf("%s: %d non-XOR gates of which %d half, want %d and %d", c.name, s.AND, s.HalfAND, c.ands, c.halves)
		}
	}
}

func countMLP(in, hidden, out int, kind act.Kind) func() (circuit.Stats, error) {
	return func() (circuit.Stats, error) {
		net, err := nn.NewNetwork(nn.Vec(in), nn.NewDense(hidden), nn.NewActivation(kind), nn.NewDense(out))
		if err != nil {
			return circuit.Stats{}, err
		}
		s, _, err := Count(net, fixed.Default, Options{})
		return s, err
	}
}

// BenchmarkCompile times netgen.Compile, generation and scheduling, on the
// benchmark's three models.
func BenchmarkCompile(b *testing.B) {
	for _, m := range benchModels {
		net := m.build(b)
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(net, benchmarks.Format, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompileAllocBudget bounds the bytes one Compile of tanh_lan's model
// allocates (runtime.MemStats.TotalAlloc). The tape, the scheduler's tables
// and the level strata are each allocated once, at their final size: 23.3 MB
// in all, against 91 MB while they grew by appending. The budget is 1.25 ×
// that, so regrowth cannot come back unseen.
func TestCompileAllocBudget(t *testing.T) {
	const budget = 29.1e6
	net := benchModels[0].build(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Compile(net, benchmarks.Format, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Compile of %s allocated %.1f MB, budget %.1f MB", benchModels[0].name, float64(got)/1e6, budget/1e6)
	} else {
		t.Logf("Compile of %s allocated %.1f MB", benchModels[0].name, float64(got)/1e6)
	}
}

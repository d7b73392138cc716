package netgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	if got := prog.Stats; got != want {
		t.Fatalf("compiled stats %+v, streaming stats %+v", prog.Stats, want)
	}
	if *prog.Layout != *wantLay {
		t.Fatalf("compiled layout %+v, streaming layout %+v", prog.Layout, wantLay)
	}

	// The program's tape counts what it replays.
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
	// Replay the compiled program's tape through a plaintext in-stream
	// evaluator and check it computes the same label as the fixed-point
	// forward pass — the tape regenerates the netlist faithfully.
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
// allocates (runtime.MemStats.TotalAlloc). The FastCount hint, the
// scheduler's tables and the level strata are each allocated once, at their
// final size, and no tape is recorded: 17.2 MB in all, with or without the
// race detector, against 22.6 MB while Compile recorded the tape and 91 MB
// while the tables grew by appending. The budget is 1.25 × that, so neither
// a recording nor regrowth can come back unseen.
func TestCompileAllocBudget(t *testing.T) {
	const budget = 21.5e6
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

// TestProgramHoldsNoTape bounds what a compiled program keeps on the heap,
// per gate, on the benchmark's three models: its schedule (a 16-byte gate
// and about one 4-byte drop per gate, with the levels and steps) comes to
// about 21 B. A program that also kept the recorded tape held 46 B.
func TestProgramHoldsNoTape(t *testing.T) {
	const budget = 22 // bytes per gate
	for _, m := range benchModels {
		net := m.build(t)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		prog, err := Compile(net, benchmarks.Format, Options{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(prog.Stats.Total())
		runtime.KeepAlive(prog)
		if held > budget {
			t.Errorf("%s: the program holds %.1f B per gate, budget %d", m.name, held, budget)
		} else {
			t.Logf("%s: the program holds %.1f B per gate", m.name, held)
		}
	}
}

// TestProgramDigestPinned pins Program.Digest on the benchmark's models,
// plain and outsourced, and its definition: sha256 over the Digest of the
// netlist's recorded tape, the format and the options. Compile hashes the
// events as they arrive and records none, so this is what says it hashes
// the words a recording would hold; the session hello carries the digest.
func TestProgramDigestPinned(t *testing.T) {
	want := map[string][2]string{ // Options{}, then Options{Outsourced: true}
		"16-8-TanhCORDIC-4": {"67f35214c0bcf28dcd8bc8a15242c30069e6efe685bb9d3a746c384f6b099ef5", "cee35faac5e53de0b12fc1f513863570c34d7a3fd282b39d8b481f068fdca5ec"},
		"16-8-ReLU-4":       {"5358ed93d7c405ffa2252cec9f9015463482b4b40661ea00c8318fd37e3fe57d", "5f692264894c6fd31ca9228d488427c1858de2446032e5f21a3e23db96ff0a5c"},
		"8-4-2-ReLU":        {"36cc2933075f55fbed49c705d1a31c8e1106898372d9c5bf0c9f0c6ec53ea743", "23409d904adb81d2fb637f70445edce55bc2b56a67874de3aa0545126cbd02a0"},
	}
	f := benchmarks.Format
	for _, m := range benchModels {
		net := m.build(t)
		for i, opt := range []Options{{}, {Outsourced: true}} {
			tape := circuit.NewTape()
			b := circuit.NewBuilder(tape, circuit.WithRecycling())
			if _, err := Generate(b, net, f, opt); err != nil {
				t.Fatal(err)
			}
			td, err := tape.Digest()
			if err != nil {
				t.Fatal(err)
			}
			recorded := sha256.Sum256(fmt.Appendf(td[:], "|Q%d.%d|%+v", f.IntBits, f.FracBits, opt))
			prog, err := Compile(net, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Digest != recorded {
				t.Errorf("%s %+v: program digest %x, its recorded tape's %x", m.name, opt, prog.Digest, recorded)
			}
			if got := hex.EncodeToString(prog.Digest[:]); got != want[m.name][i] {
				t.Errorf("%s %+v: program digest %s, pinned %s", m.name, opt, got, want[m.name][i])
			}
		}
	}
}

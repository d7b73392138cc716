package netgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/nn"
)

// benchModel is one of the benchmark's models, built with the benchmark's
// weight seed (bench/workloads.go's weightSeed).
type benchModel struct {
	name            string
	in, hidden, out int
	kind            act.Kind
}

var benchModels = []benchModel{
	{"16-8-TanhCORDIC-4", 16, 8, 4, act.TanhCORDIC}, // tanh_lan
	{"16-8-ReLU-4", 16, 8, 4, act.ReLU},             // mlp_wan, mlp_batch16
	{"8-4-2-ReLU", 8, 4, 2, act.ReLU},               // mlp_churn
}

func (m benchModel) build(tb testing.TB) *nn.Network {
	tb.Helper()
	net, err := nn.NewNetwork(nn.Vec(m.in), nn.NewDense(m.hidden), nn.NewActivation(m.kind), nn.NewDense(m.out))
	if err != nil {
		tb.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(20180624)))
	return net
}

// scheduleDigest hashes every field of a compiled schedule, and the
// program's digest with it: each step's kind, party, wires, pre-drops,
// level span and table bytes; each level's offset, counts, GID base and
// drops; every renamed gate; and the schedule's totals. Each list is
// length-prefixed, so no two schedules share a byte stream.
func scheduleDigest(p *Program) string {
	s := p.Schedule
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	list := func(ws []uint32) {
		put(uint64(len(ws)))
		for _, w := range ws {
			put(uint64(w))
		}
	}
	put(uint64(len(s.Steps)))
	for i := range s.Steps {
		st := &s.Steps[i]
		put(uint64(st.Kind), uint64(st.Party))
		list(st.Wires)
		list(st.PreDrops)
		put(uint64(st.First), uint64(st.N), uint64(st.TableBytes))
	}
	put(uint64(len(s.Levels)))
	for i := range s.Levels {
		lv := &s.Levels[i]
		put(uint64(lv.Off), uint64(lv.ANDs), uint64(lv.Halves), uint64(lv.Frees), lv.GIDBase)
		list(lv.Drops)
	}
	put(uint64(len(s.Gates)))
	for _, g := range s.Gates {
		put(uint64(g.Op), uint64(g.A), uint64(g.B), uint64(g.Out))
	}
	put(uint64(s.NumWires), uint64(s.ANDs), uint64(s.Halves), uint64(s.MaxWidth), uint64(s.MaxLevelANDs))
	h.Write(buf)
	h.Write(p.Digest[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchedulePinned pins the compiled schedule of the benchmark's three
// models field for field, with the program digest. TestGarbleTranscriptPinned
// sees the tables and labels but neither wire ids nor drops, so a scheduler
// change that claims "the same schedule" must leave these alone: wire
// numbering, drop placement and gate order within a level are all in them.
// They were re-recorded when levels came to hold at most 1 024 gates. What
// that bound buys is pinned with them: the session's label array holds
// NumWires labels per sample (41 858 on the two 16-8-4 models and 10 498 on
// 8-4-2 while every first-layer product shared level 0), and no level is
// wider than circuit's bound.
func TestSchedulePinned(t *testing.T) {
	want := map[string]struct {
		digest string
		wires  uint32
	}{
		"16-8-TanhCORDIC-4": {"d97d6803fa13adeb129108f43c423e9003020d058fe2849dae7cf96e4cf27902", 6908},
		"16-8-ReLU-4":       {"755ecbe6d7e964859cfa0dc561adc7d2d077d87c32d32e751d6f20d2d3a8c91d", 6908},
		"8-4-2-ReLU":        {"37b13fe8ca13a364a9ac704e9082f2038b16348f61fbea07ffa52aaa00a2fe4e", 3693},
	}
	for _, m := range benchModels {
		prog, err := Compile(m.build(t), benchmarks.Format, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w := want[m.name]
		if got := scheduleDigest(prog); got != w.digest {
			t.Errorf("%s: schedule digest %s, pinned %s", m.name, got, w.digest)
		}
		if s := prog.Schedule; s.NumWires != w.wires || s.MaxWidth > 1<<10 {
			t.Errorf("%s: %d wires, levels up to %d gates wide; want %d wires and at most 1024 gates", m.name, s.NumWires, s.MaxWidth, w.wires)
		}
	}
}

// TestStreamMatchesCompile: a compile and the §3.3 stream level with one
// scheduler. Streamed through circuit.Stream with a window no smaller than
// the program, the generator's events make one fragment, and it hashes to
// the compiled schedule, which TestSchedulePinned pins.
func TestStreamMatchesCompile(t *testing.T) {
	for _, m := range benchModels {
		net := m.build(t)
		prog, err := Compile(net, benchmarks.Format, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var frags []*circuit.Schedule
		err = circuit.Stream(int(prog.Stats.Total()), func(sink circuit.Sink) error {
			b := circuit.NewBuilder(sink, circuit.WithRecycling())
			if _, err := Generate(b, net, benchmarks.Format, Options{}); err != nil {
				return err
			}
			return b.Err()
		}, func(s *circuit.Schedule) error {
			frags = append(frags, s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(frags) != 1 {
			t.Fatalf("%s: a window of the program's %d gates handed off %d fragments, want 1", m.name, prog.Stats.Total(), len(frags))
		}
		if got, want := scheduleDigest(&Program{Schedule: frags[0], Digest: prog.Digest}), scheduleDigest(prog); got != want {
			t.Errorf("%s: streamed schedule digest %s, compiled %s", m.name, got, want)
		}
	}
}

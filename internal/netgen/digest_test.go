package netgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
)

// digestSink hashes a netlist event stream: every input batch, gate,
// output batch and drop, with its wire ids, in order. Two generators that
// produce the same digest produce the same tape, byte for byte.
type digestSink struct {
	h   hash.Hash
	buf []byte
	// blind hashes the function and not its cost: a half AND as an AND,
	// either's operands in wire order (the builder moves the evaluator's
	// wire to slot B).
	blind bool
}

func newDigestSink() *digestSink { return &digestSink{h: sha256.New()} }

func (d *digestSink) event(tag byte, ws ...uint32) {
	d.buf = append(d.buf, tag)
	for _, w := range ws {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, w)
	}
	if len(d.buf) >= 1<<16 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digestSink) OnInputs(p circuit.Party, ws []uint32) error {
	d.event('I', uint32(p), uint32(len(ws)))
	d.event('i', ws...)
	return nil
}

func (d *digestSink) OnGate(g circuit.Gate) error {
	if d.blind && (g.Op == circuit.AND || g.Op == circuit.HalfAND) {
		g.Op, g.A, g.B = circuit.AND, min(g.A, g.B), max(g.A, g.B)
	}
	d.event('G', uint32(g.Op), g.A, g.B, g.Out)
	return nil
}

func (d *digestSink) OnOutputs(ws []uint32) error {
	d.event('O', uint32(len(ws)))
	d.event('o', ws...)
	return nil
}

func (d *digestSink) OnDrop(w uint32) error {
	d.event('D', w)
	return nil
}

func (d *digestSink) sum() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))
}

// tee feeds one event stream to two digests.
type tee [2]*digestSink

func (t tee) OnInputs(p circuit.Party, ws []uint32) error {
	t[0].OnInputs(p, ws)
	return t[1].OnInputs(p, ws)
}

func (t tee) OnGate(g circuit.Gate) error {
	t[0].OnGate(g)
	return t[1].OnGate(g)
}

func (t tee) OnOutputs(ws []uint32) error {
	t[0].OnOutputs(ws)
	return t[1].OnOutputs(ws)
}

func (t tee) OnDrop(w uint32) error {
	t[0].OnDrop(w)
	return t[1].OnDrop(w)
}

// pooledNet covers what the benchmark models do not: a padded, strided
// convolution whose corner window has no active tap (that output is the
// bias word itself), both pooling kinds, and a dense layer with a dead row.
func pooledNet() (*nn.Network, error) {
	conv := nn.NewConv2D(3, 3, 2, 1)
	dense := nn.NewDense(3)
	net, err := nn.NewNetwork(nn.Shape{C: 2, H: 9, W: 9},
		conv, nn.NewActivation(act.ReLU), nn.NewMaxPool2D(2, 1), nn.NewMeanPool2D(2), dense)
	if err != nil {
		return nil, err
	}
	_, cm := conv.Weights()
	for i := range cm {
		oc, ky, kx := i/(2*3*3), i/3%3, i%3
		cm[i] = i%5 != 0 && !(oc == 1 && ky >= 1 && kx >= 1)
	}
	_, dm := dense.Weights()
	for i := range dm {
		dm[i] = i%3 != 0 && i/dense.InN != 1
	}
	return net, nil
}

// TestTapeDigestPinned pins the recorded netlist of six programs event
// for event, twice. want is the stream as emitted: a generator refactor
// that claims "no netlist byte moves" must leave it alone, and one that
// means to move the netlist re-records it (the handshake's program digest
// moves with it; the hello string need not). blind is the same stream with
// every half AND read as an AND on the same two wires: it says what the
// gates compute and not what they cost, so a change of which ANDs are half
// must leave it alone. Both were last recorded when the multiplier became a
// radix-4 Booth array over the weight's digits, which changed what the
// netlist computes. The event stream a Tape replays is the one its builder
// emitted, so the paper-scale models hash the builder's stream directly
// instead of holding a gigabyte of tape.
func TestTapeDigestPinned(t *testing.T) {
	b1 := benchmarks.All[0]
	cases := []struct {
		name  string
		build func() (*nn.Network, error)
		opt   netgen.Options
		heavy bool // tens of millions of gates: skipped under -short
		want  string
		blind string
	}{
		{name: "small", build: func() (*nn.Network, error) { return benchmarks.ByName("small") },
			want:  "49bc2da06b383293b36db6bb8e5390ca4263d81074381a62bb283a912f320a92",
			blind: "508b3632ea546770ec575516f2d8f704747ecb6a6c0acf21282b8aa389776ed6"},
		{name: "small-outsourced", build: func() (*nn.Network, error) { return benchmarks.ByName("small") },
			opt:   netgen.Options{Outsourced: true},
			want:  "688c401fcde3247fcecec13bfaec026122f51824d6efb9f5c828f8d5d495566f",
			blind: "1ac2435d5cdaee34baa860ce4056ca1eec62fe5911f833a9517f81205b4bd36d"},
		{name: "pools-and-pruned-rows", build: pooledNet,
			want:  "7d2312fd5da2a073f2792c45042dca91bff4bf9e2ee27a0cb3992af7f56f8cb6",
			blind: "932df36c26a7b6ce1b28f9e0ae939c30f46af07d90c8eef0cc0d6020ea27a9c3"},
		{name: "b1", build: benchmarks.B1, heavy: true,
			want:  "28706ff6f3c95074cdf130d28d29495a665eb1a7fea5a46db40bb51d2e8898fe",
			blind: "3f9ae1ed32deefc33add1587b88203e32f6fdea35a4a7fbe73497d2818ef0f34"},
		{name: "b1-compacted", build: func() (*nn.Network, error) { return benchmarks.Compacted(b1) }, heavy: true,
			want:  "047aa4cf57f10963fca7fb616252104df2cdc42daddd0743691ac75e017c82e1",
			blind: "da02b8cb0f9afad6512b6844fc29556e19e16d9b85abe1f2c75eb3a3f7bae48c"},
		{name: "b3", build: benchmarks.B3, heavy: true,
			want:  "95f21e0eda6bd39a70bc57fe285b3ca2912e59bbb07b5169fb2603764a90a5f7",
			blind: "10043c15f8673325d6837bc72c2538b59c9ee5a1137c1404c57395fafb04e72d"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("paper-scale netlist")
			}
			net, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			live, blind := newDigestSink(), newDigestSink()
			blind.blind = true
			if _, err := netgen.Generate(circuit.NewBuilder(tee{live, blind}, circuit.WithRecycling()), net, benchmarks.Format, tc.opt); err != nil {
				t.Fatal(err)
			}
			got := live.sum()
			if got != tc.want {
				t.Errorf("netlist digest %s, pinned %s", got, tc.want)
			}
			if got := blind.sum(); got != tc.blind {
				t.Errorf("kind-blind netlist digest %s, pinned %s", got, tc.blind)
			}
			if tc.heavy {
				return
			}
			prog, err := netgen.Compile(net, benchmarks.Format, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			replayed := newDigestSink()
			if err := prog.Tape.Replay(replayed); err != nil {
				t.Fatal(err)
			}
			if r := replayed.sum(); r != got {
				t.Errorf("Tape.Replay digest %s differs from the builder's stream %s", r, got)
			}
		})
	}
}

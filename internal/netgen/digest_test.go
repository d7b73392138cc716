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

// TestTapeDigestPinned pins the recorded netlist of five programs event
// for event. The values were recorded before the layer lowering moved
// into nn (PR 21): a generator refactor that claims "no netlist byte
// moves" must leave them alone, and one that means to move the netlist
// re-records them next to the hello bump. The event stream a Tape replays
// is the one its builder emitted, so the paper-scale models hash the
// builder's stream directly instead of holding a gigabyte of tape.
func TestTapeDigestPinned(t *testing.T) {
	b1 := benchmarks.All[0]
	cases := []struct {
		name  string
		build func() (*nn.Network, error)
		opt   netgen.Options
		heavy bool // tens of millions of gates: skipped under -short
		want  string
	}{
		{name: "small", build: func() (*nn.Network, error) { return benchmarks.ByName("small") },
			want: "b6226785ff67157bef3438cbac54598adb45036cec8e886c03e89b977e0ac2d2"},
		{name: "small-outsourced", build: func() (*nn.Network, error) { return benchmarks.ByName("small") },
			opt: netgen.Options{Outsourced: true}, want: "404069144f9ca37afd107135faae5df2f982b4107de100b6a0d57e7f24efa0ce"},
		{name: "pools-and-pruned-rows", build: pooledNet,
			want: "20814314864fac3b866979168d1e6b5fd7098317f55c868ca8f2362263f2eaaf"},
		{name: "b1", build: benchmarks.B1, heavy: true,
			want: "ce19ba1a2dd0dafca8b95c59e5c039f67fac65285e6329cd026d9c084aaa0a8e"},
		{name: "b1-compacted", build: func() (*nn.Network, error) { return benchmarks.Compacted(b1) }, heavy: true,
			want: "5e1b9b1d1723dfecac2fb4eabefb1ed9134f4b86fb3dd26e38c84110e52f55cc"},
		{name: "b3", build: benchmarks.B3, heavy: true,
			want: "87785d8a0168a7e7841fd504aa0d44ca2c7bbe8c5ee77464e36c6461fe3acfbd"},
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
			live := newDigestSink()
			if _, err := netgen.Generate(circuit.NewBuilder(live, circuit.WithRecycling()), net, benchmarks.Format, tc.opt); err != nil {
				t.Fatal(err)
			}
			got := live.sum()
			if got != tc.want {
				t.Errorf("netlist digest %s, pinned %s", got, tc.want)
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

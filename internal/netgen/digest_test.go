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
// for event, twice. want is the stream as emitted, recorded at PR 22, which
// introduced the half AND: a generator refactor that claims "no netlist
// byte moves" must leave it alone, and one that means to move the netlist
// re-records it (the handshake's program digest moves with it; the hello
// string need not). blind is the same stream with every half AND read as
// an AND on the same two wires: it is what the parent of PR 22 generates
// too (checked there against a clone of that commit), so it says PR 22
// changed what gates cost and not what they compute — a later change of
// which ANDs are half must leave blind alone. The event stream a Tape
// replays is the one its builder emitted, so the paper-scale models hash
// the builder's stream directly instead of holding a gigabyte of tape.
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
			want:  "23544c908c845dc92f9d08d287acd8628162c855793b841f72056a58c7265f9b",
			blind: "25f6cf336373ecc08ff872320231b52ead1d0c793bb06f53e2b03386ef36c22a"},
		{name: "small-outsourced", build: func() (*nn.Network, error) { return benchmarks.ByName("small") },
			opt:   netgen.Options{Outsourced: true},
			want:  "47d0ae81395ff66065c20bb4d156fce2ada4b03e22e1a17ad5118277249aac72",
			blind: "4f7f746ecb35b9880eb142c8190718454b96d8c52613de316f585947d7591cdb"},
		{name: "pools-and-pruned-rows", build: pooledNet,
			want:  "a89067f594cdc49ccb463aaa1bb57b6936a1f865e4701bcbfd215f9c4a407d20",
			blind: "acc57cd616a1936798dd98d23c181e5978dc8594166ec24de4019c388683d5eb"},
		{name: "b1", build: benchmarks.B1, heavy: true,
			want:  "9a2b83803635bd9ce2eac0194ca4d6a06379cdb9f7665929ac1d0de8807b46fe",
			blind: "cc34380ec4d5f29e50263a1a94ec672002d9059d4bd56022b742b89b6cf874f7"},
		{name: "b1-compacted", build: func() (*nn.Network, error) { return benchmarks.Compacted(b1) }, heavy: true,
			// Re-recorded at PR 23: compacted B1's pruned convolution leaves
			// maps whose bias word sits at several positions, and the stream
			// pinned before read that word after retiring it (the schedule
			// refused the program; only this unscheduled stream existed).
			want:  "30903877922d90d31088f5a84367dacea2f50c1d8366aa68396d69426a8520d2",
			blind: "b74ca7e34a5fcd48aa3a77422f9620ef918075fc86be5df5a908ad47fa52fc3a"},
		{name: "b3", build: benchmarks.B3, heavy: true,
			want:  "45f525ace754f1b7735b5dcc9d27af5d3a42c373eea7c94b61cc6b61f3f8eb8a",
			blind: "04596bb98b83c984404cc84a2bed3be96fcb64b4bbf7ad8ef1af7e62556a069e"},
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

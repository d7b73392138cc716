package core

import (
	"fmt"
	"io"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/outsource"
	"deepsecure/internal/stdcell"
	"deepsecure/internal/transport"
)

// The outsourced deployment (§3.3, Fig. 4) involves three parties:
//
//	client ── share s ──▶ proxy  (garbler)
//	client ── share x⊕s ─▶ server (evaluator, owns the model)
//	proxy ◀── GC protocol ──▶ server
//	proxy ── decode bits ─▶ client ◀── output-label LSBs ── server
//
// The circuit's first layer XORs the two shares (free under Free-XOR), so
// neither server ever sees x. The output decode map stays at the proxy and
// the output labels at the main server; each forwards only its half (the
// point-and-permute bit vector) to the client, who XORs them — so neither
// server learns the inference result either.

// outsourcedHello opens both of the deployment's exchanges, the client's
// with the proxy and the proxy's with the main server. It is not the
// session protocol's and changes when this deployment's frames do.
//
// Proxy ↔ server, after the hello and MsgArch (the spec): the OT-extension
// base phase, then the set-up OT of W = n·bits + nn.WeightBitCount labels,
// as a session's (the server's x⊕s share and weight bits are its choices,
// the pairs the proxy's zero-labels under one fresh Δ, permute bit 0);
// then MsgConstLabels, and in generation order MsgInputLabels (the proxy's
// share, one declaration a frame) and MsgTables: the tables of the levels
// circuit.Stream cuts in fragments of streamWindow gates, in their order
// and at their AND indices, each frame within one level run. The whole
// circuit is one sample, ordinal 0, under that Δ. Version 4 runs the
// session's base phase, the proxy's frame first: no label here is
// authenticated, so a peer keyed otherwise must be refused at the hello,
// not left to decode garbage.
const outsourcedHello = "deepsecure-outsourced/4"

// InferOutsourced runs a secure inference as the constrained client: it
// only generates a random pad, XORs once, and receives two short bit
// vectors (the paper's "almost free of charge" client workload).
func (c *Client) InferOutsourced(proxyConn, serverConn *transport.Conn, x []float64) (int, *Stats, error) {
	start := time.Now()
	// One ledger for the call: both connections record in it.
	set := obs.NewSet(c.ledger())
	proxyConn.SetMetrics(set)
	serverConn.SetMetrics(set)
	rng := rngOrDefault(c.Rng)
	// Each frame type is capped as its turn comes, every other at 0.
	proxyConn.ReadOnly()
	serverConn.ReadOnly()
	if err := proxyConn.Send(transport.MsgHello, []byte(outsourcedHello)); err != nil {
		return 0, nil, err
	}
	proxyConn.SetLimit(transport.MsgArch, nn.MaxSpecBytes)
	specData, err := proxyConn.Recv(transport.MsgArch)
	if err != nil {
		return 0, nil, err
	}
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return 0, nil, err
	}
	net, err := spec.Build()
	if err != nil {
		return 0, nil, err
	}
	// Before any share leaves: the two servers would truncate or refuse a
	// wrong-width sample, and neither can tell the client.
	if got, want := len(x), net.In.Len(); got != want {
		return 0, nil, fmt.Errorf("core: sample has %d features, model wants %d", got, want)
	}
	f := spec.Format
	bits := make([]bool, 0, len(x)*f.Bits())
	for _, v := range x {
		bits = f.FromFloatSat(v).AppendBits(bits)
	}
	s, tt, err := outsource.Split(bits, rng)
	if err != nil {
		return 0, nil, err
	}
	if err := proxyConn.Send(transport.MsgShare, outsource.PackBits(s)); err != nil {
		return 0, nil, err
	}
	if err := proxyConn.Flush(); err != nil {
		return 0, nil, err
	}
	if err := serverConn.Send(transport.MsgShare, outsource.PackBits(tt)); err != nil {
		return 0, nil, err
	}
	if err := serverConn.Flush(); err != nil {
		return 0, nil, err
	}

	// Merge the two decode halves, each a bit per bit of the label.
	nBits := stdcell.IndexBits(net.Out().Len())
	proxyConn.SetLimit(transport.MsgResult, (nBits+7)/8)
	serverConn.SetLimit(transport.MsgOutputLabels, (nBits+7)/8)
	decPayload, err := proxyConn.Recv(transport.MsgResult)
	if err != nil {
		return 0, nil, err
	}
	lsbPayload, err := serverConn.Recv(transport.MsgOutputLabels)
	if err != nil {
		return 0, nil, err
	}
	dec, err := outsource.UnpackBits(decPayload, nBits)
	if err != nil {
		return 0, nil, err
	}
	lsb, err := outsource.UnpackBits(lsbPayload, nBits)
	if err != nil {
		return 0, nil, err
	}
	label := 0
	for i := range dec {
		if dec[i] != lsb[i] {
			label |= 1 << uint(i)
		}
	}
	st := StatsOf(set)
	st.Duration = time.Since(start)
	return label, st, nil
}

// Proxy is the untrusted-but-non-colluding garbling service of §3.3 ("a
// simple personal computer connected to the Internet").
type Proxy struct {
	// Rng sources protocol randomness (crypto/rand when nil).
	Rng io.Reader
}

// outsourcedStream emits net's outsourced netlist into sink through a
// recycling builder: the event stream both servers run.
func outsourcedStream(net *nn.Network, f fixed.Format) func(circuit.Sink) error {
	return func(sink circuit.Sink) error {
		_, err := netgen.Generate(circuit.NewBuilder(sink, circuit.WithRecycling()), net, f, netgen.Options{Outsourced: true})
		return err
	}
}

// recvHello reads a peer's hello and refuses any but outsourcedHello.
func recvHello(conn *transport.Conn) error {
	hello, err := conn.Recv(transport.MsgHello)
	if err != nil {
		return err
	}
	if string(hello) != outsourcedHello {
		return fmt.Errorf("core: unknown protocol %q", hello)
	}
	return nil
}

// Run serves one outsourced inference: handshake with the client, garble
// against the main server, forward the decode map half to the client.
func (p *Proxy) Run(clientConn, serverConn *transport.Conn) error {
	rng := rngOrDefault(p.Rng)
	// Each frame type is capped as its turn comes, every other at 0.
	clientConn.ReadOnly(transport.MsgHello)
	serverConn.ReadOnly()
	if err := recvHello(clientConn); err != nil {
		return err
	}
	// Fetch the public spec from the model owner and relay it.
	if err := serverConn.Send(transport.MsgHello, []byte(outsourcedHello)); err != nil {
		return err
	}
	serverConn.SetLimit(transport.MsgArch, nn.MaxSpecBytes)
	specData, err := serverConn.Recv(transport.MsgArch)
	if err != nil {
		return err
	}
	if err := clientConn.Send(transport.MsgArch, specData); err != nil {
		return err
	}
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return err
	}
	net, err := spec.Build()
	if err != nil {
		return err
	}
	f := spec.Format
	n := net.In.Len() * f.Bits()
	clientConn.SetLimit(transport.MsgShare, (n+7)/8)
	sharePayload, err := clientConn.Recv(transport.MsgShare)
	if err != nil {
		return err
	}
	share, err := outsource.UnpackBits(sharePayload, n)
	if err != nil {
		return err
	}

	// The set-up OT hands the server the labels of all its input wires,
	// share and weights, under the circuit's one Δ.
	serverConn.SetLimit(transport.MsgOTBase, maxOTBaseA)
	ots, err := ot.NewExtSender(serverConn, rng)
	if err != nil {
		return err
	}
	w := n + nn.WeightBitCount(net, f)
	delta, zero, pairs, err := weightLabels(rng, w)
	if err != nil {
		return err
	}
	serverConn.SetLimit(transport.MsgOTExtU, ot.ExtULen(w))
	if err := ots.Send(pairs); err != nil {
		return err
	}
	g, err := gc.NewSessionGarbler(rng, delta, 1)
	if err != nil {
		return err
	}
	constLabels, err := g.AppendConstLabels(nil)
	if err != nil {
		return err
	}
	if err := serverConn.Send(transport.MsgConstLabels, constLabels); err != nil {
		return err
	}
	en := &garbleEngine{
		g:         g,
		pool:      EngineConfig{}.newPool(),
		conn:      serverConn,
		weights:   zero,
		inputBits: [][]bool{share},
	}
	if err := runStream(outsourcedStream(net, f), g.Grow, func(s *circuit.Schedule) error {
		en.sched = s
		return en.run()
	}); err != nil {
		return err
	}
	if err := serverConn.Flush(); err != nil {
		return err
	}

	// Send the decode half to the client: the point-and-permute bit of each
	// output zero-label. The proxy never sees the evaluator's output
	// labels, so it learns nothing about the result.
	dec := make([]bool, len(en.outZero))
	for i, l := range en.outZero {
		dec[i] = l.LSB()
	}
	if err := clientConn.Send(transport.MsgResult, outsource.PackBits(dec)); err != nil {
		return err
	}
	return clientConn.Flush()
}

// ServeOutsourced is the main server's side of the outsourced deployment:
// it evaluates with its weights plus the client's x⊕s share, and forwards
// the output-label LSB half to the client.
func (s *Server) ServeOutsourced(proxyConn, clientConn *transport.Conn) error {
	rng := rngOrDefault(s.Rng)
	// Each frame type is capped as its turn comes, every other at 0.
	proxyConn.ReadOnly(transport.MsgHello)
	clientConn.ReadOnly()
	if err := recvHello(proxyConn); err != nil {
		return err
	}
	spec, err := s.Net.Spec(s.Fmt).Marshal()
	if err != nil {
		return err
	}
	if err := proxyConn.Send(transport.MsgArch, spec); err != nil {
		return err
	}
	if err := proxyConn.Flush(); err != nil {
		return err
	}

	n := s.Net.In.Len() * s.Fmt.Bits()
	clientConn.SetLimit(transport.MsgShare, (n+7)/8)
	sharePayload, err := clientConn.Recv(transport.MsgShare)
	if err != nil {
		return err
	}
	share, err := outsource.UnpackBits(sharePayload, n)
	if err != nil {
		return err
	}
	choices := append(share, nn.WeightBits(s.Net, s.Fmt)...)

	// Every proxy frame is bounded before it arrives: its one base frame at
	// its k points (maxOTBase), the set-up OT's answer at W label pairs, the
	// constants two labels, the proxy's inputs its share, and a table frame
	// one level run, at most a window's gates.
	proxyConn.SetLimit(transport.MsgOTBase, maxOTBase)
	proxyConn.SetLimit(transport.MsgOTExtY, len(choices)*2*ot.MsgLen)
	proxyConn.SetLimit(transport.MsgConstLabels, 2*gc.LabelSize)
	proxyConn.SetLimit(transport.MsgInputLabels, n*gc.LabelSize)
	proxyConn.SetLimit(transport.MsgTables, streamWindow*circuit.AND.TableBytes())
	ots, err := ot.NewExtReceiver(proxyConn, rng)
	if err != nil {
		return err
	}
	weights, err := ots.Receive(choices)
	if err != nil {
		return err
	}
	constLabels, err := proxyConn.Recv(transport.MsgConstLabels)
	if err != nil {
		return err
	}
	if len(constLabels) != 2*gc.LabelSize {
		return fmt.Errorf("core: const-label frame has %d bytes", len(constLabels))
	}
	e, err := gc.NewBatchEvaluator(1)
	if err != nil {
		return err
	}
	e.SetLabel(circuit.WFalse, 0, gc.Label(constLabels))
	e.SetLabel(circuit.WTrue, 0, gc.Label(constLabels[gc.LabelSize:]))
	en := &evalEngine{e: e, pool: s.Engine.newPool(), conn: proxyConn, weights: weights, recycle: proxyConn.Recycle}
	if err := runStream(outsourcedStream(s.Net, s.Fmt), e.Grow, func(f *circuit.Schedule) error {
		en.sched = f
		return en.run()
	}); err != nil {
		return err
	}

	lsbs := make([]bool, len(en.outLabels))
	for i, l := range en.outLabels {
		lsbs[i] = l.LSB()
	}
	if err := clientConn.Send(transport.MsgOutputLabels, outsource.PackBits(lsbs)); err != nil {
		return err
	}
	return clientConn.Flush()
}

package core

import (
	"fmt"
	"io"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/outsource"
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
	if err := proxyConn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
		return 0, nil, err
	}
	specData, err := proxyConn.Recv(transport.MsgArch)
	if err != nil {
		return 0, nil, err
	}
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return 0, nil, err
	}
	// Before any share leaves: the two servers would truncate or refuse a
	// wrong-width sample, and neither can tell the client.
	if got, want := len(x), spec.In.Len(); got != want {
		return 0, nil, fmt.Errorf("core: sample has %d features, model wants %d", got, want)
	}
	f := spec.Format
	bits := make([]bool, 0, len(x)*f.Bits())
	for _, v := range x {
		bits = append(bits, f.FromFloatSat(v).Bits()...)
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

	// Merge the two decode halves.
	decPayload, err := proxyConn.Recv(transport.MsgResult)
	if err != nil {
		return 0, nil, err
	}
	lsbPayload, err := serverConn.Recv(transport.MsgOutputLabels)
	if err != nil {
		return 0, nil, err
	}
	if len(decPayload) != len(lsbPayload) {
		return 0, nil, fmt.Errorf("core: decode halves disagree: %d vs %d bytes", len(decPayload), len(lsbPayload))
	}
	nBits := len(decPayload) * 8
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

// Run serves one outsourced inference: handshake with the client, garble
// against the main server, forward the decode map half to the client.
func (p *Proxy) Run(clientConn, serverConn *transport.Conn) error {
	rng := rngOrDefault(p.Rng)
	hello, err := clientConn.Recv(transport.MsgHello)
	if err != nil {
		return err
	}
	if string(hello) != protocolHello {
		return fmt.Errorf("core: unknown protocol %q", hello)
	}
	// Fetch the public spec from the model owner and relay it.
	if err := serverConn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
		return err
	}
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

	sharePayload, err := clientConn.Recv(transport.MsgShare)
	if err != nil {
		return err
	}
	share, err := outsource.UnpackBits(sharePayload, net.In.Len()*f.Bits())
	if err != nil {
		return err
	}

	sink, err := newGarblerSink(serverConn, rng, share)
	if err != nil {
		return err
	}
	b := circuit.NewBuilder(sink, circuit.WithRecycling())
	if _, err := netgen.Generate(b, net, f, netgen.Options{Outsourced: true}); err != nil {
		return err
	}
	if err := b.Err(); err != nil {
		return err
	}
	if err := sink.flushTables(); err != nil {
		return err
	}
	if err := serverConn.Flush(); err != nil {
		return err
	}

	// Send the decode half to the client; the proxy never sees the
	// evaluator's output labels, so it learns nothing about the result.
	if err := clientConn.Send(transport.MsgResult, outsource.PackBits(sink.decodeBits())); err != nil {
		return err
	}
	return clientConn.Flush()
}

// ServeOutsourced is the main server's side of the outsourced deployment:
// it evaluates with its weights plus the client's x⊕s share, and forwards
// the output-label LSB half to the client.
func (s *Server) ServeOutsourced(proxyConn, clientConn *transport.Conn) error {
	rng := rngOrDefault(s.Rng)
	hello, err := proxyConn.Recv(transport.MsgHello)
	if err != nil {
		return err
	}
	if string(hello) != protocolHello {
		return fmt.Errorf("core: unknown protocol %q", hello)
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

	sharePayload, err := clientConn.Recv(transport.MsgShare)
	if err != nil {
		return err
	}
	share, err := outsource.UnpackBits(sharePayload, s.Net.In.Len()*s.Fmt.Bits())
	if err != nil {
		return err
	}
	inputBits := append(share, nn.WeightBits(s.Net, s.Fmt)...)

	sink, err := newEvaluatorSink(proxyConn, rng, inputBits)
	if err != nil {
		return err
	}
	b := circuit.NewBuilder(sink, circuit.WithRecycling())
	if _, err := netgen.Generate(b, s.Net, s.Fmt, netgen.Options{Outsourced: true}); err != nil {
		return err
	}
	if err := b.Err(); err != nil {
		return err
	}

	lsbs := make([]bool, len(sink.outLabels))
	for i, l := range sink.outLabels {
		lsbs[i] = l.LSB()
	}
	if err := clientConn.Send(transport.MsgOutputLabels, outsource.PackBits(lsbs)); err != nil {
		return err
	}
	return clientConn.Flush()
}

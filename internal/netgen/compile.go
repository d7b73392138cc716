package netgen

import (
	"crypto/sha256"
	"fmt"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
)

// Program is a compiled inference netlist: the level schedule compiled
// from the generator's event stream, its wire layout, gate accounting and
// digest. The netlist is a public, deterministic function of the
// (architecture, format, options) triple, so both protocol parties compile
// byte-identical programs independently and walk the schedule in lockstep
// — once per inference, with fresh labels, without ever re-running the
// generator.
//
// A Program is immutable after Compile and safe for concurrent use by any
// number of sessions.
type Program struct {
	// Tape records nothing: its Replay runs the generator again, for the
	// benchmark's layer pass, which times the scheduler on its own.
	Tape *circuit.Tape
	// Schedule is the level-parallel execution plan: strata of mutually
	// independent gates with per-level wire liveness, which the core
	// engine garbles/evaluates with a worker pool. Both parties compile
	// byte-identical programs, so they agree on every hash tweak and table
	// offset the schedule assigns.
	Schedule *circuit.Schedule
	Layout   *Layout
	Stats    circuit.Stats
	// Digest names the program: sha256 over the event stream's digest (a
	// recording's Tape.Digest), the format and the options. Parties whose
	// digests agree replay the same netlist at the same word width; the
	// session handshake compares them.
	Digest [sha256.Size]byte
}

// Compile runs the generator once: its events go straight into the level
// scheduler and the stream's digest (circuit.Compile), sized by
// FastCount's statistics, and nothing records them. Generation and
// scheduling cost (layer traversal, constant folding, wire recycling,
// levelling) is paid here; each inference then walks Schedule and pays
// only for the cryptography.
func Compile(net *nn.Network, f fixed.Format, opt Options) (*Program, error) {
	hint, _, err := FastCount(net, f, opt)
	if err != nil {
		return nil, err
	}
	gen := func(s circuit.Sink) (*Layout, circuit.Stats, error) {
		b := circuit.NewBuilder(s, circuit.WithRecycling())
		lay, err := Generate(b, net, f, opt)
		return lay, b.Stats(), err
	}
	p := &Program{}
	var td [sha256.Size]byte
	p.Schedule, td, err = circuit.Compile(func(s circuit.Sink) (err error) {
		p.Layout, p.Stats, err = gen(s)
		return err
	}, hint)
	if err != nil {
		return nil, err
	}
	p.Digest = sha256.Sum256(fmt.Appendf(td[:], "|Q%d.%d|%+v", f.IntBits, f.FracBits, opt))
	p.Tape = circuit.Regenerate(func(s circuit.Sink) error { _, _, err := gen(s); return err }, p.Stats)
	return p, nil
}

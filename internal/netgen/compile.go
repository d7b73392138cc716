package netgen

import (
	"crypto/sha256"
	"fmt"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
)

// Program is a compiled inference netlist: the recorded event tape, the
// level schedule compiled from it, its wire layout and gate accounting.
// The netlist is a public, deterministic function of the (architecture,
// format, options) triple, so both protocol parties compile byte-identical
// programs independently and walk the schedule in lockstep — once per
// inference, with fresh labels, without ever re-running the generator.
//
// A Program is immutable after Compile and safe for concurrent use by any
// number of sessions.
type Program struct {
	Tape *circuit.Tape
	// Schedule is the level-parallel execution plan derived from the
	// tape: strata of mutually independent gates with per-level wire
	// liveness, which the core engine garbles/evaluates with a worker
	// pool. Both parties compile byte-identical programs, so they agree
	// on every hash tweak and table offset the schedule assigns.
	Schedule *circuit.Schedule
	Layout   *Layout
	Stats    circuit.Stats
	// Digest names the program: sha256 over the tape's digest, the format
	// and the options. Parties whose digests agree replay the same netlist
	// at the same word width; the session handshake compares them.
	Digest [sha256.Size]byte
}

// Compile generates the network's netlist once, recording it as a tape,
// and replays the tape once into the level schedule. Generation and
// scheduling cost (layer traversal, constant folding, wire recycling,
// levelling) is paid here; each inference then walks Schedule and pays
// only for the cryptography.
func Compile(net *nn.Network, f fixed.Format, opt Options) (*Program, error) {
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	lay, err := Generate(b, net, f, opt)
	if err != nil {
		return nil, err
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		return nil, err
	}
	td := tape.Digest()
	digest := sha256.Sum256(fmt.Appendf(td[:], "|Q%d.%d|%+v", f.IntBits, f.FracBits, opt))
	return &Program{Tape: tape, Schedule: sched, Layout: lay, Stats: b.Stats(), Digest: digest}, nil
}

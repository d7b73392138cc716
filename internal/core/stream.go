package core

import (
	"deepsecure/internal/circuit"
)

// This file runs the engine of engine.go on a netlist no party compiles:
// the §3.3 outsourced deployment, whose proxy and main server each feed the
// generator's event stream (netgen.Generate into a recycling
// circuit.Builder) straight into circuit's scheduler, so neither
// materialises the program (§3.5). The scheduler hands off a fragment every
// streamWindow gates, levelled, renamed and checked as a compiled schedule
// is (circuit.Stream), and the engine runs it with the walk a session runs
// its schedule with. Both parties generate the same stream, so they cut the
// same fragments, number the same ANDs and agree on every tweak and table
// offset.

// tableChunk is the garbled-table flush threshold: tables stream to the
// evaluator in frames of roughly this size so neither party ever holds a
// whole netlist's tables in memory (§3.5).
const tableChunk = 1 << 20

// streamWindow is the number of gates the scheduler levels at once on the
// §3.3 stream. Raw B3's outsourced stream (32.5 M gates) makes 497
// fragments and 130 922 levels of 81 ANDs on average (33 at 2^14 gates,
// 133 at 2^18; -live ran as fast at all three). The window's tables, about
// 52 B a gate (the gates twice, their keys, the drops and the definitions),
// are 3.3 MB, reused from fragment to fragment; a level run's garbled
// tables, and so the main server's cap on a table frame, are at most 2 MiB.
const streamWindow = 1 << 16

// runStream levels the event stream emit produces in fragments of at most
// streamWindow gates and runs each: grow makes the engine's label store
// hold the fragment's wires, growing it geometrically since the namespace
// creeps up from fragment to fragment, and run walks the fragment.
func runStream(emit func(circuit.Sink) error, grow func(uint32), run func(*circuit.Schedule) error) error {
	var grown uint32
	return circuit.Stream(streamWindow, emit, func(s *circuit.Schedule) error {
		if s.NumWires > grown {
			grown = max(s.NumWires, 2*grown)
			grow(grown)
		}
		return run(s)
	})
}

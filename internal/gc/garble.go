package gc

import (
	"fmt"
	"io"

	"deepsecure/internal/circuit"
)

// Garbler holds the garbling state for one protocol session: the global
// Free-XOR delta, the zero-label of every live wire, and the gate counter
// that keys the hash tweaks. It is driven gate-by-gate in netlist order,
// as a B=1 BatchGarbler running one-gate levels through the level kernel.
type Garbler struct {
	R   Label // the Free-XOR delta, bg.R[0]
	bg  *BatchGarbler
	h   *Hasher
	gid uint64

	// Stats
	ANDGates  int64
	FreeGates int64
}

// NewGarbler creates a garbler drawing randomness from rng and assigns
// labels to the two constant wires.
func NewGarbler(rng io.Reader) (*Garbler, error) {
	bg, err := NewBatchGarbler(rng, 1)
	if err != nil {
		return nil, err
	}
	return &Garbler{R: bg.R[0], bg: bg, h: NewHasher()}, nil
}

// AssignInput draws a fresh zero-label for wire w and returns it.
func (g *Garbler) AssignInput(w uint32) (Label, error) {
	if err := g.bg.AssignInput(w); err != nil {
		return Label{}, err
	}
	return g.bg.labels[w], nil
}

// AssignEvaluatorInput is AssignInput for a wire whose bit the evaluator
// chooses: the zero-label gets permute bit 0, so the colour of the label
// that party receives is the bit it chose, and a half AND may take the wire
// in slot B. It costs one of the label's 128 bits, as RandomDelta's does R.
func (g *Garbler) AssignEvaluatorInput(w uint32) (Label, error) {
	if err := g.bg.AssignInputs([]uint32{w}, true); err != nil {
		return Label{}, err
	}
	return g.bg.labels[w], nil
}

// ZeroLabel returns the zero-semantics label of wire w.
func (g *Garbler) ZeroLabel(w uint32) (Label, error) { return g.bg.ZeroLabel(w, 0) }

// ActiveLabel returns the label encoding the given plaintext bit on wire w
// (zero-label for 0, zero-label ⊕ R for 1).
func (g *Garbler) ActiveLabel(w uint32, bit bool) (Label, error) {
	return g.bg.ActiveLabel(w, 0, bit)
}

// ConstLabels returns the active labels of the two constant wires, which
// the garbler sends to the evaluator at session start.
func (g *Garbler) ConstLabels() (lFalse, lTrue Label, err error) {
	lFalse, err = g.ActiveLabel(circuit.WFalse, false)
	if err != nil {
		return
	}
	lTrue, err = g.ActiveLabel(circuit.WTrue, true)
	return
}

// Garble processes one gate against the internal AND counter, the
// streaming face of the engine: for AND gates it appends the gate's
// ciphertexts (its Op's TableBytes) to table and returns the extended
// slice; XOR and INV gates are free and return table unchanged.
func (g *Garbler) Garble(gate circuit.Gate, table []byte) ([]byte, error) {
	g.bg.ensure(gate.Out)
	one := []circuit.Gate{gate}
	switch gate.Op {
	case circuit.XOR, circuit.INV:
		lv, err := g.bg.prepare(nil, one, 0, nil)
		if err != nil {
			return table, err
		}
		g.bg.garbleSpan(g.h, &lv, 0, 0, 0, 1)
		g.FreeGates++
		return table, nil

	case circuit.AND, circuit.HalfAND:
		off := len(table)
		table = append(table, make([]byte, gate.Op.TableBytes())...)
		lv, err := g.bg.prepare(one, nil, g.gid, table[off:])
		if err != nil {
			return table[:off], err
		}
		g.bg.garbleSpan(g.h, &lv, 0, 1, 0, 0)
		g.gid++
		g.ANDGates++
		return table, nil

	default:
		return table, fmt.Errorf("gc: cannot garble op %v", gate.Op)
	}
}

// Drop forgets the label of a dead wire (its id may be recycled).
func (g *Garbler) Drop(w uint32) { g.bg.Drop(w) }

// DecodeBit maps an output-wire label reported by the evaluator back to a
// plaintext bit, verifying the label is authentic (it must be one of the
// two labels the garbler created for the wire). A tampered or corrupted
// evaluation fails here instead of yielding a wrong bit.
func (g *Garbler) DecodeBit(w uint32, reported Label) (bool, error) {
	zero, err := g.ZeroLabel(w)
	if err != nil {
		return false, err
	}
	if reported == zero {
		return false, nil
	}
	if reported == zero.XOR(g.R) {
		return true, nil
	}
	return false, fmt.Errorf("gc: output label for wire %d is not authentic", w)
}

package gc

import (
	"fmt"

	"deepsecure/internal/circuit"
)

// Evaluator holds the evaluation state: the single active label per live
// wire and the same gate counter the garbler uses for hash tweaks. It is a
// B=1 BatchEvaluator running one-gate levels through the level kernel.
type Evaluator struct {
	be  *BatchEvaluator
	h   *Hasher
	gid uint64
}

// NewEvaluator creates an evaluator. The constant-wire labels must be set
// with SetLabel before any gate referencing them is evaluated.
func NewEvaluator() *Evaluator {
	return &Evaluator{be: &BatchEvaluator{labelStore{b: 1}}, h: NewHasher()}
}

// SetLabel installs the active label for wire w (inputs, constants).
func (e *Evaluator) SetLabel(w uint32, l Label) { e.be.SetLabel(w, 0, l) }

// Label returns the active label of wire w.
func (e *Evaluator) Label(w uint32) (Label, error) { return e.be.Label(w, 0) }

// Eval processes one gate against the internal AND counter, the
// streaming face of the engine: for AND gates it consumes the gate's
// ciphertexts (its Op's TableBytes) from table and returns the remainder;
// XOR and INV gates consume nothing.
func (e *Evaluator) Eval(gate circuit.Gate, table []byte) ([]byte, error) {
	e.be.ensure(gate.Out)
	one := []circuit.Gate{gate}
	switch gate.Op {
	case circuit.XOR, circuit.INV:
		lv, err := e.be.prepare(nil, one, 0, nil)
		if err != nil {
			return table, err
		}
		e.be.evalSpan(e.h, &lv, 0, 0, 0, 1)
		return table, nil

	case circuit.AND, circuit.HalfAND:
		n := gate.Op.TableBytes()
		if len(table) < n {
			return table, fmt.Errorf("gc: garbled table underrun (have %d bytes, need %d)", len(table), n)
		}
		lv, err := e.be.prepare(one, nil, e.gid, table[:n])
		if err != nil {
			return table, err
		}
		e.be.evalSpan(e.h, &lv, 0, 1, 0, 0)
		e.gid++
		return table[n:], nil

	default:
		return table, fmt.Errorf("gc: cannot evaluate op %v", gate.Op)
	}
}

// Drop forgets a dead wire's label.
func (e *Evaluator) Drop(w uint32) { e.be.Drop(w) }

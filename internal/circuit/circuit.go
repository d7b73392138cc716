// Package circuit implements the Boolean-netlist substrate of DeepSecure.
//
// A netlist is a topologically ordered list of 2-input gates over a wire
// namespace (paper §2.2.2). Following the Free-XOR cost model (§2.3), the
// gate set is restricted to XOR, AND, and INV: XOR and INV are free to
// garble, and an AND costs two 128-bit ciphertexts (half-gates) — or one,
// as a HalfAND, when an operand is a raw evaluator-input wire, whose bit the
// evaluator holds in the clear; the Builder picks that kind and nothing
// else does. Richer gates (OR, MUX) are lowered by the Builder.
//
// Wire ids 0 and 1 are reserved for the constants false and true. The
// Builder performs constant folding, so emitted gates never have constant
// operands; the reserved wires can still appear as circuit outputs.
//
// Three backends consume netlists:
//   - Graph: materializes a *Circuit for plaintext evaluation and analysis,
//   - Counter: gate statistics only (for paper-scale circuits),
//   - any custom Sink (the GC garbler/evaluator stream gates this way,
//     which is what gives DeepSecure its constant memory footprint, §3.5).
package circuit

import "fmt"

// Op is a gate operation.
type Op uint8

// Gate operations. INV is unary (B is ignored). HalfAND is the AND whose B
// operand is a raw evaluator-input wire: the same function, half the table.
const (
	XOR Op = iota
	AND
	INV
	HalfAND
)

// CiphertextSize is the byte size of one garbled-table ciphertext
// (gc.LabelSize; core's TestScheduleTableSizePin holds the two together).
const CiphertextSize = 16

// TableBytes returns the garbled-table size of one gate of this kind.
func (o Op) TableBytes() int {
	switch o {
	case AND:
		return 2 * CiphertextSize
	case HalfAND:
		return CiphertextSize
	}
	return 0
}

// String returns the conventional netlist mnemonic for the op.
func (o Op) String() string {
	switch o {
	case XOR:
		return "XOR"
	case AND:
		return "AND"
	case INV:
		return "INV"
	case HalfAND:
		return "HAND"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Reserved constant wires.
const (
	WFalse uint32 = 0
	WTrue  uint32 = 1
)

// Party identifies which protocol party owns an input wire.
type Party uint8

// The two GC parties. In DeepSecure the client (data owner) garbles and
// the server (model owner) evaluates (§3.1).
const (
	Garbler   Party = iota // client / Alice
	Evaluator              // server / Bob
)

// String names the party.
func (p Party) String() string {
	if p == Garbler {
		return "garbler"
	}
	return "evaluator"
}

// Gate is one netlist entry. Out is always a freshly allocated (or
// recycled) wire; A and B are already-defined wires. For INV, B is unused;
// for HalfAND, B is the evaluator-input wire.
type Gate struct {
	Op   Op
	A, B uint32
	Out  uint32
}

// Stats aggregates gate counts for a netlist. XOR and INV gates are free
// under Free-XOR; AND gates are the non-XOR population that determines
// both communication and most of the computation (Table 2). AND counts
// every table-bearing gate, HalfAND the one-ciphertext subset of them.
type Stats struct {
	XOR     int64
	AND     int64
	HalfAND int64
	INV     int64

	GarblerInputs   int64
	EvaluatorInputs int64
	Outputs         int64
	MaxLive         int64 // peak number of live wires seen (streaming)
}

// NonXOR returns the number of gates that need garbled tables.
func (s Stats) NonXOR() int64 { return s.AND }

// Ciphertexts returns the number of 128-bit ciphertexts in the netlist's
// garbled tables, the unit of the paper's Eq. 4.
func (s Stats) Ciphertexts() int64 { return 2*s.AND - s.HalfAND }

// FreeXOR returns the number of gates that garble for free (XOR + INV).
func (s Stats) FreeXOR() int64 { return s.XOR + s.INV }

// Total returns the total gate count.
func (s Stats) Total() int64 { return s.XOR + s.AND + s.INV }

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.XOR += o.XOR
	s.AND += o.AND
	s.HalfAND += o.HalfAND
	s.INV += o.INV
	s.GarblerInputs += o.GarblerInputs
	s.EvaluatorInputs += o.EvaluatorInputs
	s.Outputs += o.Outputs
	if o.MaxLive > s.MaxLive {
		s.MaxLive = o.MaxLive
	}
}

// count tallies one gate of kind op.
func (s *Stats) count(op Op) {
	switch op {
	case XOR:
		s.XOR++
	case HalfAND:
		s.HalfAND++
		s.AND++
	case AND:
		s.AND++
	case INV:
		s.INV++
	}
}

// String renders the stats in the Table 3/4 style.
func (s Stats) String() string {
	return fmt.Sprintf("#XOR=%d #non-XOR=%d #ciphertexts=%d (#INV=%d, in_g=%d, in_e=%d, out=%d)",
		s.XOR, s.AND, s.Ciphertexts(), s.INV, s.GarblerInputs, s.EvaluatorInputs, s.Outputs)
}

// Sink consumes netlist events in generation order. Implementations must
// tolerate OnDrop for wires they never stored (it is advisory).
type Sink interface {
	// OnInputs is called when a batch of input wires owned by party is
	// declared. Wires in a batch are fresh and contiguous in declaration
	// order (not necessarily in id order when recycling is enabled).
	OnInputs(party Party, wires []uint32) error
	// OnGate is called once per gate in topological order.
	OnGate(g Gate) error
	// OnOutputs is called when wires are marked as circuit outputs.
	OnOutputs(wires []uint32) error
	// OnDrop signals that a wire's value is dead and its storage may be
	// reclaimed. The wire id may later be recycled for a new gate output.
	OnDrop(w uint32) error
}

// Circuit is a materialized netlist (Graph backend output).
type Circuit struct {
	NWires          uint32
	GarblerInputs   []uint32
	EvaluatorInputs []uint32
	Outputs         []uint32
	Gates           []Gate
}

// Stats computes gate statistics for the materialized circuit.
func (c *Circuit) Stats() Stats {
	var s Stats
	for _, g := range c.Gates {
		s.count(g.Op)
	}
	s.GarblerInputs = int64(len(c.GarblerInputs))
	s.EvaluatorInputs = int64(len(c.EvaluatorInputs))
	s.Outputs = int64(len(c.Outputs))
	return s
}

// Eval runs the circuit on plaintext bits: garbler inputs bound in
// declaration order, then evaluator inputs. It returns output bits in
// output-declaration order.
func (c *Circuit) Eval(garblerBits, evaluatorBits []bool) ([]bool, error) {
	lanes, err := c.EvalLanes(toLanes(garblerBits), toLanes(evaluatorBits))
	out := make([]bool, len(lanes))
	for i, v := range lanes {
		out[i] = v&1 == 1
	}
	return out, err
}

func toLanes(bits []bool) []uint64 {
	out := make([]uint64, len(bits))
	for i, v := range bits {
		if v {
			out[i] = 1
		}
	}
	return out
}

// EvalLanes is Eval on 64 independent assignments at once: bit l of every
// input and output word belongs to assignment l. Exhaustive equivalence
// tests sweep whole input spaces with it.
func (c *Circuit) EvalLanes(garbler, evaluator []uint64) ([]uint64, error) {
	if len(garbler) != len(c.GarblerInputs) {
		return nil, fmt.Errorf("circuit: got %d garbler bits, want %d", len(garbler), len(c.GarblerInputs))
	}
	if len(evaluator) != len(c.EvaluatorInputs) {
		return nil, fmt.Errorf("circuit: got %d evaluator bits, want %d", len(evaluator), len(c.EvaluatorInputs))
	}
	vals := make([]uint64, c.NWires)
	vals[WTrue] = ^uint64(0)
	for i, w := range c.GarblerInputs {
		vals[w] = garbler[i]
	}
	for i, w := range c.EvaluatorInputs {
		vals[w] = evaluator[i]
	}
	for _, g := range c.Gates {
		switch g.Op {
		case XOR:
			vals[g.Out] = vals[g.A] ^ vals[g.B]
		case AND, HalfAND:
			vals[g.Out] = vals[g.A] & vals[g.B]
		case INV:
			vals[g.Out] = ^vals[g.A]
		default:
			return nil, fmt.Errorf("circuit: unknown op %v", g.Op)
		}
	}
	out := make([]uint64, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = vals[w]
	}
	return out, nil
}

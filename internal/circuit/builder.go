package circuit

import "fmt"

// Builder constructs netlists gate-by-gate, folding constants so that no
// emitted gate has a constant operand; the rest of the paper's GC-optimized
// synthesis (§3.4) is in how the stdcell and netgen generators are written.
// Every gate it does not fold is emitted, never shared with an earlier
// one, so Build, Count and a streaming sink see one netlist.
//
// With recycling enabled (streaming mode), Drop returns wire ids to a free
// list so that arbitrarily large netlists use a bounded wire namespace —
// the sequential-circuit memory-footprint property of §3.5.
//
// The Builder is also the one place the half AND is chosen: Inputs tags the
// evaluator's wires and AND emits a HalfAND, tagged operand in slot B, when
// an operand carries the tag. The tag names a raw input wire: no gate's
// output inherits it (its permute bit is secret again) and allocating the
// id afresh clears it.
type Builder struct {
	sink Sink
	next uint32
	err  error

	// recycling state (streaming mode)
	free    []uint32
	recycle bool
	dead    []bool     // idempotent-Drop guard when recycling (ids stay small)
	scopes  [][]uint32 // wires allocated per open scope

	evalIn []bool // per allocated wire id: is a raw evaluator-input wire

	stats Stats
	live  int64
}

// Option configures a Builder.
type Option func(*Builder)

// WithRecycling enables wire-id recycling driven by Drop, bounding the wire
// namespace for streaming generation.
func WithRecycling() Option { return func(b *Builder) { b.recycle = true } }

// NewBuilder returns a Builder feeding the given sink.
func NewBuilder(sink Sink, opts ...Option) *Builder {
	b := &Builder{
		sink:   sink,
		next:   2, // 0 and 1 reserved for constants
		evalIn: make([]bool, 2),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Err returns the first error reported by the sink, if any. Once a sink
// errors the builder becomes inert (gates return WFalse).
func (b *Builder) Err() error { return b.err }

// Stats returns the statistics accumulated so far.
func (b *Builder) Stats() Stats { return b.stats }

func (b *Builder) fail(err error) uint32 {
	if b.err == nil {
		b.err = err
	}
	return WFalse
}

func (b *Builder) alloc() uint32 {
	var w uint32
	if b.recycle && len(b.free) > 0 {
		w = b.free[len(b.free)-1]
		b.free = b.free[:len(b.free)-1]
		b.dead[w], b.evalIn[w] = false, false
	} else {
		w = b.next
		b.next++
		b.evalIn = append(b.evalIn, false)
	}
	if n := len(b.scopes); n > 0 {
		b.scopes[n-1] = append(b.scopes[n-1], w)
	}
	return w
}

func (b *Builder) grew() {
	b.live++
	if b.live > b.stats.MaxLive {
		b.stats.MaxLive = b.live
	}
}

// Const returns the wire carrying the given constant.
func (b *Builder) Const(v bool) uint32 {
	if v {
		return WTrue
	}
	return WFalse
}

func isConst(w uint32) bool { return w == WFalse || w == WTrue }

// Inputs declares n fresh input wires owned by party.
func (b *Builder) Inputs(party Party, n int) []uint32 {
	if b.err != nil {
		return make([]uint32, n)
	}
	ws := make([]uint32, n)
	for i := range ws {
		ws[i] = b.alloc()
		b.grew()
	}
	if party == Garbler {
		b.stats.GarblerInputs += int64(n)
	} else {
		b.stats.EvaluatorInputs += int64(n)
		for _, w := range ws {
			b.evalIn[w] = true
		}
	}
	if err := b.sink.OnInputs(party, ws); err != nil {
		b.fail(err)
	}
	return ws
}

// Outputs marks wires as circuit outputs (constants allowed).
func (b *Builder) Outputs(ws ...uint32) {
	if b.err != nil {
		return
	}
	b.stats.Outputs += int64(len(ws))
	if err := b.sink.OnOutputs(ws); err != nil {
		b.fail(err)
	}
}

// Drop declares wires dead. In recycling mode their ids are reused for
// future gate outputs, so callers must never reference a dropped wire
// again. Constants and already-dropped wires are silently ignored (words
// often alias wires, e.g. sign extension, so Drop must be idempotent).
func (b *Builder) Drop(ws ...uint32) {
	if b.err != nil {
		return
	}
	for _, w := range ws {
		if isConst(w) {
			continue
		}
		if b.recycle {
			for uint32(len(b.dead)) <= w {
				b.dead = append(b.dead, false)
			}
			if b.dead[w] {
				continue
			}
			b.dead[w] = true
			b.free = append(b.free, w)
		}
		if err := b.sink.OnDrop(w); err != nil {
			b.fail(err)
			return
		}
		b.live--
	}
}

// BeginScope starts recording wire allocations. EndScope drops everything
// allocated since the matching BeginScope except the kept wires — the
// mechanism netgen uses to reclaim the intermediates inside each
// multiply-accumulate or activation block, which is what bounds the GC
// memory footprint for arbitrarily large models (§3.5). Scopes only
// reclaim in recycling mode; with a materializing builder they are no-ops.
// Scopes nest.
func (b *Builder) BeginScope() {
	b.scopes = append(b.scopes, nil)
}

// EndScope closes the innermost scope, dropping all wires allocated in it
// except those in keep. Kept wires are credited to the enclosing scope (if
// any) so nested scopes compose.
func (b *Builder) EndScope(keep ...uint32) {
	n := len(b.scopes)
	if n == 0 {
		panic("circuit: EndScope without BeginScope")
	}
	allocated := b.scopes[n-1]
	b.scopes = b.scopes[:n-1]
	if !b.recycle {
		return
	}
	keepSet := make(map[uint32]struct{}, len(keep))
	for _, w := range keep {
		keepSet[w] = struct{}{}
	}
	for _, w := range allocated {
		if _, ok := keepSet[w]; ok {
			if n := len(b.scopes); n > 0 {
				b.scopes[n-1] = append(b.scopes[n-1], w)
			}
			continue
		}
		b.Drop(w)
	}
}

func (b *Builder) emit(op Op, a, bb uint32) uint32 {
	if b.err != nil {
		return WFalse
	}
	out := b.alloc()
	b.grew()
	b.stats.count(op)
	if err := b.sink.OnGate(Gate{Op: op, A: a, B: bb, Out: out}); err != nil {
		return b.fail(err)
	}
	return out
}

// XOR returns a ^ b with constant folding.
func (b *Builder) XOR(x, y uint32) uint32 {
	switch {
	case x == y:
		return WFalse
	case x == WFalse:
		return y
	case y == WFalse:
		return x
	case x == WTrue:
		return b.INV(y)
	case y == WTrue:
		return b.INV(x)
	}
	return b.emit(XOR, x, y)
}

// AND returns a & b with constant folding. An operand that is a raw
// evaluator-input wire makes it a HalfAND with that operand in slot B (y
// when both are).
func (b *Builder) AND(x, y uint32) uint32 {
	switch {
	case x == y:
		return x
	case x == WFalse || y == WFalse:
		return WFalse
	case x == WTrue:
		return y
	case y == WTrue:
		return x
	}
	switch {
	case b.evalIn[y]:
		return b.emit(HalfAND, x, y)
	case b.evalIn[x]:
		return b.emit(HalfAND, y, x)
	}
	return b.emit(AND, x, y)
}

// INV returns !a with constant folding.
func (b *Builder) INV(x uint32) uint32 {
	switch x {
	case WFalse:
		return WTrue
	case WTrue:
		return WFalse
	}
	return b.emit(INV, x, 0)
}

// Derived gates, lowered onto {XOR, AND, INV}. OR costs one AND (by
// De Morgan with free INVs).

// OR returns a | b (one non-XOR gate).
func (b *Builder) OR(x, y uint32) uint32 {
	return b.INV(b.AND(b.INV(x), b.INV(y)))
}

// MUX returns t when sel is 1, f when sel is 0, costing a single AND:
// out = f ^ (sel & (t ^ f)).
func (b *Builder) MUX(sel, t, f uint32) uint32 {
	return b.XOR(f, b.AND(sel, b.XOR(t, f)))
}

// Graph is a Sink that materializes a Circuit.
type Graph struct {
	c Circuit
}

// NewGraph returns an empty materializing sink.
func NewGraph() *Graph { return &Graph{} }

// OnInputs implements Sink.
func (g *Graph) OnInputs(p Party, ws []uint32) error {
	if p == Garbler {
		g.c.GarblerInputs = append(g.c.GarblerInputs, ws...)
	} else {
		g.c.EvaluatorInputs = append(g.c.EvaluatorInputs, ws...)
	}
	g.bump(ws...)
	return nil
}

// OnGate implements Sink.
func (g *Graph) OnGate(gt Gate) error {
	g.c.Gates = append(g.c.Gates, gt)
	g.bump(gt.A, gt.B, gt.Out)
	return nil
}

// OnOutputs implements Sink.
func (g *Graph) OnOutputs(ws []uint32) error {
	g.c.Outputs = append(g.c.Outputs, ws...)
	g.bump(ws...)
	return nil
}

// OnDrop implements Sink. Materialized circuits keep everything.
func (g *Graph) OnDrop(uint32) error { return nil }

func (g *Graph) bump(ws ...uint32) {
	for _, w := range ws {
		if w+1 > g.c.NWires {
			g.c.NWires = w + 1
		}
	}
}

// Circuit returns the materialized circuit. The minimum NWires is 2 for
// the constant wires.
func (g *Graph) Circuit() *Circuit {
	if g.c.NWires < 2 {
		g.c.NWires = 2
	}
	return &g.c
}

// Counter is a Sink that discards everything; use Builder.Stats for the
// numbers. It exists so paper-scale netlists (10^9+ gates) can be counted
// without materialization.
type Counter struct{}

// OnInputs implements Sink.
func (Counter) OnInputs(Party, []uint32) error { return nil }

// OnGate implements Sink.
func (Counter) OnGate(Gate) error { return nil }

// OnOutputs implements Sink.
func (Counter) OnOutputs([]uint32) error { return nil }

// OnDrop implements Sink.
func (Counter) OnDrop(uint32) error { return nil }

// Build runs gen against a fresh materializing builder — no recycling, so
// every wire id stays distinct — and returns the circuit, gate for gate the
// netlist Count counts.
func Build(gen func(b *Builder)) (*Circuit, error) {
	g := NewGraph()
	b := NewBuilder(g)
	gen(b)
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("circuit build: %w", err)
	}
	return g.Circuit(), nil
}

// Count runs gen against a counting builder and returns the statistics.
func Count(gen func(b *Builder)) (Stats, error) {
	b := NewBuilder(Counter{}, WithRecycling())
	gen(b)
	if err := b.Err(); err != nil {
		return Stats{}, fmt.Errorf("circuit count: %w", err)
	}
	return b.Stats(), nil
}

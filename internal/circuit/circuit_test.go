package circuit

import (
	"bytes"
	"strings"
	"testing"
)

func buildSmall(t *testing.T) *Circuit {
	t.Helper()
	c, err := Build(func(b *Builder) {
		g := b.Inputs(Garbler, 2)
		e := b.Inputs(Evaluator, 1)
		x := b.XOR(g[0], g[1])
		y := b.AND(x, e[0])
		z := b.INV(y)
		b.Outputs(y, z)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvalTruthTable(t *testing.T) {
	c := buildSmall(t)
	for a := 0; a < 2; a++ {
		for bb := 0; bb < 2; bb++ {
			for e := 0; e < 2; e++ {
				got, err := c.Eval([]bool{a == 1, bb == 1}, []bool{e == 1})
				if err != nil {
					t.Fatal(err)
				}
				want := (a != bb) && e == 1
				if got[0] != want || got[1] != !want {
					t.Errorf("eval(%d,%d,%d) = %v, want [%v %v]", a, bb, e, got, want, !want)
				}
			}
		}
	}
}

func TestEvalInputLengthErrors(t *testing.T) {
	c := buildSmall(t)
	if _, err := c.Eval([]bool{true}, []bool{true}); err == nil {
		t.Error("short garbler inputs should error")
	}
	if _, err := c.Eval([]bool{true, false}, nil); err == nil {
		t.Error("short evaluator inputs should error")
	}
}

func TestConstantFolding(t *testing.T) {
	c, err := Build(func(b *Builder) {
		in := b.Inputs(Garbler, 1)
		w := in[0]
		// All of these must fold without emitting gates.
		if got := b.XOR(w, b.Const(false)); got != w {
			t.Errorf("XOR(w,0) = %d, want %d", got, w)
		}
		if got := b.AND(w, b.Const(true)); got != w {
			t.Errorf("AND(w,1) = %d, want %d", got, w)
		}
		if got := b.AND(w, b.Const(false)); got != WFalse {
			t.Errorf("AND(w,0) = %d, want const false", got)
		}
		if got := b.XOR(w, w); got != WFalse {
			t.Errorf("XOR(w,w) = %d, want const false", got)
		}
		if got := b.AND(w, w); got != w {
			t.Errorf("AND(w,w) = %d, want %d", got, w)
		}
		if got := b.INV(b.Const(false)); got != WTrue {
			t.Errorf("INV(0) = %d", got)
		}
		b.Outputs(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Gates); n != 0 {
		t.Errorf("folding failed: %d gates emitted", n)
	}
}

func TestXORWithTrueBecomesINV(t *testing.T) {
	c, err := Build(func(b *Builder) {
		in := b.Inputs(Garbler, 1)
		b.Outputs(b.XOR(in[0], b.Const(true)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Op != INV {
		t.Errorf("XOR(w,1) should lower to one INV, got %v", c.Gates)
	}
}

func TestDerivedGates(t *testing.T) {
	c, err := Build(func(b *Builder) {
		in := b.Inputs(Garbler, 3)
		a, bb, s := in[0], in[1], in[2]
		b.Outputs(
			b.OR(a, bb),
			b.MUX(s, a, bb),
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		for bb := 0; bb < 2; bb++ {
			for s := 0; s < 2; s++ {
				av, bv, sv := a == 1, bb == 1, s == 1
				got, err := c.Eval([]bool{av, bv, sv}, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := []bool{
					av || bv,
					(sv && av) || (!sv && bv),
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("derived gate %d wrong for (%v,%v,%v): got %v want %v", i, av, bv, sv, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestMUXCostsOneAND(t *testing.T) {
	c, err := Build(func(b *Builder) {
		in := b.Inputs(Garbler, 3)
		b.Outputs(b.MUX(in[2], in[0], in[1]))
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.AND != 1 {
		t.Errorf("MUX AND count = %d, want 1", s.AND)
	}
}

func TestRecyclingReusesWireIDs(t *testing.T) {
	b := NewBuilder(Counter{}, WithRecycling())
	in := b.Inputs(Garbler, 2)
	w1 := b.XOR(in[0], in[1])
	w1id := w1
	b.Drop(w1)
	w2 := b.AND(in[0], in[1])
	if w2 != w1id {
		t.Errorf("recycling: new gate got wire %d, want recycled %d", w2, w1id)
	}
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	s := b.Stats()
	if s.XOR != 1 || s.AND != 1 {
		t.Errorf("stats = %v", s)
	}
}

func TestMaxLiveTracking(t *testing.T) {
	b := NewBuilder(Counter{}, WithRecycling())
	in := b.Inputs(Garbler, 4)
	// Chain that drops as it goes: live should stay bounded.
	acc := b.XOR(in[0], in[1])
	for i := 0; i < 100; i++ {
		nxt := b.AND(acc, in[2])
		b.Drop(acc)
		acc = nxt
	}
	s := b.Stats()
	if s.MaxLive > 7 {
		t.Errorf("MaxLive = %d, want small bounded value", s.MaxLive)
	}
}

func TestCountMatchesBuild(t *testing.T) {
	gen := func(b *Builder) {
		g := b.Inputs(Garbler, 8)
		acc := g[0]
		for i := 1; i < 8; i++ {
			acc = b.AND(acc, b.XOR(g[i], g[i-1]))
		}
		b.Outputs(acc)
	}
	c, err := Build(gen)
	if err != nil {
		t.Fatal(err)
	}
	cs := c.Stats()
	ks, err := Count(gen)
	if err != nil {
		t.Fatal(err)
	}
	if cs.XOR != ks.XOR || cs.AND != ks.AND {
		t.Errorf("count mismatch: build %v vs count %v", cs, ks)
	}
}

// TestWriteNetlistGolden pins the exported text format on a five-gate
// circuit with every directive and gate kind in it.
func TestWriteNetlistGolden(t *testing.T) {
	c, err := Build(func(b *Builder) {
		g := b.Inputs(Garbler, 2)
		e := b.Inputs(Evaluator, 2)
		x := b.XOR(g[0], g[1])
		y := b.AND(x, e[0])
		z := b.INV(y)
		b.Outputs(b.XOR(b.AND(z, e[1]), x), z)
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	const want = `deepsecure-netlist v1
garbler_inputs 2 3
evaluator_inputs 4 5
gate XOR 2 3 6
gate HAND 6 4 7
gate INV 7 0 8
gate HAND 8 5 9
gate XOR 9 6 10
outputs 10 8
end
`
	if got := buf.String(); got != want {
		t.Fatalf("netlist text:\n%s\nwant:\n%s", got, want)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{XOR: 1, AND: 2, HalfAND: 1, INV: 3, MaxLive: 10}
	b := Stats{XOR: 10, AND: 20, HalfAND: 4, INV: 30, MaxLive: 5}
	a.Add(b)
	if a.XOR != 11 || a.AND != 22 || a.HalfAND != 5 || a.INV != 33 || a.MaxLive != 10 {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.NonXOR() != 22 || a.FreeXOR() != 44 || a.Total() != 66 || a.Ciphertexts() != 39 {
		t.Errorf("derived stats wrong: %+v", a)
	}
	if !strings.Contains(a.String(), "#non-XOR=22 #ciphertexts=39") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestOpString(t *testing.T) {
	if XOR.String() != "XOR" || AND.String() != "AND" || INV.String() != "INV" || HalfAND.String() != "HAND" {
		t.Error("op names wrong")
	}
	if Op(99).String() == "" {
		t.Error("unknown op should still render")
	}
	if Garbler.String() != "garbler" || Evaluator.String() != "evaluator" {
		t.Error("party names wrong")
	}
}

func TestOutputsCanBeConstants(t *testing.T) {
	c, err := Build(func(b *Builder) {
		b.Inputs(Garbler, 1)
		b.Outputs(b.Const(true), b.Const(false))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Eval([]bool{false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] {
		t.Errorf("constant outputs = %v, want [true false]", got)
	}
}

// tagLog records the gates a builder emits.
type tagLog struct {
	Counter
	gates []Gate
}

func (l *tagLog) OnGate(g Gate) error { l.gates = append(l.gates, g); return nil }

// TestHalfANDTagging pins the one rule that picks the gate kind: Inputs
// tags the evaluator's wires, the tag puts that operand in slot B of a
// HalfAND, no gate's output inherits it, and an id allocated afresh has
// lost it.
func TestHalfANDTagging(t *testing.T) {
	log := &tagLog{}
	b := NewBuilder(log, WithRecycling())
	g := b.Inputs(Garbler, 2)
	e := b.Inputs(Evaluator, 3)
	last := func() Gate { return log.gates[len(log.gates)-1] }

	full := b.AND(g[0], g[1])
	if got := last(); got.Op != AND {
		t.Errorf("AND of two garbler wires is %+v", got)
	}
	b.AND(e[0], g[0])
	if got := last(); got.Op != HalfAND || got.A != g[0] || got.B != e[0] {
		t.Errorf("AND(evaluator, garbler) = %+v, want HalfAND with the evaluator's wire in B", got)
	}
	b.AND(g[0], e[0])
	if got := last(); got.Op != HalfAND || got.A != g[0] || got.B != e[0] {
		t.Errorf("AND(garbler, evaluator) = %+v, want HalfAND with the evaluator's wire in B", got)
	}
	// Both tagged (a bias bit against a bias bit): one of them is B, and
	// either is right.
	b.AND(e[0], e[1])
	if got := last(); got.Op != HalfAND || got.A != e[0] || got.B != e[1] {
		t.Errorf("AND of two evaluator wires = %+v, want HalfAND %d %d", got, e[0], e[1])
	}
	// The tag does not pass through XOR, INV, AND or HalfAND.
	for name, w := range map[string]uint32{
		"XOR":     b.XOR(e[0], e[1]),
		"INV":     b.INV(e[0]),
		"AND":     full,
		"HalfAND": b.AND(g[1], e[1]),
		"OR":      b.OR(e[0], e[1]),
		"MUX":     b.MUX(e[0], e[1], e[2]),
	} {
		b.AND(w, g[1])
		if got := last(); got.Op != AND {
			t.Errorf("AND of a %s output = %+v, want a full AND", name, got)
		}
	}
	// Recycling: the evaluator's id comes back as a gate output, untagged;
	// a garbler's id comes back as an evaluator input, tagged.
	b.Drop(e[2])
	if y := b.XOR(g[0], g[1]); y != e[2] {
		t.Fatalf("recycling handed out wire %d, want %d", y, e[2])
	}
	b.AND(e[2], g[0])
	if got := last(); got.Op != AND {
		t.Errorf("AND of a recycled id = %+v, want a full AND", got)
	}
	b.Drop(g[1])
	e2 := b.Inputs(Evaluator, 1)
	if e2[0] != g[1] {
		t.Fatalf("recycling handed out wire %d, want %d", e2[0], g[1])
	}
	b.AND(g[0], e2[0])
	if got := last(); got.Op != HalfAND || got.B != e2[0] {
		t.Errorf("AND with a fresh evaluator input on a recycled id = %+v", got)
	}
	st := b.Stats()
	var ands, halves int64
	for _, gt := range log.gates {
		switch gt.Op {
		case HalfAND:
			halves++
			ands++
		case AND:
			ands++
		}
	}
	if st.AND != ands || st.HalfAND != halves || st.Ciphertexts() != 2*ands-halves {
		t.Errorf("builder stats %+v, emitted %d ANDs of which %d half", st, ands, halves)
	}
}

// TestHalfANDCommutedOperands: a builder emits every AND it is asked for,
// so commuted operands make a second gate, and each is a HalfAND with an
// evaluator wire in slot B.
func TestHalfANDCommutedOperands(t *testing.T) {
	var e, g []uint32
	c, err := Build(func(b *Builder) {
		e = b.Inputs(Evaluator, 2)
		g = b.Inputs(Garbler, 1)
		b.Outputs(b.AND(e[0], e[1]), b.AND(e[1], e[0]), b.AND(g[0], e[0]), b.AND(e[0], g[0]))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.AND != 4 || st.HalfAND != 4 {
		t.Fatalf("stats %+v, want 4 half ANDs", st)
	}
	wantB := []uint32{e[1], e[0], e[0], e[0]}
	for i, gt := range c.Gates {
		if gt.Op != HalfAND || gt.B != wantB[i] {
			t.Errorf("gate %d = %+v, want a HalfAND with wire %d in B", i, gt, wantB[i])
		}
	}
	out, err := c.Eval([]bool{true}, []bool{true, false})
	if err != nil || out[0] || out[1] || !out[2] || !out[3] {
		t.Errorf("eval = %v, %v; want [false false true true]", out, err)
	}
}

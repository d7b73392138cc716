package stdcell_test

import (
	"testing"

	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

// TestGateCountTable3Style pins, exactly, the cost of every component we
// report in Table 3 (benchmarks.Table3, the list deepsecure-bench and
// netlist-stats print) and of the MAC that is 99.8 % of an MLP's gates:
// these are this implementation's counts (not the paper's), so any netlist
// change, up or down, shows up here as an edited number. An external test
// package because the catalogue imports stdcell.
func TestGateCountTable3Style(t *testing.T) {
	f := fixed.Default
	n := f.Bits()
	want := map[string]int64{
		"TanhLUT": 7872, "TanhTrunc": 5119, "TanhPL": 124, "TanhCORDIC": 2178,
		"SigmoidLUT": 8930, "SigmoidTrunc": 5898, "SigmoidPLAN": 108, "SigmoidCORDIC": 2190,
		"ADD": 15, "MULT": 312, "DIV": 496, "ReLu": 15,
		"Softmax(n=10)": 309, "MVM 1x8 * 8x4": 10404,
		"MAC": 327, "MAC after ReLU": 308,
	}
	mac := func(name string, signed bool) benchmarks.Component {
		return benchmarks.Component{Name: name, Gen: func(b *circuit.Builder, f fixed.Format) {
			x := stdcell.Input(b, circuit.Garbler, n)
			if !signed {
				// Shaped like a ReLU output: the sign wire is the constant 0.
				x[n-1] = circuit.WFalse
			}
			w := stdcell.Input(b, circuit.Evaluator, fixed.BoothBits(n))
			acc := stdcell.Input(b, circuit.Garbler, n)
			b.Outputs(stdcell.Add(b, acc, stdcell.MulFixed(b, x, w, f.FracBits))...)
		}}
	}
	// The rows with an evaluator-owned weight operand pay one ciphertext,
	// not two, for each partial-product AND (211 of a signed multiplier's
	// 312 gates, 192 after a ReLU); every other row pays two per gate.
	halves := map[string]int64{"MULT": 211, "MVM 1x8 * 8x4": 32 * 211, "MAC": 211, "MAC after ReLU": 192}
	rows := append(append([]benchmarks.Component{}, benchmarks.Table3...), mac("MAC", true), mac("MAC after ReLU", false))
	for _, c := range rows {
		s, err := circuit.Count(func(b *circuit.Builder) { c.Gen(b, f) })
		if err != nil {
			t.Fatal(err)
		}
		and, pinned := want[c.Name]
		if !pinned {
			t.Errorf("%s has no pinned count (it counts %d non-XOR)", c.Name, s.AND)
		} else if s.AND != and {
			t.Errorf("%s non-XOR = %d, want %d", c.Name, s.AND, and)
		}
		if s.HalfAND != halves[c.Name] || s.Ciphertexts() != 2*and-halves[c.Name] {
			t.Errorf("%s: %d half ANDs, %d ciphertexts; want %d and %d", c.Name, s.HalfAND, s.Ciphertexts(), halves[c.Name], 2*and-halves[c.Name])
		}
		// A materialized netlist is the one that was counted, gate for gate.
		built, err := circuit.Build(func(b *circuit.Builder) { c.Gen(b, f) })
		if err != nil {
			t.Fatal(err)
		}
		if bs := built.Stats(); bs.XOR != s.XOR || bs.AND != s.AND || bs.HalfAND != s.HalfAND || bs.INV != s.INV {
			t.Errorf("%s: circuit.Build materializes %v, circuit.Count counts %v", c.Name, bs, s)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows counted, %d pinned", len(rows), len(want))
	}
}

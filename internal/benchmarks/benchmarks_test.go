package benchmarks

import (
	"testing"

	"deepsecure/internal/fixed"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
)

func TestArchitecturesMatchPaper(t *testing.T) {
	for _, b := range All {
		net, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		_ = net
	}
	// Spot checks on the shapes the paper quotes.
	b1, _ := B1()
	if b1.ShapeAt(0) != (nn.Shape{C: 5, H: 13, W: 13}) {
		t.Errorf("B1 conv out = %v, want 5×13×13 (865 units)", b1.ShapeAt(0))
	}
	b2, _ := B2()
	if active, total := b2.TotalParams(); total < 266000 || total > 270000 {
		t.Errorf("B2 params = %d (active %d), paper says ≈267K", total, active)
	}
	b3, _ := B3()
	if b3.Out().Len() != 26 {
		t.Errorf("B3 outputs = %d, want 26", b3.Out().Len())
	}
	b4, _ := B4()
	if b4.Out().Len() != 19 {
		t.Errorf("B4 outputs = %d, want 19", b4.Out().Len())
	}
}

func TestGateCountsTrackPaperOrder(t *testing.T) {
	// Our synthesis differs from the paper's Design Compiler flow, so we
	// assert order-of-magnitude agreement and strict ordering B3 < B1 <
	// B2 < B4, not exact counts. FastCount makes paper scale affordable.
	var nonXOR []float64
	for _, b := range []Benchmark{All[2], All[0], All[1], All[3]} {
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := netgen.FastCount(net, Format, netgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(s.NonXOR()) / b.Paper.NonXOR
		if ratio < 0.2 || ratio > 8 {
			t.Errorf("%s non-XOR = %.3g, paper %.3g (ratio %.2f out of band)",
				b.Name, float64(s.NonXOR()), b.Paper.NonXOR, ratio)
		}
		nonXOR = append(nonXOR, float64(s.NonXOR()))
	}
	if !(nonXOR[0] < nonXOR[1] && nonXOR[1] < nonXOR[2] && nonXOR[2] < nonXOR[3]) {
		t.Errorf("ordering B3 < B1 < B2 < B4 violated: %v", nonXOR)
	}
}

func TestCompactedReducesGates(t *testing.T) {
	b := All[2]
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := netgen.FastCount(net, Format, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cNet, err := Compacted(b)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := netgen.FastCount(cNet, Format, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fold := float64(before.NonXOR()) / float64(after.NonXOR())
	// Paper reports 6× for B3; the activation/output fraction that does
	// not scale with the MAC count keeps the realized fold a bit lower.
	if fold < 3.5 || fold > 9 {
		t.Errorf("B3 compaction fold = %.1f, want ≈6 (paper)", fold)
	}
	t.Logf("B3 fold: %.2f (paper %.0f)", fold, b.Paper.Compaction)
}

func TestCompactedDensity(t *testing.T) {
	b := All[3] // B4 has the strongest pruning (10%)
	net, err := Compacted(b)
	if err != nil {
		t.Fatal(err)
	}
	active, total := net.TotalParams()
	density := float64(active) / float64(total)
	if density > 0.13 || density < 0.07 {
		t.Errorf("B4 compacted density = %.3f, want ≈0.10", density)
	}
	if net.In.Len() != b.ProjDim {
		t.Errorf("B4 projected input = %d, want %d", net.In.Len(), b.ProjDim)
	}
}

// TestTable3ErrorColumn: ADD, DIV and ReLU are exact in fixed point,
// measured and not assumed; MULT, a truncated product, is within one ulp
// of the floor of the real product; every activation row reports an error.
func TestTable3ErrorColumn(t *testing.T) {
	f := fixed.Default
	ulp := 1 / f.Scale()
	for _, c := range Table3 {
		worst, mean, ok := c.Error(f)
		switch c.Name {
		case "ADD", "DIV", "ReLu":
			if !ok || worst != 0 {
				t.Errorf("%s: error %g (measured: %v), want exactly 0", c.Name, worst, ok)
			}
		case "MULT":
			if !ok || worst != ulp || mean <= 0 || mean > ulp/2 {
				t.Errorf("MULT: worst %g, mean %g (measured: %v), want worst = 1 ulp = %g and 0 < mean ≤ ulp/2", worst, mean, ok, ulp)
			}
		default:
			if measured := c.Model != nil || c.Kind.IsTanh() || c.Kind.IsSigmoid(); ok != measured {
				t.Errorf("%s: error measured = %v, want %v", c.Name, ok, measured)
			}
		}
	}
}

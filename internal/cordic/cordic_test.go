package cordic

import (
	"math"
	"strings"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

func TestTanhAccuracy(t *testing.T) {
	e := mustNew(t, fixed.Default)
	f := fixed.Default
	worst := 0.0
	for x := -7.99; x <= 7.99; x += 0.037 {
		in := f.FromFloat(x)
		got := e.Tanh(in).Float()
		want := math.Tanh(in.Float())
		if err := math.Abs(got - want); err > worst {
			worst = err
		}
	}
	// 12 fractional bits + ~20 stages: a few ULP of accumulated error.
	if worst > 0.004 {
		t.Errorf("tanh worst error = %g, want < 0.004", worst)
	}
}

func TestSigmoidAccuracy(t *testing.T) {
	e := mustNew(t, fixed.Default)
	f := fixed.Default
	worst := 0.0
	for x := -7.99; x <= 7.99; x += 0.041 {
		in := f.FromFloat(x)
		got := e.Sigmoid(in).Float()
		want := 1.0 / (1.0 + math.Exp(-in.Float()))
		if err := math.Abs(got - want); err > worst {
			worst = err
		}
	}
	if worst > 0.004 {
		t.Errorf("sigmoid worst error = %g, want < 0.004", worst)
	}
}

func TestRotateMatchesMathSinhCosh(t *testing.T) {
	e := mustNew(t, fixed.Default)
	f := fixed.Default
	for _, x := range []float64{0, 0.5, -0.5, 1, -1, 2.5, -2.5, 5, -5, 7.5, -7.5} {
		in := f.FromFloat(x)
		cr, sr := e.Rotate(in)
		gotCosh := e.Internal.FromRaw(cr).Float()
		gotSinh := e.Internal.FromRaw(sr).Float()
		wantCosh := math.Cosh(in.Float())
		wantSinh := math.Sinh(in.Float())
		// Relative tolerance: large magnitudes carry absolute error.
		tol := 0.002 * (1 + math.Abs(wantCosh))
		if math.Abs(gotCosh-wantCosh) > tol {
			t.Errorf("cosh(%g) = %g, want %g", x, gotCosh, wantCosh)
		}
		if math.Abs(gotSinh-wantSinh) > tol {
			t.Errorf("sinh(%g) = %g, want %g", x, gotSinh, wantSinh)
		}
	}
}

// allInputs lists every raw value of f.
func allInputs(f fixed.Format) []int64 {
	var zs []int64
	for z := f.MinRaw(); z <= f.MaxRaw(); z++ {
		zs = append(zs, z)
	}
	return zs
}

// evalAll runs a one-word-in, one-word-out circuit on every z, 64 per pass
// over the netlist.
func evalAll(t *testing.T, f fixed.Format, zs []int64, gen func(b *circuit.Builder, z stdcell.Word) stdcell.Word) []int64 {
	t.Helper()
	c, err := circuit.Build(func(b *circuit.Builder) {
		b.Outputs(gen(b, stdcell.Input(b, circuit.Garbler, f.Bits()))...)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(zs))
	in := make([]uint64, f.Bits())
	for base := 0; base < len(zs); base += 64 {
		clear(in)
		lanes := min(64, len(zs)-base)
		for l := 0; l < lanes; l++ {
			for i := range in {
				in[i] |= uint64(zs[base+l]) >> uint(i) & 1 << uint(l)
			}
		}
		res, err := c.EvalLanes(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			var v int64
			for i, r := range res {
				v |= int64(r>>uint(l)&1) << uint(i)
			}
			out[base+l] = f.Wrap(v)
		}
	}
	return out
}

// TestCircuitBitExactWithSoftware sweeps every input of Q3.12 and of the
// 8-bit format the LUT tests use: the circuits, bounded divider included,
// equal the software model, whose Div is the full-width one.
func TestCircuitBitExactWithSoftware(t *testing.T) {
	for _, f := range []fixed.Format{fixed.Default, {IntBits: 3, FracBits: 4}} {
		e := mustNew(t, f)
		zs := allInputs(f)
		tanh := evalAll(t, f, zs, e.TanhCircuit)
		sig := evalAll(t, f, zs, e.SigmoidCircuit)
		for i, z := range zs {
			in := f.FromRaw(z)
			if want := e.Tanh(in).Raw(); tanh[i] != want {
				t.Fatalf("%+v: tanh circuit(%d) = %d, software %d", f, z, tanh[i], want)
			}
			if want := e.Sigmoid(in).Raw(); sig[i] != want {
				t.Fatalf("%+v: sigmoid circuit(%d) = %d, software %d", f, z, sig[i], want)
			}
		}
	}
}

// TestQuotientFitsDivider is the precondition of the bounded divider, in
// software: for every input the magnitude quotient Tanh and Sigmoid ask
// for is below 2^quotientBits and the divisor is not zero. A format that
// breaks the bound fails here, not by wrapping inside the circuit.
func TestQuotientFitsDivider(t *testing.T) {
	for _, f := range []fixed.Format{fixed.Default, {IntBits: 3, FracBits: 4}, {IntBits: 2, FracBits: 9}} {
		e := mustNew(t, f)
		limit := int64(1) << uint(e.quotientBits())
		check := func(name string, z, num, den int64) {
			num, den = max(num, -num), max(den, -den)
			if den == 0 || num<<uint(f.FracBits)/den >= limit {
				t.Fatalf("%+v: %s(%d) divides %d by %d: the quotient does not fit %d bits", f, name, z, num, den, e.quotientBits())
			}
		}
		for _, z := range allInputs(f) {
			x, y := e.Rotate(f.FromRaw(z))
			check("tanh", z, y, x)
			check("sigmoid", z, e.oneI, e.Internal.Wrap(e.oneI+x-y))
		}
	}
}

func TestGateCountsReasonable(t *testing.T) {
	e := mustNew(t, fixed.Default)
	f := fixed.Default
	for name, gen := range map[string]func(*circuit.Builder, stdcell.Word) stdcell.Word{"TanhCORDIC": e.TanhCircuit, "SigmoidCORDIC": e.SigmoidCircuit} {
		s, err := circuit.Count(func(b *circuit.Builder) {
			b.Outputs(gen(b, stdcell.Input(b, circuit.Garbler, f.Bits()))...)
		})
		if err != nil {
			t.Fatal(err)
		}
		// The paper's TanhCORDIC is 3900 non-XOR, its SigmoidCORDIC 3932.
		if s.AND > 3900 {
			t.Errorf("%s non-XOR = %d, above the paper's 3900", name, s.AND)
		}
		t.Logf("%s: %v over %d iterations", name, s, e.Iterations())
	}
}

// TestNewRefusesWideDatapath: a format whose internal datapath is wider
// than fixed can divide exactly is refused at construction.
func TestNewRefusesWideDatapath(t *testing.T) {
	if e, err := New(fixed.Format{IntBits: 5, FracBits: 10}); err == nil || !strings.Contains(err.Error(), "internal datapath") {
		t.Errorf("New(Q5.10) = %v, %v; want the internal-datapath error", e, err)
	}
}

func mustNew(t testing.TB, f fixed.Format) *Engine {
	t.Helper()
	e, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOddAndBoundedProperties(t *testing.T) {
	e := mustNew(t, fixed.Default)
	f := fixed.Default
	one := f.One().Raw()
	for x := 0.1; x < 7.9; x += 0.23 {
		p := e.Tanh(f.FromFloat(x))
		n := e.Tanh(f.FromFloat(-x))
		// Odd symmetry within 4 ULP (the two rotation directions
		// quantize their angle residues independently).
		if d := p.Raw() + n.Raw(); d > 4 || d < -4 {
			t.Errorf("tanh odd symmetry violated at %g: %d vs %d", x, p.Raw(), n.Raw())
		}
		if p.Raw() > one || p.Raw() < -one {
			t.Errorf("tanh(%g) = %g out of [-1,1]", x, p.Float())
		}
		s := e.Sigmoid(f.FromFloat(x))
		if s.Raw() < 0 || s.Raw() > one {
			t.Errorf("sigmoid(%g) = %g out of [0,1]", x, s.Float())
		}
	}
}

func TestNarrowFormat(t *testing.T) {
	// CORDIC must also work for other formats, e.g. 1+2+9 = 12-bit.
	f := fixed.Format{IntBits: 2, FracBits: 9}
	e := mustNew(t, f)
	worst := 0.0
	for x := -3.9; x <= 3.9; x += 0.13 {
		in := f.FromFloat(x)
		got := e.Tanh(in).Float()
		want := math.Tanh(in.Float())
		if err := math.Abs(got - want); err > worst {
			worst = err
		}
	}
	if worst > 0.02 {
		t.Errorf("narrow-format tanh worst error = %g", worst)
	}
}

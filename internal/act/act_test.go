package act

import (
	"math"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

var allKinds = []Kind{
	Identity, ReLU,
	TanhLUT, TanhTrunc, TanhPL, TanhCORDIC,
	SigmoidLUT, SigmoidTrunc, SigmoidPLAN, SigmoidCORDIC,
}

func buildAct(t *testing.T, a *Impl) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := stdcell.Input(b, circuit.Garbler, a.Fmt.Bits())
		b.Outputs(a.Circuit(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCircuitBitExactWithEval(t *testing.T) {
	f := fixed.Default
	for _, k := range allKinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			a := mustNew(t, k, f)
			c := buildAct(t, a)
			// Sweep including the nasty corners: 0, ±Max, Min, ±1, ±4.
			raws := []int64{0, 1, -1, f.MaxRaw(), f.MinRaw(), f.One().Raw(), -f.One().Raw(),
				4 << 12, -(4 << 12), 12345, -12345, 3 << 12, -(3 << 12)}
			for step := int64(37); step < 4096; step *= 3 {
				raws = append(raws, step, -step, step*7, -step*7)
			}
			for _, raw := range raws {
				x := f.FromRaw(raw)
				out, err := c.Eval(x.Bits(), nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := f.FromBits(out)
				want := a.Eval(x)
				if got.Raw() != want.Raw() {
					t.Fatalf("%s(%g): circuit %d vs software %d", k, x.Float(), got.Raw(), want.Raw())
				}
			}
		})
	}
}

func TestErrorBounds(t *testing.T) {
	f := fixed.Default
	// Table 3 shape: LUT nearly exact; truncated a bit worse; PL worst of
	// the approximations; CORDIC near-exact.
	bounds := map[Kind]float64{
		TanhLUT:       0.002,
		TanhTrunc:     0.004,
		TanhPL:        0.06,
		TanhCORDIC:    0.004,
		SigmoidLUT:    0.002,
		SigmoidTrunc:  0.004,
		SigmoidPLAN:   0.03,
		SigmoidCORDIC: 0.004,
		ReLU:          0.001,
		Identity:      0.0001,
	}
	for k, bound := range bounds {
		a := mustNew(t, k, f)
		worst, mean := a.MaxError()
		if worst > bound {
			t.Errorf("%s worst error %g > bound %g", k, worst, bound)
		}
		if mean > worst {
			t.Errorf("%s mean %g > worst %g", k, mean, worst)
		}
	}
}

func TestGateCostOrdering(t *testing.T) {
	f := fixed.Default
	count := func(k Kind) int64 {
		a := mustNew(t, k, f)
		s, err := circuit.Count(func(b *circuit.Builder) {
			x := stdcell.Input(b, circuit.Garbler, f.Bits())
			b.Outputs(a.Circuit(b, x)...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.AND
	}
	pl := count(TanhPL)
	cord := count(TanhCORDIC)
	lut := count(TanhLUT)
	trunc := count(TanhTrunc)
	t.Logf("non-XOR: PL=%d CORDIC=%d Trunc=%d LUT=%d", pl, cord, trunc, lut)
	// Table 3 ordering: piecewise-linear ≪ CORDIC ≪ LUT, Trunc < LUT.
	if !(pl < cord && cord < lut && trunc < lut) {
		t.Errorf("cost ordering violated: PL=%d CORDIC=%d Trunc=%d LUT=%d", pl, cord, trunc, lut)
	}
	if pl > 2000 {
		t.Errorf("TanhPL cost %d unexpectedly high (paper: ~206)", pl)
	}
}

func TestSigmoidPLANKnownPoints(t *testing.T) {
	f := fixed.Default
	a := mustNew(t, SigmoidPLAN, f)
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.75},    // boundary: second segment 1/8+0.625 = 0.75
		{2, 0.875},   // 2/8 + 0.625
		{4, 0.96875}, // 4/32 + 0.84375
		{6, 1},       // saturated
		{-6, 0},      // symmetric
		{-1, 0.25},   // 1 - 0.75
	}
	for _, c := range cases {
		got := a.Eval(f.FromFloat(c.x)).Float()
		if math.Abs(got-c.want) > 0.002 {
			t.Errorf("PLAN(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestTanhVariantsOddSymmetry(t *testing.T) {
	f := fixed.Default
	for _, k := range []Kind{TanhLUT, TanhTrunc, TanhPL} {
		a := mustNew(t, k, f)
		for x := 0.1; x < 7.5; x += 0.37 {
			p := a.Eval(f.FromFloat(x)).Raw()
			n := a.Eval(f.FromFloat(-x)).Raw()
			if p+n != 0 {
				t.Errorf("%s not odd at %g: %d vs %d", k, x, p, n)
			}
		}
	}
}

func TestSigmoidComplementSymmetry(t *testing.T) {
	f := fixed.Default
	one := f.One().Raw()
	for _, k := range []Kind{SigmoidLUT, SigmoidTrunc, SigmoidPLAN} {
		a := mustNew(t, k, f)
		for x := 0.1; x < 7.5; x += 0.41 {
			p := a.Eval(f.FromFloat(x)).Raw()
			n := a.Eval(f.FromFloat(-x)).Raw()
			if p+n != one {
				t.Errorf("%s: σ(x)+σ(-x) = %d, want %d at x=%g", k, p+n, one, x)
			}
		}
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{TanhLUT, TanhTrunc, TanhPL, TanhCORDIC} {
		if !k.IsTanh() || k.IsSigmoid() {
			t.Errorf("%s predicates wrong", k)
		}
	}
	for _, k := range []Kind{SigmoidLUT, SigmoidTrunc, SigmoidPLAN, SigmoidCORDIC} {
		if k.IsTanh() || !k.IsSigmoid() {
			t.Errorf("%s predicates wrong", k)
		}
	}
	if ReLU.IsTanh() || ReLU.IsSigmoid() || Identity.IsTanh() {
		t.Error("ReLU/Identity predicates wrong")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestMinInputDoesNotPanic(t *testing.T) {
	f := fixed.Default
	for _, k := range allKinds {
		a := mustNew(t, k, f)
		got := a.Eval(f.Min())
		// tanh(Min) ≈ -1, sigmoid(Min) ≈ 0 — Min wraps to |Min| territory;
		// the clamp keeps the result in the function range.
		if k.IsTanh() && math.Abs(got.Float()+1) > 0.01 {
			t.Errorf("%s(Min) = %g, want ≈ -1", k, got.Float())
		}
		if k.IsSigmoid() && math.Abs(got.Float()) > 0.01 {
			t.Errorf("%s(Min) = %g, want ≈ 0", k, got.Float())
		}
	}
}

func mustNew(t *testing.T, k Kind, f fixed.Format) *Impl {
	t.Helper()
	a, err := New(k, f)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestNewRefusesFormatsWithoutADatapath: a valid format can still be one a
// realization cannot run at, and since the format may be a peer's
// (nn.Spec.Build) that is an error, not cordic.New's panic or a 4 GB table.
func TestNewRefusesFormatsWithoutADatapath(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		f    fixed.Format
	}{
		{TanhCORDIC, fixed.Format{IntBits: 8, FracBits: 12}},
		{SigmoidCORDIC, fixed.Format{IntBits: 5, FracBits: 10}},
		{TanhLUT, fixed.Format{IntBits: 15, FracBits: 16}},
		{SigmoidLUT, fixed.Format{IntBits: 11, FracBits: 12}},
		{SigmoidTrunc, fixed.Format{IntBits: 10, FracBits: 20}},
		{TanhTrunc, fixed.Format{IntBits: 0, FracBits: 2}}, // narrower than the bits it drops
	} {
		if err := c.f.Validate(); err != nil {
			t.Fatalf("%v: the format itself must be valid: %v", c.f, err)
		}
		if a, err := New(c.kind, c.f); err == nil {
			t.Errorf("New(%v, %+v) built %+v, want an error", c.kind, c.f, a.Kind)
		}
	}
	// The table cap sits above every LUT the default format builds.
	for _, k := range []Kind{TanhLUT, TanhTrunc, SigmoidLUT, SigmoidTrunc} {
		if a := mustNew(t, k, fixed.Default); a.idxBits > MaxLUTBits {
			t.Errorf("%v indexes %d bits at the default format, over the cap", k, a.idxBits)
		}
	}
}

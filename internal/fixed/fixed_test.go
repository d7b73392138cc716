package fixed

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFormatBasics(t *testing.T) {
	f := Default
	if f.Bits() != 16 {
		t.Fatalf("Default.Bits() = %d, want 16", f.Bits())
	}
	if f.Scale() != 4096 {
		t.Fatalf("Default.Scale() = %g, want 4096", f.Scale())
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Default.Validate() = %v", err)
	}
}

func TestFormatValidate(t *testing.T) {
	cases := []struct {
		f  Format
		ok bool
	}{
		{Format{3, 12}, true},
		{Format{0, 0}, false}, // width 1
		{Format{0, 1}, true},  // width 2
		{Format{-1, 12}, false},
		{Format{3, -1}, false},
		{Format{40, 40}, false}, // width 81
		{Format{30, 32}, false}, // width 63: Mul's raw product overflows int64
		{Format{15, 16}, true},  // width 32 = MaxBits
		{Format{0, 31}, true},   // width 32, the widest dividend shift
		{Format{16, 16}, false}, // width 33
	}
	for _, c := range cases {
		err := c.f.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.f, err, c.ok)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := Default
	for _, x := range []float64{0, 1, -1, 0.5, -0.5, 3.25, -3.75, 7.9997, -8} {
		n := f.FromFloat(x)
		if got := n.Float(); math.Abs(got-x) > 1.0/f.Scale() {
			t.Errorf("round trip %g -> %g, err too large", x, got)
		}
	}
}

func TestWrapBehaviour(t *testing.T) {
	f := Default // range [-8, 8)
	// 8.0 wraps to -8.0 in Q3.12.
	n := f.FromFloat(8.0)
	if n.Float() != -8.0 {
		t.Errorf("FromFloat(8.0) = %g, want -8 (wrap)", n.Float())
	}
	// Saturating conversion clamps instead.
	s := f.FromFloatSat(8.0)
	if s.Raw() != f.MaxRaw() {
		t.Errorf("FromFloatSat(8.0).Raw() = %d, want %d", s.Raw(), f.MaxRaw())
	}
	if f.FromFloatSat(-100).Raw() != f.MinRaw() {
		t.Errorf("FromFloatSat(-100) should clamp to MinRaw")
	}
}

func TestBitsRoundTrip(t *testing.T) {
	f := Default
	check := func(raw int64) bool {
		n := f.FromRaw(raw)
		bits := n.Bits()
		if len(bits) != 16 {
			return false
		}
		m, err := f.FromBits(bits)
		return err == nil && m.Raw() == n.Raw()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBitsLengthError(t *testing.T) {
	if _, err := Default.FromBits(make([]bool, 5)); err == nil {
		t.Error("FromBits with wrong length should error")
	}
}

func TestAddSubWrapAgreesWithInt64(t *testing.T) {
	f := Default
	check := func(a, b int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(b)
		if x.Add(y).Raw() != f.Wrap(x.Raw()+y.Raw()) {
			return false
		}
		if x.Sub(y).Raw() != f.Wrap(x.Raw()-y.Raw()) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// droppedMass is the D of Mul, built bit by bit from y's Booth digits: the
// row bits (one∧x[j] ⊕ two∧x[j−1]) ⊕ neg of digit k at the columns 2k+j
// below cols, and neg itself at column 2k.
func droppedMass(x, y Num, cols int) int64 {
	d := BoothDigits(y.Raw(), y.Format().Bits())
	bit := func(j int) bool { return j >= 0 && x.Raw()>>uint(j)&1 == 1 }
	var mass int64
	for k := 0; 3*k < len(d) && 2*k < cols; k++ {
		neg, one, two := d[3*k], d[3*k+1], d[3*k+2]
		if neg {
			mass += 1 << uint(2*k)
		}
		for j := 0; 2*k+j < cols; j++ {
			if (one && bit(j)) != (two && bit(j-1)) != neg {
				mass += 1 << uint(2*k+j)
			}
		}
	}
	return mass
}

// TestMulMatchesShiftedProduct pins the definition of the product against
// an array-bit-by-array-bit reference: the exact product, less every Booth
// array bit of the dropped columns, plus the centring constant, shifted —
// and the constant against the mean it stands for. Without fraction bits
// (and below four) nothing is dropped.
func TestMulMatchesShiftedProduct(t *testing.T) {
	for _, f := range []Format{Default, {IntBits: 0, FracBits: 7}, {IntBits: 3, FracBits: 4}, {IntBits: 4, FracBits: 3}, {IntBits: 7, FracBits: 0}, {IntBits: 1, FracBits: 30}, {IntBits: 2, FracBits: 10}} {
		cols, centre := MulTruncation(f.FracBits)
		if f == Default && (cols != 9 || centre != 1216) {
			t.Fatalf("Q3.12 drops %d columns and adds %d, want 9 and 1216", cols, centre)
		}
		if f.FracBits <= 3 && (cols != 0 || centre != 0) {
			t.Fatalf("%+v drops %d columns and adds %d, want none", f, cols, centre)
		}
		check := func(a, b int64) bool {
			x, y := f.FromRaw(a), f.FromRaw(b)
			prod := x.Raw()*y.Raw() + centre - droppedMass(x, y, cols)
			return x.Mul(y).Raw() == f.Wrap(prod>>uint(f.FracBits))
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("%+v: %v", f, err)
		}
		// D reads the cols lowest bits of x and the cols+1 lowest of y, so
		// these operands cover every case once: its mean rounds to centre.
		if cols == 0 || cols > 10 {
			continue
		}
		var sum, n int64
		for a := int64(0); a < 1<<uint(cols); a++ {
			for b := int64(0); b < 2<<uint(cols); b++ {
				sum += droppedMass(f.FromRaw(a), f.FromRaw(b), cols)
				n++
			}
		}
		if mean := float64(sum) / float64(n); math.Abs(mean-float64(centre)) > 0.5 {
			t.Errorf("%+v: centre %d, mean dropped mass %g", f, centre, mean)
		}
	}
}

// TestBoothDigits round-trips the recoding: every value of the widths 4 to
// 16 (odd ones sign-extended to whole digits) and random 32-bit ones. The
// digits sum to the value, never set one and two together, and their neg is
// the value's bit 2k+1.
func TestBoothDigits(t *testing.T) {
	check := func(v int64, n int) {
		t.Helper()
		d := BoothDigits(v, n)
		if len(d) != BoothBits(n) || len(d) != 3*((n+1)/2) {
			t.Fatalf("%d bits: %d digit bits, BoothBits %d", n, len(d), BoothBits(n))
		}
		var sum int64
		for k := len(d)/3 - 1; k >= 0; k-- {
			neg, one, two := d[3*k], d[3*k+1], d[3*k+2]
			if one && two {
				t.Fatalf("%d bits: %d has digit %d with one and two set", n, v, k)
			}
			if neg != (v>>uint(2*k+1)&1 == 1) {
				t.Fatalf("%d bits: %d has neg %v at digit %d", n, v, neg, k)
			}
			mag := int64(0)
			if one {
				mag = 1
			} else if two {
				mag = 2
			}
			if neg {
				mag = -mag
			}
			sum = 4*sum + mag
		}
		if sum != v {
			t.Fatalf("%d bits: digits of %d sum to %d", n, v, sum)
		}
	}
	for n := 4; n <= 16; n++ {
		for v := -int64(1) << uint(n-1); v < 1<<uint(n-1); v++ {
			check(v, n)
		}
	}
	rng := rand.New(rand.NewSource(31))
	count := 1_000_000
	if testing.Short() {
		count = 50_000
	}
	for i := 0; i < count; i++ {
		check(int64(int32(rng.Uint32())), 32)
	}
}

// TestMulTruncationError bounds what the truncation costs against the
// exact floor(x·y/2^frac): never more than one ulp, and no bias.
func TestMulTruncationError(t *testing.T) {
	f := Default
	rng := rand.New(rand.NewSource(29))
	var sum, n int64
	for i := 0; i < 4_000_000; i++ {
		x, y := f.FromRaw(rng.Int63()), f.FromRaw(rng.Int63())
		// Compare unwrapped: a product near ±8 may wrap on one side only.
		exact := x.Raw() * y.Raw() >> uint(f.FracBits)
		d := f.Wrap(x.Mul(y).Raw() - exact)
		if d < -1 || d > 1 {
			t.Fatalf("Mul(%d, %d) is %d ulp from the exact floor", x.Raw(), y.Raw(), d)
		}
		sum += d
		n++
	}
	if mean := float64(sum) / float64(n); math.Abs(mean) >= 0.1 {
		t.Errorf("mean deviation from the exact floor = %+.4f ulp, want |mean| < 0.1", mean)
	} else {
		t.Logf("mean deviation from the exact floor: %+.4f ulp over %d pairs", mean, n)
	}
	// The 8-bit formats of the LUT tests, exhaustively.
	for _, f := range []Format{{IntBits: 3, FracBits: 4}, {IntBits: 0, FracBits: 7}} {
		for a := f.MinRaw(); a <= f.MaxRaw(); a++ {
			for b := f.MinRaw(); b <= f.MaxRaw(); b++ {
				if d := f.Wrap(f.FromRaw(a).Mul(f.FromRaw(b)).Raw() - a*b>>uint(f.FracBits)); d < -1 || d > 1 {
					t.Fatalf("%+v: Mul(%d, %d) is %d ulp from the exact floor", f, a, b, d)
				}
			}
		}
	}
}

// TestWidestFormatAgainstBig checks Mul and Div at the widest formats
// Validate admits against arbitrary-precision arithmetic: the operands
// whose intermediate products and shifted dividends are largest.
func TestWidestFormatAgainstBig(t *testing.T) {
	for _, f := range []Format{{IntBits: 15, FracBits: 16}, {IntBits: 0, FracBits: 31}, {IntBits: 31, FracBits: 0}} {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		wrap := func(v *big.Int) int64 {
			m := new(big.Int).Lsh(big.NewInt(1), uint(f.Bits()))
			v.Mod(v, m) // Euclidean: in [0, m)
			if v.Bit(f.Bits()-1) == 1 {
				v.Sub(v, m)
			}
			return v.Int64()
		}
		cols, centre := MulTruncation(f.FracBits)
		vals := []int64{f.MinRaw(), f.MinRaw() + 1, -1, 1, f.MaxRaw() - 1, f.MaxRaw(), f.One().Raw(), -f.One().Raw()}
		for _, a := range vals {
			for _, b := range vals {
				x, y := f.FromRaw(a), f.FromRaw(b)
				prod := new(big.Int).Mul(big.NewInt(x.Raw()), big.NewInt(y.Raw()))
				prod.Add(prod, big.NewInt(centre-droppedMass(x, y, cols)))
				prod.Rsh(prod, uint(f.FracBits)) // floors, like >> on int64
				if got, want := x.Mul(y).Raw(), wrap(prod); got != want {
					t.Errorf("%+v: Mul(%d, %d) = %d, big says %d", f, a, b, got, want)
				}
				num := new(big.Int).Lsh(big.NewInt(x.Raw()), uint(f.FracBits))
				quo := num.Quo(num, big.NewInt(y.Raw())) // truncates toward zero
				if got, want := x.Div(y).Raw(), wrap(quo); got != want {
					t.Errorf("%+v: Div(%d, %d) = %d, big says %d", f, a, b, got, want)
				}
			}
		}
	}
}

func TestMulKnownValues(t *testing.T) {
	f := Default
	cases := []struct{ a, b, want float64 }{
		{1, 1, 1},
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.5, 0.5, -0.25},
		{1.5, -2, -3},
	}
	for _, c := range cases {
		got := f.FromFloat(c.a).Mul(f.FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2.0/f.Scale() {
			t.Errorf("%g*%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDiv(t *testing.T) {
	f := Default
	cases := []struct{ a, b, want float64 }{
		{1, 2, 0.5},
		{6, 3, 2},
		{-6, 3, -2},
		{6, -3, -2},
		{-6, -3, 2},
		{1, 3, 1.0 / 3.0},
		{0.5, 0.25, 2},
	}
	for _, c := range cases {
		got := f.FromFloat(c.a).Div(f.FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 4.0/f.Scale() {
			t.Errorf("%g/%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDivByZeroSaturates(t *testing.T) {
	f := Default
	if got := f.FromFloat(1).Div(f.Zero()); got.Raw() != f.MaxRaw() {
		t.Errorf("1/0 = %v, want Max", got)
	}
	if got := f.FromFloat(-1).Div(f.Zero()); got.Raw() != f.MinRaw() {
		t.Errorf("-1/0 = %v, want Min", got)
	}
}

func TestShifts(t *testing.T) {
	f := Default
	n := f.FromFloat(2)
	if got := n.Shr(1).Float(); got != 1 {
		t.Errorf("2>>1 = %g, want 1", got)
	}
	if got := n.Shl(1).Float(); got != 4 {
		t.Errorf("2<<1 = %g, want 4", got)
	}
	neg := f.FromFloat(-2)
	if got := neg.Shr(1).Float(); got != -1 {
		t.Errorf("-2>>1 (arithmetic) = %g, want -1", got)
	}
	if got := neg.Shr(100); got.Raw() != -1 {
		t.Errorf("-2>>100 = %d, want -1", got.Raw())
	}
	if got := n.Shl(100); got.Raw() != 0 {
		t.Errorf("2<<100 = %d, want 0", got.Raw())
	}
}

func TestCmpAbsReLU(t *testing.T) {
	f := Default
	a, b := f.FromFloat(1.5), f.FromFloat(-2.5)
	if a.Cmp(b) != 1 || b.Cmp(a) != -1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if b.Abs().Float() != 2.5 {
		t.Errorf("Abs(-2.5) = %g", b.Abs().Float())
	}
	if b.ReLU().Float() != 0 || a.ReLU().Float() != 1.5 {
		t.Error("ReLU wrong")
	}
	if !b.IsNeg() || a.IsNeg() {
		t.Error("IsNeg wrong")
	}
}

func TestNegWrapsAtMin(t *testing.T) {
	f := Default
	if got := f.Min().Neg(); got.Raw() != f.MinRaw() {
		t.Errorf("-Min = %d, want Min (two's-complement wrap)", got.Raw())
	}
}

func TestVecHelpers(t *testing.T) {
	f := Default
	xs := []float64{0.5, -1, 2}
	for i, n := range f.AppendVec(nil, xs) {
		if back := n.Float(); math.Abs(back-xs[i]) > 1.0/f.Scale() {
			t.Errorf("vec round trip idx %d: %g -> %g", i, xs[i], back)
		}
	}
}

func TestFormatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add across formats should panic")
		}
	}()
	a := Default.FromFloat(1)
	b := Format{IntBits: 7, FracBits: 8}.FromFloat(1)
	_ = a.Add(b)
}

func TestSmallFormats(t *testing.T) {
	// Degenerate but legal formats must still wrap correctly.
	f := Format{IntBits: 0, FracBits: 1} // 2-bit: values {-1, -0.5, 0, 0.5}
	if f.Bits() != 2 {
		t.Fatalf("Bits = %d", f.Bits())
	}
	if got := f.FromRaw(2).Raw(); got != -2 {
		t.Errorf("wrap(2) in 2-bit = %d, want -2", got)
	}
	if got := f.FromRaw(1).Add(f.FromRaw(1)).Raw(); got != -2 {
		t.Errorf("1+1 in 2-bit = %d, want -2 (wrap)", got)
	}
}

func TestOneEps(t *testing.T) {
	f := Default
	if f.One().Float() != 1.0 {
		t.Errorf("One = %g", f.One().Float())
	}
	if ulp := f.FromRaw(1).Float(); ulp != 1/f.Scale() {
		t.Errorf("one ulp = %g, want %g", ulp, 1/f.Scale())
	}
}

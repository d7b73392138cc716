package stdcell

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
)

// buildBinOp materializes a circuit computing op over two garbler-input
// words of the format's width.
func buildBinOp(t *testing.T, f fixed.Format, op func(b *circuit.Builder, x, y Word) Word) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(op(b, x, y)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func evalBin(t *testing.T, c *circuit.Circuit, f fixed.Format, a, b fixed.Num) fixed.Num {
	t.Helper()
	in := append(a.Bits(), b.Bits()...)
	out, err := c.Eval(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.FromBits(out)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func evalBits(t *testing.T, c *circuit.Circuit, in []bool) []bool {
	t.Helper()
	out, err := c.Eval(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// evalRows runs c — row(r)'s input bits in (the garbler's first, then the
// evaluator's, if it has any), one word of f's width out — on rows rows at
// once, 64 per pass over the netlist (circuit.EvalLanes). It returns each
// row's output word, sign-extended.
func evalRows(t *testing.T, c *circuit.Circuit, f fixed.Format, rows int, row func(r int) []bool) []int64 {
	t.Helper()
	out := make([]int64, rows)
	in := make([]uint64, len(c.GarblerInputs)+len(c.EvaluatorInputs))
	for base := 0; base < len(out); base += 64 {
		clear(in)
		lanes := min(64, len(out)-base)
		for l := 0; l < lanes; l++ {
			for i, v := range row(base + l) {
				if v {
					in[i] |= 1 << uint(l)
				}
			}
		}
		res, err := c.EvalLanes(in[:len(c.GarblerInputs)], in[len(c.GarblerInputs):])
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

// allPairs lists every pair of raw values of f, for exhaustive sweeps of
// the 8-bit formats.
func allPairs(f fixed.Format) (xs, ys []int64) {
	for a := f.MinRaw(); a <= f.MaxRaw(); a++ {
		for b := f.MinRaw(); b <= f.MaxRaw(); b++ {
			xs, ys = append(xs, a), append(ys, b)
		}
	}
	return xs, ys
}

// randomPairs draws count pairs of raw values of f, the corner values
// (Min, ±1, 0, Max and their neighbours) crossed with each other first.
func randomPairs(f fixed.Format, seed int64, count int) (xs, ys []int64) {
	for _, a := range corners(f) {
		for _, b := range corners(f) {
			xs, ys = append(xs, a), append(ys, b)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(xs) < count {
		xs, ys = append(xs, f.Wrap(rng.Int63())), append(ys, f.Wrap(rng.Int63()))
	}
	return xs, ys
}

// digits is how a multiplier enters MulFixed: as its Booth digits.
func digits(y fixed.Num) []bool { return fixed.BoothDigits(y.Raw(), y.Format().Bits()) }

// checkBinOp compares c with the software operation on every pair, the
// second operand fed to c as yBits of it (the first as its bits).
func checkBinOp(t *testing.T, name string, c *circuit.Circuit, f fixed.Format, xs, ys []int64, yBits func(fixed.Num) []bool, op func(x, y fixed.Num) fixed.Num) {
	t.Helper()
	row := func(r int) []bool { return append(f.FromRaw(xs[r]).Bits(), yBits(f.FromRaw(ys[r]))...) }
	for i, got := range evalRows(t, c, f, len(xs), row) {
		if want := op(f.FromRaw(xs[i]), f.FromRaw(ys[i])).Raw(); got != want {
			t.Fatalf("%s %+v: circuit(%d, %d) = %d, software %d", name, f, xs[i], ys[i], got, want)
		}
	}
}

func TestAddMatchesFixed(t *testing.T) {
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word { return Add(b, x, y) })
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		return evalBin(t, c, f, x, y).Raw() == x.Add(y).Raw()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSubNegMatchFixed(t *testing.T) {
	f := fixed.Default
	cs := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word { return Sub(b, x, y) })
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		return evalBin(t, cs, f, x, y).Raw() == x.Sub(y).Raw()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}

	cn, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(Neg(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkNeg := func(a int64) bool {
		x := f.FromRaw(a)
		out := evalBits(t, cn, x.Bits())
		n, _ := f.FromBits(out)
		return n.Raw() == x.Neg().Raw()
	}
	if err := quick.Check(checkNeg, nil); err != nil {
		t.Error(err)
	}
}

func TestAddGateCount(t *testing.T) {
	// An n-bit wrapping adder must cost exactly n-1 non-XOR gates.
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word { return Add(b, x, y) })
	if s := c.Stats(); s.AND != int64(f.Bits()-1) {
		t.Errorf("adder non-XOR = %d, want %d", s.AND, f.Bits()-1)
	}
}

// buildMul materializes MulFixed over the operand words that shape
// declares: the gates netgen streams, every INV and every repeated AND its
// own gate.
func buildMul(t *testing.T, frac int, shape func(b *circuit.Builder) (x, y Word)) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Build(func(b *circuit.Builder) {
		x, y := shape(b)
		b.Outputs(MulFixed(b, x, y, frac)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMul evaluates c on the input bits in and compares the decoded word
// with fixed.Num.Mul of x and y.
func checkMul(t *testing.T, c *circuit.Circuit, x, y fixed.Num, in []bool) {
	t.Helper()
	got, err := x.Format().FromBits(evalBits(t, c, in))
	if err != nil {
		t.Fatal(err)
	}
	if want := x.Mul(y); got.Raw() != want.Raw() {
		t.Fatalf("MulFixed(%d, %d) = %d, want %d", x.Raw(), y.Raw(), got.Raw(), want.Raw())
	}
}

// garblerDigits declares an n-bit word and a multiplier's Booth digits, both
// the garbler's, as a product of two computed words would see them.
func garblerDigits(n int) func(b *circuit.Builder) (x, y Word) {
	return func(b *circuit.Builder) (x, y Word) {
		return Input(b, circuit.Garbler, n), Input(b, circuit.Garbler, fixed.BoothBits(n))
	}
}

// weightInput is garblerDigits with the digits the evaluator's, as a
// model's weights are: its partial products come out as half ANDs.
func weightInput(n int) func(b *circuit.Builder) (x, y Word) {
	return func(b *circuit.Builder) (x, y Word) {
		return Input(b, circuit.Garbler, n), Input(b, circuit.Evaluator, fixed.BoothBits(n))
	}
}

// constDigits is y's Booth digits as constant wires.
func constDigits(b *circuit.Builder, y fixed.Num) Word {
	var w Word
	for _, d := range digits(y) {
		w = append(w, b.Const(d))
	}
	return w
}

// postReLU declares a word shaped like a ReLU output: the sign wire is the
// constant 0 (the input bit declared for it stays unconnected, so callers
// can still feed whole words).
func postReLU(b *circuit.Builder, n int) Word {
	x := Input(b, circuit.Garbler, n)
	x[n-1] = circuit.WFalse
	return x
}

// corners are the raw values where sign handling and wrapping go wrong
// first.
func corners(f fixed.Format) []int64 {
	return []int64{f.MinRaw(), f.MinRaw() + 1, -1, 0, 1, f.MaxRaw() - 1, f.MaxRaw()}
}

func TestMulFixedExhaustive8Bit(t *testing.T) {
	// frac 7 drops four columns, frac 4 one, frac 0 none.
	for _, frac := range []int{0, 4, 7} {
		f := fixed.Format{IntBits: 7 - frac, FracBits: frac}
		xs, ys := allPairs(f)
		ref := buildMul(t, frac, garblerDigits(8))
		checkBinOp(t, "MulFixed", ref, f, xs, ys, digits, fixed.Num.Mul)
		// The same function with the digits evaluator-owned: every partial
		// product is a half AND, nothing else is.
		c := buildMul(t, frac, weightInput(8))
		checkBinOp(t, "MulFixed on a weight", c, f, xs, ys, digits, fixed.Num.Mul)
		if st, rs := c.Stats(), ref.Stats(); st.HalfAND == 0 || st.HalfAND >= st.AND || st.AND != rs.AND || rs.HalfAND != 0 {
			t.Errorf("frac %d: %+v with an evaluator-owned operand, %+v without", frac, st, rs)
		}
	}
}

func TestMulFixedMatchesFixed(t *testing.T) {
	f := fixed.Default
	pairs := 1_000_000
	if testing.Short() { // the -race sweep: same code paths, ~20x slower
		pairs = 50_000
	}
	xs, ys := randomPairs(f, 13, pairs)
	checkBinOp(t, "MulFixed", buildMul(t, f.FracBits, weightInput(f.Bits())), f, xs, ys, digits, fixed.Num.Mul)
}

func TestMulFixedWrapSmallExhaustive(t *testing.T) {
	// Every pair at the widths 3 to 9, the odd ones sign-extending the
	// multiplier to whole digits: with no fraction bits the plain wrapping
	// product, int math mod 2^n, and with the most fraction bits the width
	// has, fixed.Num.Mul.
	for n := 3; n <= 9; n++ {
		for _, frac := range []int{0, n - 1} {
			f := fixed.Format{IntBits: n - 1 - frac, FracBits: frac}
			xs, ys := allPairs(f)
			c := buildMul(t, frac, garblerDigits(n))
			checkBinOp(t, "MulFixed", c, f, xs, ys, digits, fixed.Num.Mul)
			if frac == 0 {
				checkBinOp(t, "MulFixed", c, f, xs, ys, digits, func(x, y fixed.Num) fixed.Num { return f.FromRaw(x.Raw() * y.Raw()) })
			}
		}
	}
}

// TestMulFixedOperandShapes covers the operand structures that constant
// folding turns into different netlists: partial products that fold away
// must move into the generation-time constant, not vanish.
func TestMulFixedOperandShapes(t *testing.T) {
	f := fixed.Default
	n := f.Bits()
	rng := rand.New(rand.NewSource(17))
	samples := corners(f)
	random := 200
	if testing.Short() {
		random = 20
	}
	for i := 0; i < random; i++ {
		samples = append(samples, f.Wrap(rng.Int63()))
	}
	c := buildMul(t, f.FracBits, func(b *circuit.Builder) (x, y Word) {
		return postReLU(b, n), Input(b, circuit.Garbler, fixed.BoothBits(n))
	})
	for _, a := range samples {
		for _, bb := range samples {
			x, y := f.FromRaw(a).ReLU(), f.FromRaw(bb)
			checkMul(t, c, x, y, append(x.Bits(), digits(y)...))
		}
	}

	// A constant operand on either side: corners, and every power of
	// two (1<<(n-1) is Min, a top digit of −2). A constant x with bit 0
	// clear puts neg_k into column 2k twice, so a column holds the same
	// wire twice and its adder's sum folds to 0.
	weights := corners(f)
	for k := 0; k < n; k++ {
		weights = append(weights, f.Wrap(1<<uint(k)))
	}
	for _, w := range weights {
		w := f.FromRaw(w)
		cx := buildMul(t, f.FracBits, func(b *circuit.Builder) (x, y Word) {
			return Const(b, n, w.Raw()), Input(b, circuit.Garbler, fixed.BoothBits(n))
		})
		cy := buildMul(t, f.FracBits, func(b *circuit.Builder) (x, y Word) {
			return Input(b, circuit.Garbler, n), constDigits(b, w)
		})
		for _, a := range samples {
			v := f.FromRaw(a)
			checkMul(t, cx, w, v, digits(v))
			checkMul(t, cy, v, w, v.Bits())
		}
		// Both operands constant: every output is a constant wire.
		for _, w2 := range corners(f) {
			w2 := f.FromRaw(w2)
			cc := buildMul(t, f.FracBits, func(b *circuit.Builder) (x, y Word) {
				return Const(b, n, w.Raw()), constDigits(b, w2)
			})
			if len(cc.Gates) != 0 {
				t.Fatalf("constant product emitted %d gates", len(cc.Gates))
			}
			checkMul(t, cc, w, w2, nil)
		}
	}
}

// buildDiv materializes DivFixed with a qbits-wide quotient array.
func buildDiv(t *testing.T, f fixed.Format, qbits int) *circuit.Circuit {
	return buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return DivFixed(b, x, y, f.FracBits, qbits)
	})
}

// quotientFits keeps the pairs DivFixed's contract covers at qbits: the
// magnitude quotient is below 2^qbits, or the divisor is zero.
func quotientFits(f fixed.Format, qbits int, xs, ys []int64) (fx, fy []int64) {
	for i := range xs {
		ax, ay := max(xs[i], -xs[i]), max(ys[i], -ys[i])
		if ay == 0 || ax<<uint(f.FracBits)/ay < 1<<uint(qbits) {
			fx, fy = append(fx, xs[i]), append(fy, ys[i])
		}
	}
	return fx, fy
}

func TestDivFixedMatchesFixed(t *testing.T) {
	// 8 bits, every pair (÷0 and Min/−1 among them), at the full quotient
	// width and at every bounded one on the pairs whose quotient fits it.
	for _, frac := range []int{0, 4, 7} {
		f := fixed.Format{IntBits: 7 - frac, FracBits: frac}
		xs, ys := allPairs(f)
		for qbits := 1; qbits <= f.Bits()+frac; qbits++ {
			fx, fy := quotientFits(f, qbits, xs, ys)
			if qbits == f.Bits()+frac && len(fx) != len(xs) {
				t.Fatalf("%+v: the full width covers %d of %d pairs", f, len(fx), len(xs))
			}
			checkBinOp(t, "DivFixed", buildDiv(t, f, qbits), f, fx, fy, fixed.Num.Bits, fixed.Num.Div)
		}
	}

	// Q3.12: random pairs at the full width, and at the width cordic asks
	// for on pairs scaled so that most quotients fit it.
	f := fixed.Default
	pairs := 200_000
	if testing.Short() {
		pairs = 20_000
	}
	xs, ys := randomPairs(f, 19, pairs)
	checkBinOp(t, "DivFixed", buildDiv(t, f, f.Bits()+f.FracBits), f, xs, ys, fixed.Num.Bits, fixed.Num.Div)
	qbits := f.FracBits + 2
	for i := range xs {
		xs[i] >>= uint(i % 4) // |x/y| < 4 is what fits FracBits+2 bits
	}
	fx, fy := quotientFits(f, qbits, xs, ys)
	if len(fx) < pairs/2 {
		t.Fatalf("only %d of %d pairs fit %d quotient bits", len(fx), pairs, qbits)
	}
	checkBinOp(t, "DivFixed bounded", buildDiv(t, f, qbits), f, fx, fy, fixed.Num.Bits, fixed.Num.Div)
}

func TestDivByZeroCircuitSaturates(t *testing.T) {
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return DivFixed(b, x, y, f.FracBits, f.Bits()+f.FracBits)
	})
	pos := evalBin(t, c, f, f.FromFloat(1), f.Zero())
	if pos.Raw() != f.MaxRaw() {
		t.Errorf("1/0 circuit = %d, want Max", pos.Raw())
	}
	neg := evalBin(t, c, f, f.FromFloat(-1), f.Zero())
	if neg.Raw() != f.MinRaw() {
		t.Errorf("-1/0 circuit = %d, want Min", neg.Raw())
	}
}

func TestComparisons(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(GT(b, x, y), IsZero(b, x))
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		out := evalBits(t, c, append(x.Bits(), y.Bits()...))
		return out[0] == (x.Cmp(y) > 0) && out[1] == (x.Raw() == 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	// Equal operands and zero (quick rarely hits either).
	for _, x := range []fixed.Num{f.FromFloat(1.25), f.Zero()} {
		out := evalBits(t, c, append(x.Bits(), x.Bits()...))
		if out[0] || out[1] != (x.Raw() == 0) {
			t.Errorf("self-comparison of %v wrong: %v", x, out)
		}
	}
}

func TestMuxMaxMinAbsReLU(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		s := Input(b, circuit.Garbler, 1)
		b.Outputs(Mux(b, s[0], x, y)...)
		b.Outputs(Max(b, x, y)...)
		b.Outputs(Abs(b, x)...)
		b.Outputs(ReLU(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.Bits()
	check := func(a, bb int64, sel bool) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		in := append(append(x.Bits(), y.Bits()...), sel)
		out := evalBits(t, c, in)
		word := func(k int) fixed.Num {
			v, _ := f.FromBits(out[k*n : (k+1)*n])
			return v
		}
		mux := word(0)
		if sel && mux.Raw() != x.Raw() || !sel && mux.Raw() != y.Raw() {
			return false
		}
		wantMax := x
		if x.Cmp(y) < 0 {
			wantMax = y
		}
		return word(1).Raw() == wantMax.Raw() &&
			word(2).Raw() == x.Abs().Raw() &&
			word(3).Raw() == x.ReLU().Raw()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReLUGateCount(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(ReLU(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.AND != int64(f.Bits()-1) {
		t.Errorf("ReLU non-XOR = %d, want %d (paper Table 3)", s.AND, f.Bits()-1)
	}
}

func TestShifts(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(ShlConst(b, x, 2)...)
		b.Outputs(ShrArith(b, x, 2)...)
		b.Outputs(ShrLogic(b, x, 2)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Total() != 0 {
		t.Errorf("shifts must be free, got %v", s)
	}
	n := f.Bits()
	check := func(a int64) bool {
		x := f.FromRaw(a)
		out := evalBits(t, c, x.Bits())
		shl, _ := f.FromBits(out[:n])
		shr, _ := f.FromBits(out[n : 2*n])
		srl, _ := f.FromBits(out[2*n:])
		wantSrl := f.Wrap(int64(uint64(uint16(x.Raw())) >> 2))
		return shl.Raw() == x.Shl(2).Raw() && shr.Raw() == x.Shr(2).Raw() && srl.Raw() == wantSrl
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSignZeroExtend(t *testing.T) {
	f := fixed.Default
	wide := fixed.Format{IntBits: 7, FracBits: 12}
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(SignExtend(b, x, wide.Bits())...)
		b.Outputs(ZeroExtend(b, x, wide.Bits())...)
		b.Outputs(SignExtend(b, x, 8)...) // truncation path
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(a int64) bool {
		x := f.FromRaw(a)
		out := evalBits(t, c, x.Bits())
		se, _ := wide.FromBits(out[:wide.Bits()])
		ze, _ := wide.FromBits(out[wide.Bits() : 2*wide.Bits()])
		if se.Raw() != x.Raw() {
			return false
		}
		return ze.Raw() == int64(uint16(x.Raw()))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLUT(t *testing.T) {
	// 6-bit identity-squared table, 12-bit output.
	table := make([]int64, 64)
	for i := range table {
		table[i] = int64(i * i)
	}
	c, err := circuit.Build(func(b *circuit.Builder) {
		idx := Input(b, circuit.Garbler, 6)
		b.Outputs(LUT(b, idx, 12, table)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		in := make([]bool, 6)
		for k := 0; k < 6; k++ {
			in[k] = (i>>uint(k))&1 == 1
		}
		out := evalBits(t, c, in)
		var got int64
		for k, bb := range out {
			if bb {
				got |= 1 << uint(k)
			}
		}
		if got != table[i] {
			t.Fatalf("LUT[%d] = %d, want %d", i, got, table[i])
		}
	}
}

func TestLUTWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LUT with wrong table size should panic")
		}
	}()
	_, _ = circuit.Build(func(b *circuit.Builder) {
		idx := Input(b, circuit.Garbler, 3)
		LUT(b, idx, 4, make([]int64, 7))
	})
}

func TestArgMax(t *testing.T) {
	f := fixed.Default
	const k = 5
	c, err := circuit.Build(func(b *circuit.Builder) {
		vals := make([]Word, k)
		for i := range vals {
			vals[i] = Input(b, circuit.Garbler, f.Bits())
		}
		b.Outputs(ArgMax(b, vals)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var in []bool
		vals := make([]fixed.Num, k)
		for i := range vals {
			vals[i] = f.FromFloat(rng.Float64()*16 - 8)
			in = append(in, vals[i].Bits()...)
		}
		out := evalBits(t, c, in)
		var got int
		for i, bb := range out {
			if bb {
				got |= 1 << uint(i)
			}
		}
		want := 0
		for i := 1; i < k; i++ {
			if vals[i].Cmp(vals[want]) > 0 {
				want = i
			}
		}
		if got != want {
			t.Fatalf("trial %d: ArgMax = %d, want %d (vals %v)", trial, got, want, vals)
		}
	}
}

func TestMaxPoolMeanPool(t *testing.T) {
	f := fixed.Default
	const k = 4
	c, err := circuit.Build(func(b *circuit.Builder) {
		w := make([]Word, k)
		for i := range w {
			w[i] = Input(b, circuit.Garbler, f.Bits())
		}
		b.Outputs(MaxPool(b, w)...)
		b.Outputs(MeanPool(b, w)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.Bits()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var in []bool
		vals := make([]fixed.Num, k)
		var sum int64
		maxv := int64(-1 << 62)
		for i := range vals {
			vals[i] = f.FromFloat(rng.Float64()*8 - 4)
			in = append(in, vals[i].Bits()...)
			sum += vals[i].Raw()
			if vals[i].Raw() > maxv {
				maxv = vals[i].Raw()
			}
		}
		out := evalBits(t, c, in)
		gotMax, _ := f.FromBits(out[:n])
		gotMean, _ := f.FromBits(out[n:])
		if gotMax.Raw() != maxv {
			t.Fatalf("MaxPool = %d, want %d", gotMax.Raw(), maxv)
		}
		wantMean := f.Wrap(sum >> 2)
		if gotMean.Raw() != wantMean {
			t.Fatalf("MeanPool = %d, want %d", gotMean.Raw(), wantMean)
		}
	}
}

func TestMeanPoolRequiresPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MeanPool with k=3 should panic")
		}
	}()
	_, _ = circuit.Build(func(b *circuit.Builder) {
		w := []Word{
			Input(b, circuit.Garbler, 8),
			Input(b, circuit.Garbler, 8),
			Input(b, circuit.Garbler, 8),
		}
		MeanPool(b, w)
	})
}

func TestDotMatVec(t *testing.T) {
	f := fixed.Default
	const m, n = 3, 2
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := make([]Word, m)
		for i := range x {
			x[i] = Input(b, circuit.Garbler, f.Bits())
		}
		w := make([]Word, m*n)
		for i := range w {
			w[i] = Input(b, circuit.Evaluator, fixed.BoothBits(f.Bits()))
		}
		for _, o := range MatVec(b, w, x, n, m, f.FracBits) {
			b.Outputs(o...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		xs := make([]fixed.Num, m)
		var gIn []bool
		for i := range xs {
			xs[i] = f.FromFloat(rng.Float64()*2 - 1)
			gIn = append(gIn, xs[i].Bits()...)
		}
		ws := make([]fixed.Num, m*n)
		var eIn []bool
		for i := range ws {
			ws[i] = f.FromFloat(rng.Float64()*2 - 1)
			eIn = append(eIn, digits(ws[i])...)
		}
		out, err := c.Eval(gIn, eIn)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			want := f.Zero()
			for j := 0; j < m; j++ {
				want = want.Add(xs[j].Mul(ws[r*m+j]))
			}
			got, _ := f.FromBits(out[r*f.Bits() : (r+1)*f.Bits()])
			if got.Raw() != want.Raw() {
				t.Fatalf("MatVec row %d = %d, want %d", r, got.Raw(), want.Raw())
			}
		}
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched widths should panic")
		}
	}()
	_, _ = circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, 8)
		y := Input(b, circuit.Garbler, 4)
		Add(b, x, y)
	})
}

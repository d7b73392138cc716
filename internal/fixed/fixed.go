// Package fixed implements the two's-complement fixed-point number format
// used throughout DeepSecure (§4.2 of the paper): by default 1 sign bit,
// 3 integer bits, and 12 fractional bits, for a 16-bit word.
//
// All arithmetic is defined with wrapping (modular) semantics so that the
// software model agrees bit-for-bit with the Boolean circuits generated by
// internal/stdcell. Values are stored sign-extended in an int64, and every
// operation re-wraps the result to the format width.
package fixed

import (
	"fmt"
	"math"
)

// Format describes a fixed-point encoding: 1 sign bit, IntBits integer
// bits, and FracBits fractional bits. The total width is
// 1 + IntBits + FracBits and must be in [2, MaxBits].
type Format struct {
	IntBits  int
	FracBits int
}

// Default is the paper's format: 1 sign + 3 integer + 12 fractional bits.
var Default = Format{IntBits: 3, FracBits: 12}

// Bits returns the total word width of the format.
func (f Format) Bits() int { return 1 + f.IntBits + f.FracBits }

// Scale returns 2^FracBits as a float64.
func (f Format) Scale() float64 { return float64(int64(1) << uint(f.FracBits)) }

// MaxBits is the widest word Mul and Div are exact for: the raw product of
// two words (≤ 2^(2n−2)) and the dividend |x|<<FracBits (< 2^(2n−1)) must
// both fit an int64. A wider format would make this package, the oracle of
// every circuit, wrap where the circuit does not.
const MaxBits = 32

// Validate reports whether the format is usable.
func (f Format) Validate() error {
	if f.IntBits < 0 || f.FracBits < 0 {
		return fmt.Errorf("fixed: negative field width in %+v", f)
	}
	n := f.Bits()
	if n < 2 || n > MaxBits {
		return fmt.Errorf("fixed: total width %d out of range [2,%d]", n, MaxBits)
	}
	return nil
}

// Num is a fixed-point value in a particular format. The raw value is kept
// sign-extended; Raw()&mask gives the canonical bit pattern.
type Num struct {
	raw int64
	fmt Format
}

// Wrap reduces raw to the format width and sign-extends it, mirroring what
// an n-bit two's-complement register would hold.
func (f Format) Wrap(raw int64) int64 {
	n := uint(f.Bits())
	mask := (int64(1) << n) - 1
	raw &= mask
	if raw&(int64(1)<<(n-1)) != 0 {
		raw -= int64(1) << n
	}
	return raw
}

// FromRaw builds a Num from a raw integer representation (wrapped).
func (f Format) FromRaw(raw int64) Num { return Num{raw: f.Wrap(raw), fmt: f} }

// FromFloat converts a float64 to fixed point with round-to-nearest,
// wrapping on overflow (matching hardware truncation semantics).
func (f Format) FromFloat(x float64) Num {
	scaled := math.Round(x * f.Scale())
	return f.FromRaw(int64(scaled))
}

// FromFloatSat converts with saturation instead of wrapping: values outside
// the representable range clamp to the min/max representable number.
func (f Format) FromFloatSat(x float64) Num {
	scaled := math.Round(x * f.Scale())
	max := f.MaxRaw()
	min := f.MinRaw()
	if scaled > float64(max) {
		return Num{raw: max, fmt: f}
	}
	if scaled < float64(min) {
		return Num{raw: min, fmt: f}
	}
	return f.FromRaw(int64(scaled))
}

// MaxRaw returns the largest representable raw value (2^(n-1) - 1).
func (f Format) MaxRaw() int64 { return (int64(1) << uint(f.Bits()-1)) - 1 }

// MinRaw returns the smallest representable raw value (-2^(n-1)).
func (f Format) MinRaw() int64 { return -(int64(1) << uint(f.Bits()-1)) }

// Max returns the largest representable value as a Num.
func (f Format) Max() Num { return Num{raw: f.MaxRaw(), fmt: f} }

// Min returns the smallest representable value as a Num.
func (f Format) Min() Num { return Num{raw: f.MinRaw(), fmt: f} }

// Zero returns the zero value in this format.
func (f Format) Zero() Num { return Num{fmt: f} }

// One returns 1.0 in this format (wraps if IntBits == 0).
func (f Format) One() Num { return f.FromRaw(int64(1) << uint(f.FracBits)) }

// Raw returns the sign-extended raw integer value.
func (n Num) Raw() int64 { return n.raw }

// Format returns the format the number is encoded in.
func (n Num) Format() Format { return n.fmt }

// Float converts back to float64.
func (n Num) Float() float64 { return float64(n.raw) / n.fmt.Scale() }

// Bits returns the canonical bit pattern, LSB first, as booleans. The
// slice has length fmt.Bits(). This is the exact wire assignment used when
// feeding the value into a garbled circuit.
func (n Num) Bits() []bool { return n.AppendBits(make([]bool, 0, n.fmt.Bits())) }

// AppendBits appends Bits to dst and returns the extended slice.
func (n Num) AppendBits(dst []bool) []bool {
	u := uint64(n.raw) // two's complement pattern in low w bits
	for i := range n.fmt.Bits() {
		dst = append(dst, (u>>uint(i))&1 == 1)
	}
	return dst
}

// FromBits reconstructs a Num from an LSB-first bit pattern of length
// f.Bits().
func (f Format) FromBits(bits []bool) (Num, error) {
	if len(bits) != f.Bits() {
		return Num{}, fmt.Errorf("fixed: got %d bits, format needs %d", len(bits), f.Bits())
	}
	var u int64
	for i, b := range bits {
		if b {
			u |= int64(1) << uint(i)
		}
	}
	return f.FromRaw(u), nil
}

// String renders the value as a decimal float with the format annotated.
func (n Num) String() string {
	return fmt.Sprintf("%g", n.Float())
}

// IsNeg reports whether the value is negative (sign bit set).
func (n Num) IsNeg() bool { return n.raw < 0 }

func (n Num) check(m Num) {
	if n.fmt != m.fmt {
		panic(fmt.Sprintf("fixed: format mismatch %+v vs %+v", n.fmt, m.fmt))
	}
}

// Add returns n+m with wrapping, as an n-bit ripple-carry adder would.
func (n Num) Add(m Num) Num {
	n.check(m)
	return n.fmt.FromRaw(n.raw + m.raw)
}

// Sub returns n-m with wrapping.
func (n Num) Sub(m Num) Num {
	n.check(m)
	return n.fmt.FromRaw(n.raw - m.raw)
}

// Neg returns -n with wrapping (note -MinRaw wraps to MinRaw).
func (n Num) Neg() Num { return n.fmt.FromRaw(-n.raw) }

// BoothDigits returns the radix-4 Booth recoding of the n-bit word raw:
// ⌈n/2⌉ digits d_k = −2·y[2k+1] + y[2k] + y[2k−1] in {−2, …, 2}, with
// y[−1] = 0 and y sign-extended to an even width, so that Σ d_k·4^k = y.
// Digit k is the three bits [3k, 3k+3) = (neg, one, two), LSB digit first:
// |d_k| = one + 2·two, negated when neg = y[2k+1] (a −0 is neg alone).
// A weight enters the circuit in this form: stdcell.MulFixed multiplies by
// the digits, so recoding is the weight owner's plaintext work, not gates.
func BoothDigits(raw int64, n int) []bool {
	y := raw << uint(64-n) >> uint(64-n)
	out := make([]bool, 0, BoothBits(n))
	for k := 0; 2*k < n; k++ {
		neg, one, two := boothDigit(y, k)
		out = append(out, neg, one, two)
	}
	return out
}

// BoothBits returns len(BoothDigits(raw, n)): three bits per digit.
func BoothBits(n int) int { return 3 * ((n + 1) / 2) }

// boothDigit returns digit k of the sign-extended y.
func boothDigit(y int64, k int) (neg, one, two bool) {
	hi, mid := y>>uint(2*k+1)&1 == 1, y>>uint(2*k)&1 == 1
	lo := k > 0 && y>>uint(2*k-1)&1 == 1
	return hi, mid != lo, hi != mid && mid == lo
}

// mulGuard is the number of fraction columns below the binary point whose
// partial products the multiplier still sums. Three is the fewest that keep
// Mul within one ulp of the exact floor at Q3.12 (two leave up to 2 ulp).
const mulGuard = 3

// MulTruncation describes the truncated product for frac fraction bits. The
// array is radix-4 Booth over the multiplier's digits (BoothDigits): row k
// is the n+1 bits of |d_k|·x ⊕ neg_k at columns 2k…2k+n, and neg_k is added
// at column 2k. The bits of the columns below cols are never formed, and
// centre, the mean of their mass over uniform operands rounded to an
// integer, is added in their place (its bits below cols never reach a kept
// one). Only frac matters: no dropped bit reads either operand's sign.
// Below mulGuard+1 fraction bits nothing is dropped. stdcell.MulFixed
// builds its array from the same two numbers.
func MulTruncation(frac int) (cols int, centre int64) {
	cols = frac - mulGuard
	if cols < 1 {
		return 0, 0
	}
	// Over a uniform digit triple and x, neg_k and a row bit are 1 with
	// chance 1/2, except digit 0's row bits above bit 0: 3/8 (y[−1] = 0
	// makes d_0 one of 0, 1, −1, −2). Summed over the K = ⌈cols/2⌉ dropped
	// digits that is ((4K − 1)·2^cols + 2)/8, which centre rounds.
	return cols, (int64(4*((cols+1)/2)-1)<<uint(cols) + 6) >> 3
}

// Mul returns the fixed-point product (x·y − D + C) >> FracBits wrapped to
// the word, with m the multiplier (a model's weight): x·y is the exact
// signed product, D the Booth array bits of the columns MulTruncation drops
// and C its centring constant. This is, bit for bit, what stdcell.MulFixed
// computes on m's BoothDigits. Against the exact floor(x·y/2^frac) the
// result is off by at most one ulp at every format, since |C − D| < 2^frac
// (at Q3.12: −1344 ≤ C − D ≤ 1216 against an ulp of 4096), with a mean near
// zero; with no fraction bits it is the plain wrapping product.
func (n Num) Mul(m Num) Num {
	n.check(m)
	cols, prod := MulTruncation(n.fmt.FracBits)
	prod += n.raw * m.raw
	for k := 0; 2*k < cols; k++ {
		neg, one, two := boothDigit(m.raw, k)
		var row int64
		switch {
		case one:
			row = n.raw
		case two:
			row = n.raw << 1
		}
		if neg {
			row = ^row
			prod -= 1 << uint(2*k)
		}
		prod -= row & (int64(1)<<uint(cols-2*k) - 1) << uint(2*k)
	}
	return n.fmt.FromRaw(prod >> uint(n.fmt.FracBits))
}

// Div returns the fixed-point quotient truncated toward zero:
// (|n| << FracBits) / |m| on magnitudes, the sign applied afterwards and the
// result wrapped to the word — bit for bit what the non-restoring array of
// stdcell.DivFixed produces. Division by zero returns the maximum
// representable value with the sign of n (a hardware-style saturation;
// circuits cannot trap).
func (n Num) Div(m Num) Num {
	n.check(m)
	if m.raw == 0 {
		if n.raw < 0 {
			return n.fmt.Min()
		}
		return n.fmt.Max()
	}
	neg := (n.raw < 0) != (m.raw < 0)
	a := n.raw
	if a < 0 {
		a = -a
	}
	b := m.raw
	if b < 0 {
		b = -b
	}
	q := (a << uint(n.fmt.FracBits)) / b
	if neg {
		q = -q
	}
	return n.fmt.FromRaw(q)
}

// Shr returns n arithmetically shifted right by k bits (k >= 0).
func (n Num) Shr(k int) Num {
	if k < 0 {
		panic("fixed: negative shift")
	}
	if k >= 63 {
		if n.raw < 0 {
			return n.fmt.FromRaw(-1)
		}
		return n.fmt.FromRaw(0)
	}
	return n.fmt.FromRaw(n.raw >> uint(k))
}

// Shl returns n shifted left by k bits with wrapping.
func (n Num) Shl(k int) Num {
	if k < 0 {
		panic("fixed: negative shift")
	}
	if k >= 63 {
		return n.fmt.FromRaw(0)
	}
	return n.fmt.FromRaw(n.raw << uint(k))
}

// Cmp returns -1, 0, or +1 as n is less than, equal to, or greater than m.
func (n Num) Cmp(m Num) int {
	n.check(m)
	switch {
	case n.raw < m.raw:
		return -1
	case n.raw > m.raw:
		return +1
	default:
		return 0
	}
}

// Abs returns the absolute value (wrapping at MinRaw like the circuit).
func (n Num) Abs() Num {
	if n.raw < 0 {
		return n.Neg()
	}
	return n
}

// ReLU returns max(0, n).
func (n Num) ReLU() Num {
	if n.raw < 0 {
		return n.fmt.Zero()
	}
	return n
}

// AppendVec appends xs converted into fixed point (saturating) to dst.
func (f Format) AppendVec(dst []Num, xs []float64) []Num {
	for _, x := range xs {
		dst = append(dst, f.FromFloatSat(x))
	}
	return dst
}

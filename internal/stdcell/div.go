package stdcell

// Division. DivFixed is the one divider: a non-restoring array over the
// operands' magnitudes. The remainder is kept signed and every quotient bit
// costs one add-or-subtract chosen by the previous remainder's sign (n−1
// non-XOR gates), where a restoring array pays a subtract and a mux. With
// r the restoring remainder, the non-restoring one is r when it is ≥ 0 and
// r − |y| otherwise; either way the next step forms 2r + d − |y|, whose
// sign is the restoring quotient bit — so the quotient, and with it
// fixed.Num.Div, is bit for bit the same. At Q3.12 a full-width DIV costs
// 496 non-XOR gates.

import (
	"deepsecure/internal/circuit"
)

// DivFixed returns the signed fixed-point quotient matching
// fixed.Num.Div bit-for-bit: q = trunc-toward-zero((x << fracBits) / y)
// wrapped to the word width, with division by zero saturating to
// Max/Min according to the dividend's sign.
//
// qbits is the number of quotient bits the array computes. The magnitude
// quotient (|x| << fracBits) / |y| has len(x)+fracBits bits; a caller that
// can prove it is below 2^qbits for every y ≠ 0 it presents passes that
// smaller qbits: the leading quotient bits are then zero, a restoring
// remainder would just have collected the high dividend bits, so those
// preload the remainder and only the low qbits steps are emitted. If the
// bound does not hold the result is unspecified.
func DivFixed(b *circuit.Builder, x, y Word, fracBits, qbits int) Word {
	n := len(x)
	sameWidth(x, y)
	if qbits < 1 || qbits > n+fracBits {
		panic("stdcell: DivFixed quotient width out of range")
	}

	// Magnitudes as unsigned n-bit words (|Min| = 2^(n−1) included), and
	// the dividend |x| << fracBits.
	ax, ay := Abs(b, x), Abs(b, y)
	d := append(Zeros(b, fracBits), ax...)

	// The remainder stays in [−|y|, |y|), n bits signed; the bit its
	// doubling shifts out is redundant with the sign kept in neg.
	rem := ZeroExtend(b, d[qbits:], n)
	neg := circuit.WFalse
	q := make(Word, qbits)
	for i := qbits - 1; i >= 0; i-- {
		shifted := append(Word{d[i]}, rem[:n-1]...)
		rem = AddSub(b, shifted, ay, b.INV(neg))
		neg = rem.Sign()
		q[i] = b.INV(neg)
	}

	// Apply the sign in the fewest bits that hold ±q: the word width when
	// the quotient is wider (congruence mod 2^n survives the truncation).
	qw := min(qbits+1, n)
	sign := b.XOR(x.Sign(), y.Sign())
	out := SignExtend(b, AddSub(b, Zeros(b, qw), ZeroExtend(b, q, qw), sign), n)

	// Division by zero: saturate to Max (0111…1) or Min (1000…0) with the
	// dividend's sign, mirroring fixed.Num.Div.
	sat := SignExtend(b, Word{b.INV(x.Sign())}, n)
	sat[n-1] = x.Sign()
	return Mux(b, IsZero(b, y), sat, out)
}

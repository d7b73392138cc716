// Package stdcell is DeepSecure's GC-optimized circuit component library
// (paper §3.4). It provides word-level arithmetic generators over the
// netlist Builder: adders, signed multipliers, dividers, comparators,
// multiplexers, shifts, ReLU, LUTs, and argmax — each constructed to
// minimize non-XOR gates, since only non-XOR gates cost communication and
// cryptographic work under Free-XOR + half-gates.
//
// A Word is a little-endian slice of wire ids representing a two's-
// complement integer. All operations have wrapping semantics that agree
// bit-for-bit with internal/fixed, which is asserted by the package tests.
package stdcell

import (
	"fmt"

	"deepsecure/internal/circuit"
)

// Word is a little-endian (LSB-first) vector of wires forming a two's-
// complement integer. Entries may alias (e.g. sign extension repeats the
// sign wire) and may be the constant wires.
type Word []uint32

// Input declares a fresh width-bit input word owned by party.
func Input(b *circuit.Builder, party circuit.Party, width int) Word {
	return Word(b.Inputs(party, width))
}

// Const materializes a constant word of the given width from the low bits
// of raw (two's complement).
func Const(b *circuit.Builder, width int, raw int64) Word {
	w := make(Word, width)
	for i := 0; i < width; i++ {
		w[i] = b.Const((raw>>uint(i))&1 == 1)
	}
	return w
}

// Zeros returns a width-bit all-zero word.
func Zeros(b *circuit.Builder, width int) Word { return Const(b, width, 0) }

// Sign returns the sign wire (MSB).
func (w Word) Sign() uint32 { return w[len(w)-1] }

// Clone returns a copy of the word (the wires are shared, the slice is not).
func (w Word) Clone() Word { return append(Word(nil), w...) }

func sameWidth(x, y Word) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stdcell: width mismatch %d vs %d", len(x), len(y)))
	}
}

// extend returns x cut or widened to width bits, the new bits wired to fill.
func extend(x Word, width int, fill uint32) Word {
	out := make(Word, width)
	for i := copy(out, x); i < width; i++ {
		out[i] = fill
	}
	return out
}

// SignExtend widens x to width bits by replicating the sign wire (free).
// If width <= len(x) it truncates instead.
func SignExtend(b *circuit.Builder, x Word, width int) Word { return extend(x, width, x.Sign()) }

// ZeroExtend widens x to width bits with constant-zero fill.
func ZeroExtend(b *circuit.Builder, x Word, width int) Word { return extend(x, width, circuit.WFalse) }

// ShlConst shifts left by k within the word width (zero fill, free).
func ShlConst(b *circuit.Builder, x Word, k int) Word {
	k = min(k, len(x))
	return append(Zeros(b, k), x[:len(x)-k]...)
}

// ShrArith shifts right arithmetically by k within the word width (sign
// fill, free).
func ShrArith(b *circuit.Builder, x Word, k int) Word {
	return extend(x[min(k, len(x)):], len(x), x.Sign())
}

// ShrLogic shifts right logically by k (zero fill, free).
func ShrLogic(b *circuit.Builder, x Word, k int) Word {
	return extend(x[min(k, len(x)):], len(x), circuit.WFalse)
}

// addCin returns x+y+cin wrapped to the word width. The full adder uses the
// 1-AND construction: s = a⊕b⊕c, c' = c ⊕ ((a⊕c)∧(b⊕c)); the carry out of
// the top bit is never formed, so an n-bit adder costs n-1 non-XOR gates.
func addCin(b *circuit.Builder, x, y Word, cin uint32) Word {
	sameWidth(x, y)
	n := len(x)
	out := make(Word, n)
	c := cin
	for i := 0; i < n; i++ {
		t1 := b.XOR(x[i], c)
		t2 := b.XOR(y[i], c)
		out[i] = b.XOR(t1, y[i])
		if i < n-1 {
			c = b.XOR(c, b.AND(t1, t2))
		}
	}
	return out
}

// Add returns x+y wrapped to the word width (n-1 non-XOR gates).
func Add(b *circuit.Builder, x, y Word) Word { return addCin(b, x, y, circuit.WFalse) }

// AddSub returns x+y when sub=0 and x-y when sub=1, wrapped to the word
// width: x + (y⊕sub) + sub, one adder — the operand XORs are free.
func AddSub(b *circuit.Builder, x, y Word, sub uint32) Word {
	flipped := make(Word, len(y))
	for i := range y {
		flipped[i] = b.XOR(y[i], sub)
	}
	return addCin(b, x, flipped, sub)
}

// Sub returns x-y wrapped to the word width.
func Sub(b *circuit.Builder, x, y Word) Word { return AddSub(b, x, y, circuit.WTrue) }

// Neg returns -x (two's complement, wrapping: -Min = Min).
func Neg(b *circuit.Builder, x Word) Word {
	return Sub(b, Zeros(b, len(x)), x)
}

// Mux returns t when sel=1, f when sel=0, one AND per bit.
func Mux(b *circuit.Builder, sel uint32, t, f Word) Word {
	sameWidth(t, f)
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.MUX(sel, t[i], f[i])
	}
	return out
}

// GTU returns the wire (x > y) for unsigned words, using the 1-AND-per-bit
// comparator chain.
func GTU(b *circuit.Builder, x, y Word) uint32 {
	sameWidth(x, y)
	r := circuit.WFalse
	for i := 0; i < len(x); i++ {
		d := b.XOR(x[i], y[i])
		r = b.MUX(d, x[i], r)
	}
	return r
}

// GT returns the wire (x > y) for signed words: flip the sign bits (free)
// and compare unsigned.
func GT(b *circuit.Builder, x, y Word) uint32 {
	sameWidth(x, y)
	xf := x.Clone()
	yf := y.Clone()
	xf[len(xf)-1] = b.INV(x.Sign())
	yf[len(yf)-1] = b.INV(y.Sign())
	return GTU(b, xf, yf)
}

// IsZero returns the wire (x == 0): n-1 non-XOR gates.
func IsZero(b *circuit.Builder, x Word) uint32 {
	bits := make([]uint32, len(x))
	for i := range x {
		bits[i] = b.INV(x[i])
	}
	return andTree(b, bits)
}

func andTree(b *circuit.Builder, bits []uint32) uint32 {
	for len(bits) > 1 {
		var next []uint32
		for i := 0; i+1 < len(bits); i += 2 {
			next = append(next, b.AND(bits[i], bits[i+1]))
		}
		if len(bits)%2 == 1 {
			next = append(next, bits[len(bits)-1])
		}
		bits = next
	}
	return bits[0]
}

// Max returns max(x, y) signed (comparator + mux, ~2n non-XOR).
func Max(b *circuit.Builder, x, y Word) Word {
	return Mux(b, GT(b, x, y), x, y)
}

// ReLU returns max(0, x): every bit ANDed with the negated sign, and the
// sign bit itself forced to zero — n-1 non-XOR gates for an n-bit word,
// matching the paper's Table 3 ReLU cost.
func ReLU(b *circuit.Builder, x Word) Word {
	n := len(x)
	ns := b.INV(x.Sign())
	out := make(Word, n)
	for i := 0; i < n-1; i++ {
		out[i] = b.AND(x[i], ns)
	}
	out[n-1] = circuit.WFalse
	return out
}

// Abs returns |x| (wrapping at Min like two's-complement hardware; read as
// an unsigned word the result is exact, |Min| = 2^(n-1)): 0 − x when the
// sign is set, 0 + x otherwise, n-1 non-XOR gates.
func Abs(b *circuit.Builder, x Word) Word {
	return AddSub(b, Zeros(b, len(x)), x, x.Sign())
}

package stdcell

// Multiplication. MulFixed is the one multiplier: a radix-4 Booth array
// whose digits are inputs of the multiplier's owner. In a model the
// multiplier is a weight, which the server knows in the clear, so it feeds
// fixed.BoothDigits — ⌈n/2⌉ digits of three bits — instead of the word's n
// bits: the recoding costs OT width, not gates, each partial-product bit
// one∧x[j] ⊕ two∧x[j−1] is two half ANDs, and there are ⌈n/2⌉ rows instead
// of n. At Q3.12 that is 312 non-XOR gates (211 half ANDs + 101 adders),
// 413 ciphertexts, for a product within one ulp of the exact
// floor(x·y/2^frac). Dot and MatVec are MACs over it.
//
// A digit with one = two = 1 is not a Booth digit: its row is x[j] ⊕
// x[j−1], a product fixed.Num.Mul does not model. Only the digits' owner
// can feed one, and a server that can already choose any weight gains
// nothing from it against the client's input, so the honest-but-curious
// argument is unchanged.

import (
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
)

// MulFixed returns the fixed-point product of the n-bit word x and the
// multiplier given as its Booth digits y (fixed.BoothDigits, of width
// fixed.BoothBits(n)), with fracBits < n fractional bits: bits
// [fracBits, fracBits+n) of the signed product less its dropped array bits
// plus their centring constant — exactly fixed.Num.Mul (fracBits = 0 is the
// plain wrapping product).
//
// The product mod 2^m, m = n+fracBits, determines every kept bit, so only
// the columns below m are emitted, and of those only the ones
// fixed.MulTruncation keeps: the lowest frac−3 reach a kept bit only as a
// carry, so their bits are dropped and their mean added as a constant
// instead. Row k is the n+1 bits of |d_k|·x (x sign-extended) XORed with
// neg_k at columns 2k…2k+n, and neg_k itself is added at column 2k, which
// together make d_k·x. The row's top bit weighs −2^col; since −p = ¬p − 1
// it enters its column inverted (free) and its −1 joins the constant. A
// bit the builder folds to a constant (post-ReLU sign bit) joins that
// constant instead of a column. Columns are then reduced lowest first with
// 1-AND full adders, each column a FIFO — inputs from the front, sum to the
// back, carry to the back of the next column — so the adder trees stay
// balanced. Generation order is fixed: both parties derive the same gate
// stream.
func MulFixed(b *circuit.Builder, x, y Word, fracBits int) Word {
	n := len(x)
	if len(y) != fixed.BoothBits(n) {
		panic("stdcell: MulFixed wants the multiplier as Booth digits of the word's width")
	}
	if fracBits >= n {
		panic("stdcell: MulFixed needs fracBits below the word width")
	}
	m := n + fracBits
	drop, konst := fixed.MulTruncation(fracBits)
	cols := make([][]uint32, m)
	put := func(col int, p uint32) {
		switch p {
		case circuit.WFalse:
		case circuit.WTrue:
			konst += 1 << uint(col)
		default:
			cols[col] = append(cols[col], p)
		}
	}
	bit := func(j int) uint32 { // x sign-extended, x[−1] = 0
		if j < 0 {
			return circuit.WFalse
		}
		return x[min(j, n-1)]
	}
	for k := 0; 3*k < len(y); k++ {
		neg, one, two := y[3*k], y[3*k+1], y[3*k+2]
		for j := max(drop-2*k, 0); j <= n && 2*k+j < m; j++ {
			p := b.XOR(b.XOR(b.AND(one, bit(j)), b.AND(two, bit(j-1))), neg)
			if j == n {
				p = b.INV(p)
				konst -= 1 << uint(2*k+n)
			}
			put(2*k+j, p)
		}
		if 2*k >= drop {
			put(2*k, neg)
		}
	}
	out := Zeros(b, m)
	for k := 0; k < m; k++ {
		q := cols[k]
		if konst>>uint(k)&1 == 1 {
			q = append(q, circuit.WTrue)
		}
		if k == m-1 { // no carry leaves the window: XOR only
			for _, w := range q {
				out[k] = b.XOR(out[k], w)
			}
			break
		}
		for len(q) > 1 {
			u, v, c := q[0], q[1], circuit.WFalse
			q = q[2:]
			if len(q) > 0 { // a third bit: full adder, else half adder
				c, q = q[0], q[1:]
			}
			t1, t2 := b.XOR(u, c), b.XOR(v, c)
			sum, carry := b.XOR(t1, v), b.XOR(c, b.AND(t1, t2))
			if sum != circuit.WFalse { // x∧x folds to x, so x⊕x can appear
				q = append(q, sum)
			}
			if carry != circuit.WFalse {
				cols[k+1] = append(cols[k+1], carry)
			}
		}
		if len(q) == 1 {
			out[k] = q[0]
		}
	}
	return out[fracBits:]
}

// Dot computes the fixed-point dot product Σ xs[i]*ws[i] with n-bit
// wrapping accumulation — the paper's matrix–vector multiplication row
// (Table 3 last row): m multipliers and m-1 adders per output element. ws
// are the weights' Booth digits (see MulFixed). Each product is reduced to
// n bits on its own before it is added: one column array per row would
// round once instead of m times, which is more accurate but no cheaper
// (every partial-product bit still needs its own 1-AND adder), and
// fixed.Num rounds every product separately.
func Dot(b *circuit.Builder, xs, ws []Word, fracBits int) Word {
	if len(xs) != len(ws) {
		panic("stdcell: Dot operand count mismatch")
	}
	if len(xs) == 0 {
		panic("stdcell: empty Dot")
	}
	acc := MulFixed(b, xs[0], ws[0], fracBits)
	for i := 1; i < len(xs); i++ {
		acc = Add(b, acc, MulFixed(b, xs[i], ws[i], fracBits))
	}
	return acc
}

// MatVec computes W·x for an (rows × cols) weight matrix given in row-major
// order, each weight as its Booth digits. Each output element is a Dot row.
func MatVec(b *circuit.Builder, w []Word, x []Word, rows, cols, fracBits int) []Word {
	if len(w) != rows*cols {
		panic("stdcell: MatVec weight count mismatch")
	}
	if len(x) != cols {
		panic("stdcell: MatVec input width mismatch")
	}
	out := make([]Word, rows)
	for r := 0; r < rows; r++ {
		out[r] = Dot(b, x, w[r*cols:(r+1)*cols], fracBits)
	}
	return out
}

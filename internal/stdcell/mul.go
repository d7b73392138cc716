package stdcell

// Multiplication. MulFixed is the one multiplier: a Baugh-Wooley signed
// array restricted to the columns the kept bits depend on, reduced column
// by column, and truncated below three guard columns: the partial products
// of the lowest frac−3 columns only ever reach a kept bit as a carry, so
// they are dropped and their mean added as a constant instead
// (fixed.MulTruncation; fixed.Num.Mul is defined as the same function). At
// Q3.12 that is 388 non-XOR gates (205 partial products + 183 adders), 92
// below the exact floor(x·y/2^frac), for a product within one ulp of it;
// with two guard columns the error reaches 2 ulp. Dot and MatVec are MACs
// over it.

import (
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
)

// MulFixed returns the fixed-point product of two n-bit words with
// fracBits < n fractional bits: bits [fracBits, fracBits+n) of the signed
// product less its dropped partial products plus their centring constant —
// exactly fixed.Num.Mul (fracBits = 0 is the plain wrapping product).
//
// The product mod 2^m, m = n+fracBits, determines every kept bit, so only
// the partial products x[i]∧y[j] of columns i+j < m are emitted, and of
// those only the columns fixed.MulTruncation keeps (the dropped ones lie
// below the sign rows, which start at column n−1). The two sign rows weigh
// −2^(i+j); since −p = ¬p − 1 they enter their column inverted (free) and
// their −1s, summed here, leave the constant 2^n − 2^(2n−1). A partial
// product the builder folds to a constant (post-ReLU sign bit, constant
// weight) joins that constant instead of a column. Columns are then reduced
// lowest first with 1-AND full adders, each column a FIFO — inputs from the
// front, sum to the back, carry to the back of the next column — so the
// adder trees stay balanced. Generation order is fixed: both parties derive
// the same gate stream.
func MulFixed(b *circuit.Builder, x, y Word, fracBits int) Word {
	sameWidth(x, y)
	n := len(x)
	m := n + fracBits
	if fracBits >= n {
		panic("stdcell: MulFixed needs fracBits below the word width")
	}
	drop, centre := fixed.MulTruncation(fracBits)
	cols := make([][]uint32, m)
	ones := make([]int, m+1) // constant addend: count of 1s per column
	for k := 0; k < m; k++ {
		ones[k] = int(centre >> uint(k) & 1)
	}
	if n < m {
		ones[n]++
	}
	for k := 2*n - 1; k < m; k++ { // −2^(2n−1) mod 2^m
		ones[k]++
	}
	for i := 0; i < n; i++ {
		for j := max(drop-i, 0); j < n && i+j < m; j++ {
			p := b.AND(x[i], y[j])
			if (i == n-1) != (j == n-1) {
				p = b.INV(p)
			}
			switch p {
			case circuit.WFalse:
			case circuit.WTrue:
				ones[i+j]++
			default:
				cols[i+j] = append(cols[i+j], p)
			}
		}
	}
	out := Zeros(b, m)
	for k := 0; k < m; k++ {
		ones[k+1] += ones[k] / 2
		q := cols[k]
		if ones[k]%2 == 1 {
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
// (Table 3 last row): m multipliers and m-1 adders per output element.
// Each product is reduced to n bits on its own before it is added: one
// column array per row would round once instead of m times, which is more
// accurate but no cheaper (every partial-product bit still needs its own
// 1-AND adder), and fixed.Num rounds every product separately.
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
// Word order. Each output element is a Dot row.
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

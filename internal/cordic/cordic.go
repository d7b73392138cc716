// Package cordic implements the COordinate Rotation DIgital Computer in
// hyperbolic rotation mode, the engine the paper uses for its zero-error
// Tanh and Sigmoid realizations (§4.2, Table 3).
//
// Plain hyperbolic CORDIC only converges for |z| ≲ 1.118, while DL
// pre-activations in the Q3.12 format span (-8, 8). We therefore use the
// standard range expansion with negative-indexed iterations
// (x' = x ± y·(1−2^{i−2})), which extends convergence past the format
// range at the cost of a few extra add/sub stages.
//
// The package provides a software fixed-point model and a circuit
// generator that are bit-exact with one another: both walk the same
// iteration schedule with the same wrapped-integer semantics, so the
// garbled circuit provably computes what the software model computes.
package cordic

import (
	"fmt"
	"math"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

// iteration is one CORDIC stage. For positive-index stages the cross term
// is y>>Shift; for negative-index (expansion) stages it is y - (y>>Shift).
type iteration struct {
	Shift    int
	Negative bool  // expansion stage: term = v - (v >> Shift)
	Theta    int64 // atanh angle in internal fixed-point
}

// Engine holds a CORDIC schedule specialized to an external fixed-point
// format. The internal datapath is wider: 1 sign + IntW integer +
// format.FracBits fractional bits, sized so cosh/e^{|z|max} cannot
// overflow.
type Engine struct {
	Fmt      fixed.Format
	Internal fixed.Format // internal datapath format
	schedule []iteration
	x0       int64 // 1/K gain pre-correction in internal fixed point
	oneI     int64 // 1.0 in internal fixed point
}

// New builds an engine for the given external format, or says why there is
// none: a format with more than a few integer bits needs a datapath wider
// than fixed.Num.Div, the oracle of the divider circuit, is exact for (and
// the format may be a peer's: nn.Spec.Build asks through act.New).
func New(f fixed.Format) (*Engine, error) {
	maxZ := math.Exp2(float64(f.IntBits)) // |z| < 2^IntBits
	// e^{maxZ} bounds every datapath quantity; add 2 guard bits.
	intW := int(math.Ceil(math.Log2(math.Cosh(maxZ)))) + 3
	internal := fixed.Format{IntBits: intW, FracBits: f.FracBits}
	if err := internal.Validate(); err != nil {
		return nil, fmt.Errorf("cordic: format %+v needs the internal datapath %+v: %w", f, internal, err)
	}

	e := &Engine{Fmt: f, Internal: internal}
	scale := internal.Scale()
	gain := 1.0
	coverage := 0.0

	// Positive iterations i = 1..FracBits+1 with the classic repeats at
	// i = 4, 13, 40, ... (needed for hyperbolic convergence).
	var pos []iteration
	repeat := map[int]bool{4: true, 13: true, 40: true}
	for i := 1; i <= f.FracBits+1; i++ {
		th := math.Atanh(math.Exp2(float64(-i)))
		n := 1
		if repeat[i] {
			n = 2
		}
		for k := 0; k < n; k++ {
			pos = append(pos, iteration{Shift: i, Theta: int64(math.Round(th * scale))})
			gain *= math.Sqrt(1 - math.Exp2(float64(-2*i)))
			coverage += th
		}
	}

	// Negative (expansion) iterations i = 0, -1, -2, ... until the total
	// angle coverage exceeds the format's maximum |z| with margin.
	var neg []iteration
	for i := 0; coverage < maxZ+0.5; i-- {
		c := 1 - math.Exp2(float64(i-2))
		th := math.Atanh(c)
		neg = append(neg, iteration{Shift: 2 - i, Negative: true, Theta: int64(math.Round(th * scale))})
		gain *= math.Sqrt(1 - c*c)
		coverage += th
	}
	// Largest angles first: the expansion stages were generated smallest
	// to largest, so reverse them.
	for l, r := 0, len(neg)-1; l < r; l, r = l+1, r-1 {
		neg[l], neg[r] = neg[r], neg[l]
	}
	e.schedule = append(neg, pos...)
	e.x0 = int64(math.Round(scale / gain))
	e.oneI = int64(scale)
	return e, nil
}

// Iterations returns the number of CORDIC stages in the schedule.
func (e *Engine) Iterations() int { return len(e.schedule) }

// term computes the stage cross-term from v: v>>s for normal stages,
// v - (v>>s) for expansion stages, in wrapped internal arithmetic.
func (e *Engine) term(it iteration, v int64) int64 {
	sh := e.Internal.Wrap(v >> uint(it.Shift))
	if it.Negative {
		return e.Internal.Wrap(v - sh)
	}
	return sh
}

// Rotate runs the schedule on angle z (external format) and returns
// cosh(z) and sinh(z) in the internal format's raw representation.
func (e *Engine) Rotate(z fixed.Num) (coshRaw, sinhRaw int64) {
	w := e.Internal.Wrap
	x, y := e.x0, int64(0)
	zz := w(z.Raw()) // same FracBits: re-interpreting in the wide format
	for _, it := range e.schedule {
		negDir := zz < 0 // d = -1
		tx := e.term(it, y)
		ty := e.term(it, x)
		if negDir {
			x, y = w(x-tx), w(y-ty)
			zz = w(zz + it.Theta)
		} else {
			x, y = w(x+tx), w(y+ty)
			zz = w(zz - it.Theta)
		}
	}
	return x, y
}

// quotientBits is the width of the divider the circuits emit: |tanh| and
// sigmoid are at most 1.0 = 2^FracBits, so the magnitude quotient fits
// FracBits+1 bits and one more absorbs the rotation's rounding. The full
// internal-width quotient would cost three times the divider steps for
// leading bits that are provably zero.
func (e *Engine) quotientBits() int { return e.Fmt.FracBits + 2 }

// Tanh computes tanh(z) = sinh(z)/cosh(z) in the external format. The
// CORDIC gain cancels in the quotient, and the fixed-point division
// matches the DivFixed circuit bit-for-bit.
func (e *Engine) Tanh(z fixed.Num) fixed.Num {
	x, y := e.Rotate(z)
	q := e.Internal.FromRaw(y).Div(e.Internal.FromRaw(x))
	return e.Fmt.FromRaw(q.Raw()) // wrap to external width
}

// Sigmoid computes 1/(1 + cosh(z) - sinh(z)) = 1/(1+e^{-z}) in the
// external format, using the paper's formulation (§4.2): CORDIC plus two
// additions and one division.
func (e *Engine) Sigmoid(z fixed.Num) fixed.Num {
	x, y := e.Rotate(z)
	den := e.Internal.Wrap(e.oneI + x - y)
	q := e.Internal.FromRaw(e.oneI).Div(e.Internal.FromRaw(den))
	return e.Fmt.FromRaw(q.Raw())
}

// RotateCircuit emits the CORDIC datapath for input word z (external
// width) and returns the cosh and sinh words in the internal width.
func (e *Engine) RotateCircuit(b *circuit.Builder, z stdcell.Word) (cosh, sinh stdcell.Word) {
	if len(z) != e.Fmt.Bits() {
		panic("cordic: input width mismatch")
	}
	w := e.Internal.Bits()
	x := stdcell.Const(b, w, e.x0)
	y := stdcell.Zeros(b, w)
	zz := stdcell.SignExtend(b, z, w)
	for _, it := range e.schedule {
		s := zz.Sign() // 1 ⇒ rotate negative
		var tx, ty stdcell.Word
		if it.Negative {
			tx = stdcell.Sub(b, y, stdcell.ShrArith(b, y, it.Shift))
			ty = stdcell.Sub(b, x, stdcell.ShrArith(b, x, it.Shift))
		} else {
			tx = stdcell.ShrArith(b, y, it.Shift)
			ty = stdcell.ShrArith(b, x, it.Shift)
		}
		nx := stdcell.AddSub(b, x, tx, s)
		ny := stdcell.AddSub(b, y, ty, s)
		// z update: z -= d*theta ⇒ add theta when s=1, subtract when s=0.
		theta := stdcell.Const(b, w, it.Theta)
		nz := stdcell.AddSub(b, zz, theta, b.INV(s))
		x, y, zz = nx, ny, nz
	}
	return x, y
}

// TanhCircuit emits tanh(z) as a circuit over the external format.
func (e *Engine) TanhCircuit(b *circuit.Builder, z stdcell.Word) stdcell.Word {
	x, y := e.RotateCircuit(b, z)
	q := stdcell.DivFixed(b, y, x, e.Internal.FracBits, e.quotientBits())
	return q[:e.Fmt.Bits()].Clone()
}

// SigmoidCircuit emits sigmoid(z) as a circuit over the external format.
func (e *Engine) SigmoidCircuit(b *circuit.Builder, z stdcell.Word) stdcell.Word {
	x, y := e.RotateCircuit(b, z)
	one := stdcell.Const(b, e.Internal.Bits(), e.oneI)
	den := stdcell.Sub(b, stdcell.Add(b, one, x), y)
	q := stdcell.DivFixed(b, one, den, e.Internal.FracBits, e.quotientBits())
	return q[:e.Fmt.Bits()].Clone()
}

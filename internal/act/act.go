// Package act implements the paper's menu of non-linearity realizations
// (Table 3): look-up-table, truncated-input LUT, piecewise-linear (PLAN),
// and CORDIC variants of Tanh and Sigmoid, plus ReLU. Each variant offers
// a different point on the accuracy/GC-cost trade-off curve (§4.2).
//
// Every variant exposes a software fixed-point evaluation and a circuit
// generator that are bit-exact with each other, plus a float64 reference
// used to quantify the approximation error reported in Table 3.
package act

import (
	"fmt"
	"math"

	"deepsecure/internal/circuit"
	"deepsecure/internal/cordic"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

// Kind selects an activation realization.
type Kind int

// Supported activation realizations.
const (
	Identity Kind = iota
	ReLU
	TanhLUT    // full-precision LUT over the saturated magnitude domain
	TanhTrunc  // LUT with 2 LSB fraction bits and the MSB integer bit dropped
	TanhPL     // piecewise-linear (PLAN-derived)
	TanhCORDIC // hyperbolic CORDIC + division
	SigmoidLUT
	SigmoidTrunc
	SigmoidPLAN
	SigmoidCORDIC
)

// String names the kind in Table 3 style.
func (k Kind) String() string {
	switch k {
	case Identity:
		return "Identity"
	case ReLU:
		return "ReLu"
	case TanhLUT:
		return "TanhLUT"
	case TanhTrunc:
		return "TanhTrunc"
	case TanhPL:
		return "TanhPL"
	case TanhCORDIC:
		return "TanhCORDIC"
	case SigmoidLUT:
		return "SigmoidLUT"
	case SigmoidTrunc:
		return "SigmoidTrunc"
	case SigmoidPLAN:
		return "SigmoidPLAN"
	case SigmoidCORDIC:
		return "SigmoidCORDIC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k names one of the realizations above.
func (k Kind) Valid() bool { return k >= Identity && k <= SigmoidCORDIC }

// IsTanh reports whether the kind approximates tanh.
func (k Kind) IsTanh() bool {
	return k == TanhLUT || k == TanhTrunc || k == TanhPL || k == TanhCORDIC
}

// IsSigmoid reports whether the kind approximates the logistic sigmoid.
func (k Kind) IsSigmoid() bool {
	return k == SigmoidLUT || k == SigmoidTrunc || k == SigmoidPLAN || k == SigmoidCORDIC
}

// Impl is an activation realization bound to a fixed-point format.
type Impl struct {
	Kind Kind
	Fmt  fixed.Format

	eng      *cordic.Engine // CORDIC variants
	table    []int64        // LUT variants
	idxBits  int
	idxShift int // how many low fraction bits the index drops
	satIdx   int64
}

// MaxLUTBits caps a LUT realization's index width: 2^20 entries is 8 MB of
// table and millions of gates per activation, far past anything Table 3
// considers; a format that asks for more (Q15.16: 2^29) is refused.
const MaxLUTBits = 20

// New builds an activation implementation for the format. A valid format
// can still be one a realization has no datapath for — CORDIC's internal
// format too wide, a LUT past MaxLUTBits — and it may be a peer's
// (nn.Spec.Build), so that is an error.
func New(kind Kind, f fixed.Format) (*Impl, error) {
	a := &Impl{Kind: kind, Fmt: f}
	switch kind {
	case TanhCORDIC, SigmoidCORDIC:
		var err error
		if a.eng, err = cordic.New(f); err != nil {
			return nil, fmt.Errorf("act: %v: %w", kind, err)
		}
	case TanhLUT, SigmoidLUT:
		// Index = magnitude bits [1 .. 1+idxBits) — the LSB is dropped,
		// halving the table while staying within ~1 ULP.
		return a, a.buildLUT(1)
	case TanhTrunc, SigmoidTrunc:
		// Paper's 2.10.12-style truncation: drop 2 LSB fraction bits (and
		// the saturation comparison handles the top integer bit).
		return a, a.buildLUT(2)
	}
	return a, nil
}

// buildLUT fills the magnitude-domain table. For tanh the domain is
// [0, 2^(IntBits-1)) — tanh(4) is within 1 ULP of 1 in Q3.12, so
// saturating above it is nearly exact. Sigmoid approaches 1 far more
// slowly (σ(4) ≈ 0.982), so its table spans the full [0, 2^IntBits)
// magnitude range. Symmetry reconstructs negative inputs:
// tanh(-x) = -tanh(x) and sigmoid(-x) = 1 - sigmoid(x).
func (a *Impl) buildLUT(drop int) error {
	f := a.Fmt
	a.idxShift = drop
	intBits := f.IntBits - 1
	if a.Kind.IsSigmoid() {
		intBits = f.IntBits
	}
	a.idxBits = intBits + f.FracBits - drop
	if a.idxBits < 0 || a.idxBits > MaxLUTBits {
		return fmt.Errorf("act: %v at %+v needs a table of 2^%d entries, outside [2^0, 2^%d]", a.Kind, f, a.idxBits, MaxLUTBits)
	}
	n := 1 << uint(a.idxBits)
	a.table = make([]int64, n)
	step := float64(int64(1)<<uint(drop)) / f.Scale()
	for i := 0; i < n; i++ {
		// Midpoint of the input interval covered by this index.
		x := (float64(i) + 0.5) * step
		var y float64
		if a.Kind.IsTanh() {
			y = math.Tanh(x)
		} else {
			y = 1 / (1 + math.Exp(-x))
		}
		a.table[i] = f.FromFloatSat(y).Raw()
	}
	a.satIdx = int64(n) << uint(drop) // first magnitude beyond the table
	return nil
}

// RefFloat is the exact real-valued function the realization approximates.
func (a *Impl) RefFloat(x float64) float64 {
	switch {
	case a.Kind == Identity:
		return x
	case a.Kind == ReLU:
		return math.Max(0, x)
	case a.Kind.IsTanh():
		return math.Tanh(x)
	default:
		return 1 / (1 + math.Exp(-x))
	}
}

// Eval computes the activation in software, bit-exact with Circuit.
func (a *Impl) Eval(x fixed.Num) fixed.Num {
	switch a.Kind {
	case Identity:
		return x
	case ReLU:
		return x.ReLU()
	case TanhCORDIC:
		return a.eng.Tanh(x)
	case SigmoidCORDIC:
		return a.eng.Sigmoid(x)
	case TanhPL:
		return a.tanhPL(x)
	case SigmoidPLAN:
		return a.sigmoidPLAN(x)
	default: // LUT variants
		return a.evalLUT(x)
	}
}

func (a *Impl) evalLUT(x fixed.Num) fixed.Num {
	f := a.Fmt
	neg := x.IsNeg()
	mag := x.Abs().Raw()
	var y int64
	if mag >= a.satIdx || mag < 0 { // mag<0 only when x = Min (wraps)
		y = f.One().Raw()
	} else {
		y = a.table[mag>>uint(a.idxShift)]
	}
	if neg {
		if a.Kind.IsTanh() {
			return f.FromRaw(-y)
		}
		return f.FromRaw(f.One().Raw() - y) // sigmoid(-x) = 1 - sigmoid(x)
	}
	return f.FromRaw(y)
}

// plan is the classic PLAN piecewise-linear sigmoid approximation
// (Amin/Curtis/Hayes-Gill 1997, the paper's [32]) for x >= 0:
//
//	y = 1                 x >= 5
//	y = x/32 + 0.84375    2.375 <= x < 5
//	y = x/8  + 0.625      1 <= x < 2.375
//	y = x/4  + 0.5        0 <= x < 1
//
// All slopes are powers of two, so the circuit needs only free shifts,
// constant adders, and a mux chain.
type planSeg struct {
	limit     float64 // applies while x < limit
	shift     int     // slope = 2^-shift
	intercept float64
}

var planSegs = []planSeg{
	{limit: 1, shift: 2, intercept: 0.5},
	{limit: 2.375, shift: 3, intercept: 0.625},
	{limit: 5, shift: 5, intercept: 0.84375},
}

func (a *Impl) sigmoidPLANMag(mag int64) int64 {
	f := a.Fmt
	for _, s := range planSegs {
		if float64(mag)/f.Scale() < s.limit {
			b := f.FromFloatSat(s.intercept).Raw()
			return f.Wrap((mag >> uint(s.shift)) + b)
		}
	}
	return f.One().Raw()
}

func (a *Impl) sigmoidPLAN(x fixed.Num) fixed.Num {
	f := a.Fmt
	neg := x.IsNeg()
	mag := x.Abs().Raw()
	if mag < 0 { // x = Min wrapped
		mag = f.MaxRaw()
	}
	y := a.sigmoidPLANMag(mag)
	if neg {
		return f.FromRaw(f.One().Raw() - y)
	}
	return f.FromRaw(y)
}

// tanhPL computes tanh(x) = 2*PLAN(2x) - 1 with the doubling done on the
// magnitude (saturating) so large |x| maps to ±1 exactly.
func (a *Impl) tanhPL(x fixed.Num) fixed.Num {
	f := a.Fmt
	neg := x.IsNeg()
	mag := x.Abs().Raw()
	if mag < 0 {
		mag = f.MaxRaw()
	}
	mag2 := mag << 1
	if mag2 > f.MaxRaw() {
		mag2 = f.MaxRaw()
	}
	y := a.sigmoidPLANMag(mag2)      // in [0.5, 1]
	t := f.Wrap(2*y - f.One().Raw()) // 2y - 1 in [0, 1]
	if neg {
		t = -t
	}
	return f.FromRaw(t)
}

// Circuit emits the activation over word x, bit-exact with Eval.
func (a *Impl) Circuit(b *circuit.Builder, x stdcell.Word) stdcell.Word {
	if len(x) != a.Fmt.Bits() {
		panic("act: input width mismatch")
	}
	switch a.Kind {
	case Identity:
		return x.Clone()
	case ReLU:
		return stdcell.ReLU(b, x)
	case TanhCORDIC:
		return a.eng.TanhCircuit(b, x)
	case SigmoidCORDIC:
		return a.eng.SigmoidCircuit(b, x)
	case TanhPL:
		return a.tanhPLCircuit(b, x)
	case SigmoidPLAN:
		return a.sigmoidPLANCircuit(b, x)
	default:
		return a.lutCircuit(b, x)
	}
}

func (a *Impl) lutCircuit(b *circuit.Builder, x stdcell.Word) stdcell.Word {
	f := a.Fmt
	n := f.Bits()
	s := x.Sign()
	mag := stdcell.Abs(b, stdcell.SignExtend(b, x, n+1)) // |Min| representable
	// Saturated if any magnitude bit at or above satIdx is set.
	idx := make(stdcell.Word, a.idxBits)
	copy(idx, mag[a.idxShift:a.idxShift+a.idxBits])
	var satBits []uint32
	for i := a.idxShift + a.idxBits; i < len(mag); i++ {
		satBits = append(satBits, mag[i])
	}
	sat := orTree(b, satBits)
	y := stdcell.LUT(b, idx, n, a.table)
	one := stdcell.Const(b, n, f.One().Raw())
	y = stdcell.Mux(b, sat, one, y)
	if a.Kind.IsTanh() {
		return stdcell.Mux(b, s, stdcell.Neg(b, y), y)
	}
	return stdcell.Mux(b, s, stdcell.Sub(b, one, y), y)
}

func orTree(b *circuit.Builder, bits []uint32) uint32 {
	if len(bits) == 0 {
		return circuit.WFalse
	}
	for len(bits) > 1 {
		var next []uint32
		for i := 0; i+1 < len(bits); i += 2 {
			next = append(next, b.OR(bits[i], bits[i+1]))
		}
		if len(bits)%2 == 1 {
			next = append(next, bits[len(bits)-1])
		}
		bits = next
	}
	return bits[0]
}

// planMagCircuit emits PLAN over an unsigned magnitude word (width n, the
// magnitude already clamped to MaxRaw so the top bit is clear).
func (a *Impl) planMagCircuit(b *circuit.Builder, mag stdcell.Word) stdcell.Word {
	f := a.Fmt
	n := f.Bits()
	w := len(mag)
	out := stdcell.Const(b, n, f.One().Raw()) // default: saturated
	// Walk segments from the last (largest limit) to the first so the
	// first matching (smallest-limit) segment wins the mux chain.
	for i := len(planSegs) - 1; i >= 0; i-- {
		s := planSegs[i]
		limit := stdcell.Const(b, w, int64(math.Round(s.limit*f.Scale())))
		below := stdcell.GTU(b, limit, mag) // mag < limit
		shifted := stdcell.ShrLogic(b, mag, s.shift)
		val := stdcell.Add(b, shifted[:n].Clone(), stdcell.Const(b, n, f.FromFloatSat(s.intercept).Raw()))
		out = stdcell.Mux(b, below, val, out)
	}
	return out
}

func (a *Impl) sigmoidPLANCircuit(b *circuit.Builder, x stdcell.Word) stdcell.Word {
	f := a.Fmt
	n := f.Bits()
	s := x.Sign()
	magE := stdcell.Abs(b, stdcell.SignExtend(b, x, n+1))
	// x = Min wraps negative in n+1? No: n+1 bits hold |Min|; but the
	// software clamps mag<0 to Max — unreachable here since n+1 bits
	// represent |Min| exactly. Clamp to MaxRaw for bit-exactness:
	mag := clampMag(b, magE, f)
	y := a.planMagCircuit(b, mag)
	one := stdcell.Const(b, n, f.One().Raw())
	return stdcell.Mux(b, s, stdcell.Sub(b, one, y), y)
}

// clampMag clamps an (n+1)-bit unsigned magnitude to MaxRaw of the n-bit
// format, matching the software model's treatment of |Min|.
func clampMag(b *circuit.Builder, mag stdcell.Word, f fixed.Format) stdcell.Word {
	n := f.Bits()
	over := mag[len(mag)-1] // only |Min| = 2^(n-1) sets the top bit
	maxw := stdcell.Const(b, n, f.MaxRaw())
	return stdcell.Mux(b, over, maxw, mag[:n].Clone())
}

func (a *Impl) tanhPLCircuit(b *circuit.Builder, x stdcell.Word) stdcell.Word {
	f := a.Fmt
	n := f.Bits()
	s := x.Sign()
	magE := stdcell.Abs(b, stdcell.SignExtend(b, x, n+1))
	mag := clampMag(b, magE, f)
	// mag2 = min(2*mag, MaxRaw): shift left, saturate if the shifted-out
	// bit or new sign-position bit is set.
	shifted := stdcell.ShlConst(b, stdcell.ZeroExtend(b, mag, n+1), 1)
	over := b.OR(shifted[n], shifted[n-1]) // ≥ 2^(n-1) ⇒ above MaxRaw
	maxw := stdcell.Const(b, n, f.MaxRaw())
	mag2 := stdcell.Mux(b, over, maxw, shifted[:n].Clone())
	y := a.planMagCircuit(b, mag2)
	one := stdcell.Const(b, n, f.One().Raw())
	t := stdcell.Sub(b, stdcell.ShlConst(b, y, 1), one) // 2y - 1
	return stdcell.Mux(b, s, stdcell.Neg(b, t), t)
}

// MaxError sweeps the full input domain and returns the worst and mean
// absolute error of the software model against the float reference — the
// "Error" column of Table 3.
func (a *Impl) MaxError() (worst, mean float64) {
	f := a.Fmt
	n := 0
	for raw := f.MinRaw(); raw <= f.MaxRaw(); raw += 7 {
		x := f.FromRaw(raw)
		got := a.Eval(x).Float()
		want := a.RefFloat(x.Float())
		e := math.Abs(got - want)
		if e > worst {
			worst = e
		}
		mean += e
		n++
	}
	return worst, mean / float64(n)
}

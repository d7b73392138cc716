package benchmarks

import (
	"math"
	"math/rand"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/stdcell"
)

// Component is one row of the paper's Table 3: a circuit component of the
// synthesis library, with the paper's published non-XOR count (which the
// paper charges two ciphertexts each, Eq. 4).
type Component struct {
	Key   string // command-line name (netlist-stats -component)
	Name  string // the row's name in Table 3
	Paper string // the paper's non-XOR count
	// Kind is the activation the row realises; act.Identity on the
	// arithmetic rows.
	Kind act.Kind
	// Gen emits the component over format f, inputs and outputs included.
	Gen func(b *circuit.Builder, f fixed.Format)
	// Model, on the arithmetic rows, returns the raw result of the row's
	// software model (bit for bit the circuit, by stdcell's tests) and of
	// the same operation on real numbers rounded once to the format.
	Model func(x, y fixed.Num) (got, exact int64)
}

// Error is the row's Error column: the worst and mean absolute deviation
// from its reference, as values of the format. An activation's reference is
// the real function, swept over its domain; an arithmetic row's is Model's
// exact result, over a seeded sample of operand pairs. ok is false on the
// rows that have neither.
func (c Component) Error(f fixed.Format) (worst, mean float64, ok bool) {
	if c.Kind != act.Identity {
		worst, mean = realize(c.Kind, f).MaxError()
		return worst, mean, true
	}
	if c.Model == nil {
		return 0, 0, false
	}
	const pairs = 1 << 16
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < pairs; i++ {
		got, exact := c.Model(f.FromRaw(rng.Int63()), f.FromRaw(rng.Int63()))
		d := math.Abs(float64(f.Wrap(got-exact))) / f.Scale()
		worst = math.Max(worst, d)
		mean += d / pairs
	}
	return worst, mean, true
}

// Table3 lists the components in the order the table prints them; the
// commands that count them and the test that pins the counts range over it.
var Table3 = []Component{
	activation("tanh-lut", act.TanhLUT, "149745"),
	activation("tanh-trunc", act.TanhTrunc, "1746 (2.10.12)"),
	activation("tanh-pl", act.TanhPL, "206"),
	activation("tanh-cordic", act.TanhCORDIC, "3900"),
	activation("sigmoid-lut", act.SigmoidLUT, "142523"),
	activation("sigmoid-trunc", act.SigmoidTrunc, "2107 (3.10.12)"),
	activation("sigmoid-plan", act.SigmoidPLAN, "73"),
	activation("sigmoid-cordic", act.SigmoidCORDIC, "3932"),
	binary("add", "ADD", "16", false, func(b *circuit.Builder, x, y stdcell.Word, _ fixed.Format) stdcell.Word {
		return stdcell.Add(b, x, y)
	}, func(x, y fixed.Num) (int64, int64) { return x.Add(y).Raw(), x.Raw() + y.Raw() }),
	binary("mult", "MULT", "212", true, func(b *circuit.Builder, x, y stdcell.Word, f fixed.Format) stdcell.Word {
		return stdcell.MulFixed(b, x, y, f.FracBits)
	}, func(x, y fixed.Num) (int64, int64) { // exact: the floor of the real product
		return x.Mul(y).Raw(), x.Raw() * y.Raw() >> uint(x.Format().FracBits)
	}),
	binary("div", "DIV", "361", false, func(b *circuit.Builder, x, y stdcell.Word, f fixed.Format) stdcell.Word {
		return stdcell.DivFixed(b, x, y, f.FracBits, f.Bits()+f.FracBits)
	}, func(x, y fixed.Num) (int64, int64) { // exact: the real quotient toward zero
		if y.Raw() == 0 {
			return 0, 0 // no real quotient; the saturation is stdcell's to test
		}
		return x.Div(y).Raw(), x.Raw() << uint(x.Format().FracBits) / y.Raw()
	}),
	{Key: "relu", Name: "ReLu", Paper: "15", Gen: func(b *circuit.Builder, f fixed.Format) {
		b.Outputs(stdcell.ReLU(b, stdcell.Input(b, circuit.Garbler, f.Bits()))...)
	}, Model: func(x, _ fixed.Num) (int64, int64) { return x.ReLU().Raw(), max(x.Raw(), 0) }},
	{Key: "softmax", Name: "Softmax(n=10)", Paper: "(n-1)*32 = 288", Gen: func(b *circuit.Builder, f fixed.Format) {
		b.Outputs(stdcell.ArgMax(b, inputs(b, circuit.Garbler, 10, f.Bits()))...)
	}},
	{Key: "mvm", Name: "MVM 1x8 * 8x4", Paper: "228mn-16n = 7232", Gen: func(b *circuit.Builder, f fixed.Format) {
		x := inputs(b, circuit.Garbler, 8, f.Bits())
		w := inputs(b, circuit.Evaluator, 32, fixed.BoothBits(f.Bits()))
		for _, o := range stdcell.MatVec(b, w, x, 4, 8, f.FracBits) {
			b.Outputs(o...)
		}
	}},
}

func activation(key string, kind act.Kind, paper string) Component {
	return Component{Key: key, Name: kind.String(), Paper: paper, Kind: kind,
		Gen: func(b *circuit.Builder, f fixed.Format) {
			x := stdcell.Input(b, circuit.Garbler, f.Bits())
			b.Outputs(realize(kind, f).Circuit(b, x)...)
		}}
}

// realize is act.New at a format the catalogue's caller chose itself, so
// one the kind cannot run at is that caller's bug.
func realize(kind act.Kind, f fixed.Format) *act.Impl {
	impl, err := act.New(kind, f)
	if err != nil {
		panic(err.Error())
	}
	return impl
}

// binary is a two-operand arithmetic row. On MULT the second operand is a
// weight, as in every MAC of a model: the evaluator's Booth digits (so its
// partial products are half ANDs); the others see two computed words.
func binary(key, name, paper string, weight bool, op func(b *circuit.Builder, x, y stdcell.Word, f fixed.Format) stdcell.Word, model func(x, y fixed.Num) (got, exact int64)) Component {
	return Component{Key: key, Name: name, Paper: paper, Model: model, Gen: func(b *circuit.Builder, f fixed.Format) {
		owner, width := circuit.Garbler, f.Bits()
		if weight {
			owner, width = circuit.Evaluator, fixed.BoothBits(width)
		}
		x := stdcell.Input(b, circuit.Garbler, f.Bits())
		b.Outputs(op(b, x, stdcell.Input(b, owner, width), f)...)
	}}
}

// inputs declares n input words of party's, each width bits wide.
func inputs(b *circuit.Builder, party circuit.Party, n, width int) []stdcell.Word {
	ws := make([]stdcell.Word, n)
	for i := range ws {
		ws[i] = stdcell.Input(b, party, width)
	}
	return ws
}

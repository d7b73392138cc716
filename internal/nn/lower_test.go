package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deepsecure/internal/fixed"
)

// The oracles below are the loop nests Dense, Conv2D, MaxPool2D and
// MeanPool2D carried themselves before their geometry moved into Rows and
// Windows (PR 21), kept verbatim apart from taking the layer as an
// argument. The property test holds the lowering to them: same visits in
// the same order, and bit-identical Forward / ForwardFixed / Backward.

// visit is one (output, bias, input, weight) meeting; in = w = -1 opens an
// output element.
type visit struct{ out, bias, in, w int }

func oracleDenseVisits(d *Dense) []visit {
	var vs []visit
	for o := 0; o < d.OutN; o++ {
		vs = append(vs, visit{o, o, -1, -1})
		for i := 0; i < d.InN; i++ {
			if !d.Mask[o*d.InN+i] {
				continue
			}
			vs = append(vs, visit{o, o, i, o*d.InN + i})
		}
	}
	return vs
}

func oracleDenseForward(d *Dense, x []float64) []float64 {
	out := make([]float64, d.OutN)
	for o := 0; o < d.OutN; o++ {
		acc := d.B[o]
		row := d.W[o*d.InN : (o+1)*d.InN]
		msk := d.Mask[o*d.InN : (o+1)*d.InN]
		for i, w := range row {
			if msk[i] {
				acc += w * x[i]
			}
		}
		out[o] = acc
	}
	return out
}

func oracleDenseForwardFixed(d *Dense, f fixed.Format, x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, d.OutN)
	for o := 0; o < d.OutN; o++ {
		acc := f.FromFloatSat(d.B[o])
		for i := 0; i < d.InN; i++ {
			if !d.Mask[o*d.InN+i] {
				continue
			}
			w := f.FromFloatSat(d.W[o*d.InN+i])
			acc = acc.Add(x[i].Mul(w))
		}
		out[o] = acc
	}
	return out
}

func oracleDenseBackward(d *Dense, lastIn, grad []float64) (din, gradW, gradB []float64) {
	gradW = make([]float64, len(d.W))
	gradB = make([]float64, len(d.B))
	in := make([]float64, d.InN)
	for o := 0; o < d.OutN; o++ {
		g := grad[o]
		gradB[o] += g
		base := o * d.InN
		for i := 0; i < d.InN; i++ {
			if !d.Mask[base+i] {
				continue
			}
			gradW[base+i] += g * lastIn[i]
			in[i] += g * d.W[base+i]
		}
	}
	return in, gradW, gradB
}

func oracleConvIdx(c *Conv2D) (wIdx func(oc, ic, ky, kx int) int, inIdx, outIdx func(ch, y, x int) int) {
	wIdx = func(oc, ic, ky, kx int) int { return ((oc*c.in.C+ic)*c.K+ky)*c.K + kx }
	inIdx = func(ic, y, x int) int { return (ic*c.in.H+y)*c.in.W + x }
	outIdx = func(oc, y, x int) int { return (oc*c.out.H+y)*c.out.W + x }
	return
}

func oracleConvVisits(c *Conv2D) []visit {
	wIdx, inIdx, outIdx := oracleConvIdx(c)
	var vs []visit
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < c.out.H; oy++ {
			for ox := 0; ox < c.out.W; ox++ {
				vs = append(vs, visit{outIdx(oc, oy, ox), oc, -1, -1})
				for ic := 0; ic < c.in.C; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= c.in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= c.in.W {
								continue
							}
							wi := wIdx(oc, ic, ky, kx)
							if !c.Mask[wi] {
								continue
							}
							vs = append(vs, visit{outIdx(oc, oy, ox), oc, inIdx(ic, iy, ix), wi})
						}
					}
				}
			}
		}
	}
	return vs
}

func oracleConvForward(c *Conv2D, x []float64) []float64 {
	wIdx, inIdx, outIdx := oracleConvIdx(c)
	out := make([]float64, c.out.Len())
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < c.out.H; oy++ {
			for ox := 0; ox < c.out.W; ox++ {
				acc := c.B[oc]
				for ic := 0; ic < c.in.C; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= c.in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= c.in.W {
								continue
							}
							wi := wIdx(oc, ic, ky, kx)
							if c.Mask[wi] {
								acc += c.W[wi] * x[inIdx(ic, iy, ix)]
							}
						}
					}
				}
				out[outIdx(oc, oy, ox)] = acc
			}
		}
	}
	return out
}

func oracleConvForwardFixed(c *Conv2D, f fixed.Format, x []fixed.Num) []fixed.Num {
	wIdx, inIdx, outIdx := oracleConvIdx(c)
	out := make([]fixed.Num, c.out.Len())
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < c.out.H; oy++ {
			for ox := 0; ox < c.out.W; ox++ {
				acc := f.FromFloatSat(c.B[oc])
				for ic := 0; ic < c.in.C; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= c.in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= c.in.W {
								continue
							}
							wi := wIdx(oc, ic, ky, kx)
							if !c.Mask[wi] {
								continue
							}
							w := f.FromFloatSat(c.W[wi])
							acc = acc.Add(x[inIdx(ic, iy, ix)].Mul(w))
						}
					}
				}
				out[outIdx(oc, oy, ox)] = acc
			}
		}
	}
	return out
}

func oracleConvBackward(c *Conv2D, lastIn, grad []float64) (din, gradW, gradB []float64) {
	wIdx, inIdx, outIdx := oracleConvIdx(c)
	gradW = make([]float64, len(c.W))
	gradB = make([]float64, len(c.B))
	din = make([]float64, c.in.Len())
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < c.out.H; oy++ {
			for ox := 0; ox < c.out.W; ox++ {
				g := grad[outIdx(oc, oy, ox)]
				gradB[oc] += g
				for ic := 0; ic < c.in.C; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= c.in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= c.in.W {
								continue
							}
							wi := wIdx(oc, ic, ky, kx)
							if !c.Mask[wi] {
								continue
							}
							ii := inIdx(ic, iy, ix)
							gradW[wi] += g * lastIn[ii]
							din[ii] += g * c.W[wi]
						}
					}
				}
			}
		}
	}
	return din, gradW, gradB
}

// oracleWindow is the window() both pooling layers had; stride is K for
// the mean pool.
func oracleWindow(in Shape, k, stride, c, oy, ox int) []int {
	idx := make([]int, 0, k*k)
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			iy := oy*stride + ky
			ix := ox*stride + kx
			idx = append(idx, (c*in.H+iy)*in.W+ix)
		}
	}
	return idx
}

// oraclePool runs the output walk both pooling layers' passes shared.
func oraclePool(in, out Shape, k, stride int, each func(o int, idx []int)) {
	o := 0
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				each(o, oracleWindow(in, k, stride, c, oy, ox))
				o++
			}
		}
	}
}

func oracleMaxForward(p *MaxPool2D, x []float64) (out []float64, arg []int) {
	out = make([]float64, p.out.Len())
	oraclePool(p.in, p.out, p.K, p.Stride, func(o int, idx []int) {
		bestI := -1
		best := math.Inf(-1)
		for _, i := range idx {
			if x[i] > best {
				best, bestI = x[i], i
			}
		}
		out[o] = best
		arg = append(arg, bestI)
	})
	return out, arg
}

func oracleMaxForwardFixed(p *MaxPool2D, x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, p.out.Len())
	oraclePool(p.in, p.out, p.K, p.Stride, func(o int, idx []int) {
		best := x[idx[0]]
		for _, i := range idx[1:] {
			if x[i].Cmp(best) > 0 {
				best = x[i]
			}
		}
		out[o] = best
	})
	return out
}

func oracleMeanForward(p *MeanPool2D, x []float64) []float64 {
	out := make([]float64, p.out.Len())
	inv := 1.0 / float64(p.K*p.K)
	oraclePool(p.in, p.out, p.K, p.K, func(o int, idx []int) {
		sum := 0.0
		for _, i := range idx {
			sum += x[i]
		}
		out[o] = sum * inv
	})
	return out
}

func oracleMeanForwardFixed(p *MeanPool2D, f fixed.Format, x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, p.out.Len())
	log := 0
	for 1<<uint(log) < p.K*p.K {
		log++
	}
	oraclePool(p.in, p.out, p.K, p.K, func(o int, idx []int) {
		var sum int64
		for _, i := range idx {
			sum += x[i].Raw()
		}
		out[o] = f.FromRaw(sum >> uint(log))
	})
	return out
}

func oracleMeanBackward(p *MeanPool2D, grad []float64) []float64 {
	din := make([]float64, p.in.Len())
	inv := 1.0 / float64(p.K*p.K)
	oraclePool(p.in, p.out, p.K, p.K, func(o int, idx []int) {
		for _, i := range idx {
			din[i] += grad[o] * inv
		}
	})
	return din
}

func rowVisits(l Linear) []visit {
	var vs []visit
	l.Rows(func(out, bias int, taps []Tap) {
		vs = append(vs, visit{out, bias, -1, -1})
		for _, t := range taps {
			vs = append(vs, visit{out, bias, t.In, t.W})
		}
	})
	return vs
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*4 - 2
	}
	return x
}

// randomize fills weights and biases and prunes at random; row 0 of the
// layer (dense row / conv map) loses every weight.
func randomize(rng *rand.Rand, p ParamLayer) {
	w, mask := p.Weights()
	b := p.Biases()
	per := len(w) / len(b)
	for i := range w {
		w[i] = rng.NormFloat64()
		mask[i] = rng.Intn(3) != 0 && i/per != 0
		if !mask[i] {
			w[i] = 0
		}
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
}

func equalFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

func equalFixed(t *testing.T, what string, got, want []fixed.Num) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Raw() != want[i].Raw() {
			t.Fatalf("%s[%d] = %d, oracle %d", what, i, got[i].Raw(), want[i].Raw())
		}
	}
}

func TestLoweringMatchesLoopNests(t *testing.T) {
	f := fixed.Default
	rng := rand.New(rand.NewSource(2121))

	for trial := 0; trial < 40; trial++ {
		// Dense.
		d := NewDense(1 + rng.Intn(6))
		if _, err := d.Bind(Vec(1 + rng.Intn(9))); err != nil {
			t.Fatal(err)
		}
		randomize(rng, d)
		if got, want := rowVisits(d), oracleDenseVisits(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("dense %dx%d: Rows visits\n%v\noracle\n%v", d.OutN, d.InN, got, want)
		}
		x := randVec(rng, d.InN)
		equalFloats(t, "dense Forward", d.Forward(x), oracleDenseForward(d, x))
		equalFixed(t, "dense ForwardFixed", d.ForwardFixed(f, f.Vec(x)), oracleDenseForwardFixed(d, f, f.Vec(x)))
		grad := randVec(rng, d.OutN)
		d.ForwardT(x)
		din, gw, gb := oracleDenseBackward(d, x, grad)
		equalFloats(t, "dense Backward", d.Backward(grad), din)
		equalFloats(t, "dense gradW", d.gradW, gw)
		equalFloats(t, "dense gradB", d.gradB, gb)

		// Conv2D over strides, pads and kernels, including windows that
		// fall wholly on padding or on pruned taps.
		k := 1 + rng.Intn(3)
		c := NewConv2D(1+rng.Intn(3), k, 1+rng.Intn(3), rng.Intn(k+1))
		in := Shape{C: 1 + rng.Intn(3), H: k + rng.Intn(5), W: k + rng.Intn(5)}
		if _, err := c.Bind(in); err != nil {
			t.Fatal(err)
		}
		randomize(rng, c)
		if got, want := rowVisits(c), oracleConvVisits(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("conv %+v on %v: Rows visits\n%v\noracle\n%v", c, in, got, want)
		}
		x = randVec(rng, in.Len())
		equalFloats(t, "conv Forward", c.Forward(x), oracleConvForward(c, x))
		equalFixed(t, "conv ForwardFixed", c.ForwardFixed(f, f.Vec(x)), oracleConvForwardFixed(c, f, f.Vec(x)))
		grad = randVec(rng, c.out.Len())
		c.ForwardT(x)
		din, gw, gb = oracleConvBackward(c, x, grad)
		equalFloats(t, "conv Backward", c.Backward(grad), din)
		equalFloats(t, "conv gradW", c.gradW, gw)
		equalFloats(t, "conv gradB", c.gradB, gb)

		// Pools.
		pk := 1 + rng.Intn(3)
		mp := NewMaxPool2D(pk, rng.Intn(3))
		pin := Shape{C: 1 + rng.Intn(3), H: pk + rng.Intn(6), W: pk + rng.Intn(6)}
		if _, err := mp.Bind(pin); err != nil {
			t.Fatal(err)
		}
		checkWindows(t, mp, pin, mp.out, mp.K, mp.Stride)
		x = randVec(rng, pin.Len())
		wantOut, wantArg := oracleMaxForward(mp, x)
		equalFloats(t, "maxpool Forward", mp.Forward(x), wantOut)
		equalFloats(t, "maxpool ForwardT", mp.ForwardT(x), wantOut)
		if !reflect.DeepEqual(mp.lastArg, wantArg) {
			t.Fatalf("maxpool argmax %v, oracle %v", mp.lastArg, wantArg)
		}
		equalFixed(t, "maxpool ForwardFixed", mp.ForwardFixed(f, f.Vec(x)), oracleMaxForwardFixed(mp, f.Vec(x)))

		ap := NewMeanPool2D(1 << uint(rng.Intn(3)))
		ain := Shape{C: 1 + rng.Intn(3), H: ap.K + rng.Intn(6), W: ap.K + rng.Intn(6)}
		if _, err := ap.Bind(ain); err != nil {
			t.Fatal(err)
		}
		checkWindows(t, ap, ain, ap.out, ap.K, ap.K)
		x = randVec(rng, ain.Len())
		equalFloats(t, "meanpool Forward", ap.Forward(x), oracleMeanForward(ap, x))
		equalFixed(t, "meanpool ForwardFixed", ap.ForwardFixed(f, f.Vec(x)), oracleMeanForwardFixed(ap, f, f.Vec(x)))
		grad = randVec(rng, ap.out.Len())
		equalFloats(t, "meanpool Backward", ap.Backward(grad), oracleMeanBackward(ap, grad))
	}
}

func checkWindows(t *testing.T, p Windowed, in, out Shape, k, stride int) {
	t.Helper()
	type win struct {
		out int
		in  []int
	}
	var got, want []win
	p.Windows(func(o int, idx []int) { got = append(got, win{o, append([]int(nil), idx...)}) })
	oraclePool(in, out, k, stride, func(o int, idx []int) { want = append(want, win{o, idx}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %v: Windows\n%v\noracle\n%v", p.Name(), in, got, want)
	}
}

// TestRowsAllocateOneBuffer holds Rows and Windows to their contract:
// nothing is allocated per row, whatever the layer's size — raw B4's
// 11.25 M taps are walked, never materialised.
func TestRowsAllocateOneBuffer(t *testing.T) {
	d := NewDense(64)
	c := NewConv2D(4, 3, 1, 1)
	mp := NewMaxPool2D(2, 2)
	if _, err := d.Bind(Vec(128)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind(Shape{C: 2, H: 16, W: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Bind(Shape{C: 2, H: 16, W: 16}); err != nil {
		t.Fatal(err)
	}
	taps := 0
	count := func(_, _ int, ts []Tap) { taps += len(ts) }
	for name, run := range map[string]func(){
		"dense":   func() { d.Rows(count) },
		"conv":    func() { c.Rows(count) },
		"maxpool": func() { mp.Windows(func(_ int, in []int) { taps += len(in) }) },
	} {
		if n := testing.AllocsPerRun(5, run); n > 2 {
			t.Errorf("%s: %v allocations per walk, want the one buffer", name, n)
		}
	}
	if taps == 0 {
		t.Fatal("no taps visited")
	}
}

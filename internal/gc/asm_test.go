package gc

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"deepsecure/internal/circuit"
)

// asmCase is one level for the assembly ≡ Go pin: nFull full ANDs, nHalf
// half ANDs and nFree free gates (three in four of them INVs when invDense,
// one in eight when not) over asmInputs input wires, at batch size b, on a
// fresh garbler (a delta per sample) or a session's (one delta), numbering
// samples from first and ANDs from gidBase, run as spans pieces the way
// Pool.run cuts a level.
type asmCase struct {
	seed                   int64
	b, nFull, nHalf, nFree int
	spans                  int
	invDense, session      bool
	first, gidBase         uint64
}

const asmInputs = 9

// level draws the case's gates: full ANDs, then half ANDs, then the free
// gates, each with its own output wire.
func (c asmCase) level(rng *rand.Rand) (ands, frees []circuit.Gate, wires uint32) {
	in := func() uint32 { return 2 + uint32(rng.Intn(asmInputs)) }
	next := uint32(2 + asmInputs)
	gate := func(op circuit.Op) circuit.Gate {
		next++
		return circuit.Gate{Op: op, A: in(), B: in(), Out: next - 1}
	}
	for range c.nFull {
		ands = append(ands, gate(circuit.AND))
	}
	for range c.nHalf {
		ands = append(ands, gate(circuit.HalfAND))
	}
	for range c.nFree {
		op := circuit.XOR
		if c.invDense && rng.Intn(4) > 0 || !c.invDense && rng.Intn(8) == 0 {
			op = circuit.INV
		}
		frees = append(frees, gate(op))
	}
	return ands, frees, next
}

// run garbles and evaluates the case's level once on each kernel, from
// identical states, and fails on the first label or table byte that
// differs.
func (c asmCase) run(t testing.TB) {
	t.Helper()
	ands, frees, wires := c.level(rand.New(rand.NewSource(c.seed)))
	tableBytes := packedBytes(ands, c.b)
	bits := rand.New(rand.NewSource(c.seed + 2))
	active := make([]bool, asmInputs*c.b)
	for i := range active {
		active[i] = bits.Intn(2) == 1
	}
	// spanned runs the level as Pool.run's spans, on k's assembly kernel or
	// its Go one.
	spanned := func(st *labelStore, table []byte, k spanner, asm bool) {
		if err := st.prepare(ands, frees, c.gidBase, table); err != nil {
			t.Fatal(err)
		}
		run := k.spanGo
		if asm {
			run = k.spanAsm
		}
		for i := range c.spans {
			run(&st.lv, i*len(ands)/c.spans, (i+1)*len(ands)/c.spans, i*len(frees)/c.spans, (i+1)*len(frees)/c.spans)
		}
	}
	type result struct {
		table          []byte
		garbler, evals []Label
	}
	kernel := func(asm bool) result {
		rng := rand.New(rand.NewSource(c.seed + 1))
		var g *BatchGarbler
		var err error
		if c.session {
			var delta Label
			if delta, err = RandomDelta(rng); err == nil {
				g, err = NewSessionGarbler(rng, delta, c.b)
			}
		} else {
			g, err = NewBatchGarbler(rng, c.b)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer g.Release()
		g.SetFirst(c.first)
		g.Grow(wires)
		ins := make([]uint32, asmInputs)
		for i := range ins {
			ins[i] = uint32(2 + i)
		}
		if err := g.AssignInputs(ins, false); err != nil {
			t.Fatal(err)
		}
		e, err := NewBatchEvaluator(c.b)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Release()
		e.SetFirst(c.first)
		e.Grow(wires)
		for i, w := range ins {
			for s := range c.b {
				l, err := g.ActiveLabel(w, s, active[i*c.b+s])
				if err != nil {
					t.Fatal(err)
				}
				e.SetLabel(w, s, l)
			}
		}
		r := result{table: make([]byte, tableBytes)}
		spanned(&g.labelStore, r.table, g, asm)
		spanned(&e.labelStore, r.table, e, asm)
		r.garbler, r.evals = g.snapshot(), e.snapshot()
		return r
	}
	want, got := kernel(false), kernel(true)
	if !bytes.Equal(got.table, want.table) {
		t.Fatalf("%+v: the assembly kernel's table differs from the Go kernel's", c)
	}
	if !labelsEqual(got.garbler, want.garbler) {
		t.Fatalf("%+v: the assembly kernel's garbler labels differ from the Go kernel's", c)
	}
	if !labelsEqual(got.evals, want.evals) {
		t.Fatalf("%+v: the assembly kernel's evaluator labels differ from the Go kernel's", c)
	}
}

// TestAsmKernelMatchesGo pins the assembly level kernel to the Go kernel,
// which the textbook oracle pins in turn: identical tables, garbler
// zero-labels and evaluator labels at B ∈ {1, 2, 3, 5, 16}, over levels of
// full ANDs only, half ANDs only and both, with 0–17 gates of a kind so
// that every partial wave of every routine occurs, and free spans dense in
// INVs; on fresh and session garblers, with a nonzero first ordinal and a
// gidBase near 2⁶², run whole and as two or three spans.
func TestAsmKernelMatchesGo(t *testing.T) {
	if !hasKernel {
		t.Skip("no assembly level kernel in this build")
	}
	var g circuit.Gate
	if unsafe.Sizeof(g) != 16 || unsafe.Offsetof(g.A) != 4 || unsafe.Offsetof(g.B) != 8 ||
		unsafe.Offsetof(g.Out) != 12 || circuit.INV != 2 {
		t.Fatal("circuit.Gate's layout or circuit.INV moved: kernel_amd64.s reads them")
	}
	seed := int64(0)
	for _, b := range []int{1, 2, 3, 5, 16} {
		for n := range 18 {
			base := asmCase{b: b, spans: 1 + n%3, session: n%2 == 1}
			if n%3 == 1 {
				base.first, base.gidBase = 1<<40+12345, 1<<62-7
			}
			for _, shape := range []struct {
				nFull, nHalf, nFree int
				invDense            bool
			}{
				{n, 0, 0, false},
				{0, n, 0, false},
				{n, (5*n + 3) % 18, n, false},
				{0, 0, 2*n + 1, true},
			} {
				seed++
				c := base
				c.seed, c.nFull, c.nHalf, c.nFree, c.invDense = seed, shape.nFull, shape.nHalf, shape.nFree, shape.invDense
				c.run(t)
			}
		}
	}
}

// FuzzAsmKernel runs TestAsmKernelMatchesGo's comparison on levels the
// fuzzer shapes: batch sizes 1–16, up to 39 gates of each kind, 1–3 spans.
func FuzzAsmKernel(f *testing.F) {
	if !hasKernel {
		f.Skip("no assembly level kernel in this build")
	}
	f.Add(int64(1), uint8(0), uint8(5), uint8(3), uint8(7), uint8(0), false, false, uint64(0), uint64(40))
	f.Add(int64(2), uint8(15), uint8(17), uint8(9), uint8(30), uint8(2), true, true, uint64(1)<<40, uint64(1)<<62-3)
	f.Fuzz(func(t *testing.T, seed int64, b, nFull, nHalf, nFree, spans uint8, invDense, session bool, first, gidBase uint64) {
		asmCase{
			seed: seed, b: 1 + int(b%16), nFull: int(nFull % 40), nHalf: int(nHalf % 40), nFree: int(nFree % 40),
			spans: 1 + int(spans%3), invDense: invDense, session: session, first: first, gidBase: gidBase,
		}.run(t)
	})
}

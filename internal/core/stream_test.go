package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/transport"
)

// events is a hand-made event stream: inputs 2..9 (the evaluator's from 6
// on), then ev.
func events(ev func(s circuit.Sink) error) func(circuit.Sink) error {
	return func(s circuit.Sink) error {
		if err := s.OnInputs(circuit.Garbler, []uint32{2, 3, 4, 5}); err != nil {
			return err
		}
		if err := s.OnInputs(circuit.Evaluator, []uint32{6, 7, 8, 9}); err != nil {
			return err
		}
		return ev(s)
	}
}

// gates feeds gs to s in order; a Gate with Op 255 is a drop of its Out.
func gates(gs ...circuit.Gate) func(s circuit.Sink) error {
	return func(s circuit.Sink) error {
		for _, g := range gs {
			var err error
			if g.Op == 255 {
				err = s.OnDrop(g.Out)
			} else {
				err = s.OnGate(g)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func drop(w uint32) circuit.Gate { return circuit.Gate{Op: 255, Out: w} }

// TestStreamLevelsCutAtHazards runs a stream's hazards through the
// leveller: a gate that reads a wire a level writes lands a level later, a
// declaration ends the level run, and a level holds at most 1 024 gates. A
// recycled id the level reads or writes costs no level: renaming gives the
// new value its own wire id. The ANDs are numbered across levels.
func TestStreamLevelsCutAtHazards(t *testing.T) {
	x := func(a, b, out uint32) circuit.Gate { return circuit.Gate{Op: circuit.XOR, A: a, B: b, Out: out} }
	and := func(a, b, out uint32) circuit.Gate { return circuit.Gate{Op: circuit.AND, A: a, B: b, Out: out} }
	half := func(a, b, out uint32) circuit.Gate { return circuit.Gate{Op: circuit.HalfAND, A: a, B: b, Out: out} }
	wide := make([]circuit.Gate, 1<<10+1)
	for i := range wide {
		wide[i] = x(2, 3, 10+uint32(i))
	}
	for _, tc := range []struct {
		name  string
		ev    func(circuit.Sink) error
		sizes []int // gates per level, in order
	}{
		{"independent gates share a level", gates(half(2, 6, 10), x(3, 4, 11), and(4, 5, 12)), []int{3}},
		{"a read of the level's output", gates(x(2, 3, 10), and(10, 4, 11)), []int{1, 1}},
		{"a read of the level's output as B", gates(x(2, 3, 10), x(4, 10, 11)), []int{1, 1}},
		{"a half AND on the level's output", gates(and(2, 3, 10), half(10, 6, 11)), []int{1, 1}},
		{"a recycled id the level reads", gates(x(2, 3, 10), drop(2), and(4, 5, 2)), []int{2}},
		{"a recycled id the level writes", gates(x(2, 3, 10), drop(10), x(4, 5, 10)), []int{2}},
		{"a drop alone", gates(x(2, 3, 10), drop(3), x(4, 5, 11)), []int{2}},
		{"the size cap", gates(wide...), []int{1 << 10, 1}},
		{"a declaration", func(s circuit.Sink) error {
			if err := gates(x(2, 3, 10))(s); err != nil {
				return err
			}
			if err := s.OnOutputs([]uint32{10}); err != nil {
				return err
			}
			return gates(x(4, 5, 11))(s)
		}, []int{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sizes []int
			var gid uint64
			err := runStream(events(tc.ev), func(uint32) {}, func(s *circuit.Schedule) error {
				for i := range s.Levels {
					lv := &s.Levels[i]
					if lv.GIDBase != gid {
						t.Fatalf("level %d numbers its ANDs from %d, want %d", len(sizes), lv.GIDBase, gid)
					}
					gid += uint64(lv.ANDs)
					sizes = append(sizes, lv.ANDs+lv.Frees)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sizes) != fmt.Sprint(tc.sizes) {
				t.Fatalf("levels of %v gates, want %v", sizes, tc.sizes)
			}
		})
	}
}

// streamPair runs emit's stream, levelled in fragments of window gates,
// through a garbling and an evaluating engine over a pipe — the weight
// labels handed over as the set-up OT would — and returns the decoded
// outputs and each side's error. A label that is neither of its wire's two
// fails the decode.
func streamPair(t *testing.T, window int, emit func(circuit.Sink) error, gBits, eBits []bool) (out []bool, gErr, eErr error) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(gBits)*131 + len(eBits))))
	delta, zero, _, err := weightLabels(rng, len(eBits))
	if err != nil {
		t.Fatal(err)
	}
	chosen := append([]gc.Label(nil), zero...)
	for i, bit := range eBits {
		if bit {
			chosen[i] = chosen[i].XOR(delta)
		}
	}
	g, err := gc.NewSessionGarbler(rng, delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := gc.NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []uint32{circuit.WFalse, circuit.WTrue} {
		l, _ := g.ActiveLabel(w, 0, w == circuit.WTrue)
		e.SetLabel(w, 0, l)
	}
	gConn, eConn, closer := transport.Pipe()
	defer closer.Close()
	ge := &garbleEngine{g: g, pool: gc.NewPool(2), conn: gConn, weights: zero, inputBits: [][]bool{gBits}}
	ee := &evalEngine{e: e, pool: gc.NewPool(2), conn: eConn, weights: chosen, recycle: eConn.Recycle}
	done := make(chan error, 1)
	go func() {
		err := circuit.Stream(window, emit, func(s *circuit.Schedule) error {
			ge.sched = s
			return ge.run()
		})
		if ferr := gConn.Flush(); err == nil {
			err = ferr
		}
		done <- err
	}()
	eErr = circuit.Stream(window, emit, func(s *circuit.Schedule) error {
		ee.sched = s
		return ee.run()
	})
	closer.Close()
	gErr = <-done
	if gErr != nil || eErr != nil {
		return nil, gErr, eErr
	}
	if len(ee.outLabels) != len(ge.outZero) {
		t.Fatalf("%d output labels, %d zero-labels", len(ee.outLabels), len(ge.outZero))
	}
	for i, z := range ge.outZero {
		switch ee.outLabels[i] {
		case z:
			out = append(out, false)
		case z.XOR(delta):
			out = append(out, true)
		default:
			t.Fatalf("output %d: the evaluator's label is neither of the wire's two", i)
		}
	}
	return out, nil, nil
}

// randomStream draws a gate stream over a recycling-agnostic generator:
// operands and drops are picked by position among the live handles, so the
// same rng draws build the same circuit with and without recycling. It
// opens with a gate that reads wire g0, a drop of g0 and an AND that a
// recycling builder writes to g0's id: a rewrite of an id a level before it
// reads, which renaming separates. Inputs are declared mid-stream too.
func randomStream(rng *rand.Rand, b *circuit.Builder) (nG, nE int) {
	gIn, eIn := b.Inputs(circuit.Garbler, 3), b.Inputs(circuit.Evaluator, 3)
	nG, nE = 3, 3
	t := b.XOR(gIn[0], gIn[1])
	b.Drop(gIn[0])
	live := []uint32{t, b.AND(gIn[2], eIn[0]), gIn[1], gIn[2], eIn[0], eIn[1], eIn[2]}
	for i := 0; i < 80; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			live = append(live, b.Inputs(circuit.Garbler, 2)...)
			nG += 2
		case r == 1:
			live = append(live, b.Inputs(circuit.Evaluator, 2)...)
			nE += 2
		case r < 7 && len(live) > 4:
			k := rng.Intn(len(live))
			b.Drop(live[k])
			live = append(live[:k], live[k+1:]...)
		default:
			x, y := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			var w uint32
			switch rng.Intn(4) {
			case 0:
				w = b.XOR(x, y)
			case 1:
				w = b.AND(x, y)
			case 2:
				w = b.INV(x)
			default:
				w = b.OR(x, y)
			}
			// A folded gate returns a constant or a wire already held:
			// a second handle would let one drop kill the other's wire.
			fresh := w != circuit.WFalse && w != circuit.WTrue
			for _, v := range live {
				fresh = fresh && v != w
			}
			if fresh {
				live = append(live, w)
			}
		}
	}
	b.Outputs(live[max(0, len(live)-6):]...)
	return nG, nE
}

// TestStreamEnginesMatchPlaintext feeds random recycled gate streams
// through the two engines over a pipe, levelled in windows of 1, 7 and 1 024
// gates and in one fragment, and checks that every decode equals the
// circuit's plaintext evaluation.
func TestStreamEnginesMatchPlaintext(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		var nG, nE int
		c, err := circuit.Build(func(b *circuit.Builder) { nG, nE = randomStream(rand.New(rand.NewSource(seed)), b) })
		if err != nil {
			t.Fatal(err)
		}
		tape := circuit.NewTape()
		b := circuit.NewBuilder(tape, circuit.WithRecycling())
		randomStream(rand.New(rand.NewSource(seed)), b)
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		gBits, eBits := make([]bool, nG), make([]bool, nE)
		for i := range gBits {
			gBits[i] = rng.Intn(2) == 1
		}
		for i := range eBits {
			eBits[i] = rng.Intn(2) == 1
		}
		want, err := c.Eval(gBits, eBits)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 7, 1024, 0} {
			got, gErr, eErr := streamPair(t, window, tape.Replay, gBits, eBits)
			if gErr != nil || eErr != nil {
				t.Fatalf("seed %d, window %d: garbler %v, evaluator %v", seed, window, gErr, eErr)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d, window %d: decoded %v, plaintext %v", seed, window, got, want)
			}
		}
	}
}

// TestStreamRefusesBadGates: the scheduler holds every gate of a stream to
// the liveness rule as it arrives. A gate that reads a never-set or a
// dropped wire, or writes a live one, is refused by both engines before any
// level of its fragment runs, with one message on both sides; the same
// stream without it runs.
func TestStreamRefusesBadGates(t *testing.T) {
	good := circuit.Gate{Op: circuit.AND, A: 2, B: 4, Out: 20}
	for _, tc := range []struct {
		name string
		gate circuit.Gate
		want string
	}{
		{"AND reads a dead wire", circuit.Gate{Op: circuit.AND, A: 2, B: 60, Out: 21}, "AND gate reads dead wire 60"},
		{"half AND reads a dropped wire", circuit.Gate{Op: circuit.HalfAND, A: 4, B: 3, Out: 21}, "HAND gate reads dead wire 3"},
		{"XOR reads a dropped wire", circuit.Gate{Op: circuit.XOR, A: 3, B: 2, Out: 21}, "XOR gate reads dead wire 3"},
		{"INV reads a dead wire", circuit.Gate{Op: circuit.INV, A: 61, Out: 21}, "INV gate reads dead wire 61"},
		{"AND writes a live wire", circuit.Gate{Op: circuit.AND, A: 2, B: 4, Out: 5}, "AND gate writes live wire 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emit := func(bad bool) func(circuit.Sink) error {
				return events(func(s circuit.Sink) error {
					gs := []circuit.Gate{good, drop(3)}
					if bad {
						gs = append(gs, tc.gate)
					}
					if err := gates(gs...)(s); err != nil {
						return err
					}
					return s.OnOutputs([]uint32{20})
				})
			}
			levels := 0
			err := runStream(emit(true), func(uint32) {}, func(s *circuit.Schedule) error {
				levels += len(s.Levels)
				return nil
			})
			if err == nil || levels != 0 {
				t.Fatalf("refusal %v after %d levels ran; want a refusal before any", err, levels)
			}
			bits := []bool{true, false, true, true}
			_, gErr, eErr := streamPair(t, streamWindow, emit(true), bits, bits)
			for side, err := range map[string]error{"garbler": gErr, "evaluator": eErr} {
				if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
					t.Fatalf("%s: %v, want a refusal ending %q", side, err, tc.want)
				}
			}
			out, gErr, eErr := streamPair(t, streamWindow, emit(false), bits, bits)
			if gErr != nil || eErr != nil || len(out) != 1 || !out[0] {
				t.Fatalf("without the bad gate: %v, garbler %v, evaluator %v", out, gErr, eErr)
			}
		})
	}
}

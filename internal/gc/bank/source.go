package bank

import (
	"fmt"
	"io"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
)

// Source is where a garble-side schedule walk gets its label material and
// table bytes for a batch of B ≥ 1 samples: a live garbler (NewLive) or B
// banked executions (Banked). The walk asks for steps in schedule order, and
// for a level run's levels in order.
type Source interface {
	// Consts appends the constant wires' active labels to dst: the B
	// false-labels, then the B true-labels.
	Consts(dst []byte) ([]byte, error)
	// Deltas returns each sample's Free-XOR delta.
	Deltas() []gc.Label
	// Inputs makes st the current input step.
	Inputs(st *circuit.Step) error
	// Zero returns sample s's zero-label of the current input step's i-th
	// wire.
	Zero(i, s int) (gc.Label, error)
	// Level writes level li of level run st — the level's B·TableBytes
	// table bytes, each gate kind's region gate-major with samples
	// innermost — to dst.
	Level(st *circuit.Step, li int, dst []byte) error
	// Outputs appends output step st's zero-labels to dst, wire-major with
	// samples innermost.
	Outputs(st *circuit.Step, dst []gc.Label) ([]gc.Label, error)
}

// live garbles online: every sample gets a fresh Free-XOR delta and fresh
// wire labels, so the samples of a batch are as unlinkable as separate
// inferences. Its Level is the one place the garbling side knows how a
// schedule level runs.
type live struct {
	sched *circuit.Schedule
	g     *gc.BatchGarbler
	pool  *gc.Pool
	wires []uint32 // the current input step's
}

// NewLive returns the source that garbles b samples over sched on pool,
// drawing the deltas and the constant-wire labels from rng now and every
// input wire's labels when its step is opened.
func NewLive(rng io.Reader, b int, sched *circuit.Schedule, pool *gc.Pool) (Source, error) {
	g, err := gc.NewBatchGarbler(rng, b)
	if err != nil {
		return nil, err
	}
	g.Grow(sched.NumWires)
	return &live{sched: sched, g: g, pool: pool}, nil
}

func (l *live) Consts(dst []byte) ([]byte, error) { return l.g.AppendConstLabels(dst) }

func (l *live) Deltas() []gc.Label { return l.g.R }

// Inputs draws the step's zero-labels — an evaluator step's with permute
// bit 0, the colour = value convention half ANDs rest on.
func (l *live) Inputs(st *circuit.Step) error {
	l.wires = st.Wires
	return l.g.AssignInputs(st.Wires, st.Party == circuit.Evaluator)
}

func (l *live) Zero(i, s int) (gc.Label, error) { return l.g.ZeroLabel(l.wires[i], s) }

// Level retires the run's pre-drops ahead of its first level (a run without
// levels only trails the last barrier, where nothing reads a wire again, and
// is never asked for), garbles the level and retires what died in it.
func (l *live) Level(st *circuit.Step, li int, dst []byte) error {
	if li == st.First {
		for _, w := range st.PreDrops {
			l.g.Drop(w)
		}
	}
	lv := &l.sched.Levels[li]
	ands, frees := l.sched.LevelGates(lv)
	if err := l.g.GarbleLevel(ands, frees, lv.GIDBase, dst, l.pool); err != nil {
		return err
	}
	for _, w := range lv.Drops {
		l.g.Drop(w)
	}
	return nil
}

func (l *live) Outputs(st *circuit.Step, dst []gc.Label) ([]gc.Label, error) {
	for _, w := range st.Wires {
		for s := 0; s < l.g.B(); s++ {
			z, err := l.g.ZeroLabel(w, s)
			if err != nil {
				return dst, err
			}
			dst = append(dst, z)
		}
	}
	return dst, nil
}

// record garbles one execution: it drives a one-sample live source through
// the walk the garbling engine makes and keeps what the source hands out.
// The rng draw order and the table bytes are therefore the live source's by
// construction: for the same rng state a banked execution holds exactly what
// live garbling would have put on the wire.
func record(rng io.Reader, sched *circuit.Schedule, pool *gc.Pool) (*Execution, error) {
	src, err := NewLive(rng, 1, sched, pool)
	if err != nil {
		return nil, err
	}
	ex := &Execution{r: src.Deltas()[0], tables: make([]byte, sched.TableBytes())}
	if ex.consts, err = src.Consts(nil); err != nil {
		return nil, err
	}
	off := 0
	for si := range sched.Steps {
		st := &sched.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			if err := src.Inputs(st); err != nil {
				return nil, err
			}
			for i := range st.Wires {
				z, err := src.Zero(i, 0)
				if err != nil {
					return nil, err
				}
				ex.inZero = append(ex.inZero, z)
			}
		case circuit.StepOutputs:
			if ex.outZero, err = src.Outputs(st, ex.outZero); err != nil {
				return nil, err
			}
		case circuit.StepLevels:
			for li := st.First; li < st.First+st.N; li++ {
				end := off + sched.Levels[li].TableBytes()
				if err := src.Level(st, li, ex.tables[off:end]); err != nil {
					return nil, err
				}
				off = end
			}
		}
	}
	return ex, nil
}

// banked replays B banked executions, sample s of the batch from execution
// s: input steps select labels from the banked zero-labels and levels copy
// the banked table bytes, so the online walk garbles nothing. An execution
// stores its input zero-labels, its table bytes and its output zero-labels
// each as one flat sequence in walk order, so the source is three cursors
// and asks the schedule only where a level's table regions part. At B=1,
// for the same rng state, what it hands out is byte for byte what the live
// source would (record drives one; pinned by core's
// TestBankStreamConformance). At B>1 each sample keeps its
// own execution's delta and labels, exactly as gc.BatchGarbler would have
// drawn them, only the draw order differs from the live source (so the batch
// conformance is at label level, not transcript level).
type banked struct {
	sched *circuit.Schedule
	exs   []*Execution
	rs    []gc.Label // exs' deltas

	in, nextIn int // input zero-labels: the current step's first, the next step's first
	out        int // output zero-labels handed out so far
	off        int // table bytes handed out so far, per execution
}

// Banked returns the source that replays exs — garbled over sched, which the
// caller took from its bank (TakeN) and releases once the walk is over.
func Banked(sched *circuit.Schedule, exs []*Execution) Source {
	b := &banked{sched: sched, exs: exs, rs: make([]gc.Label, len(exs))}
	for s, ex := range exs {
		b.rs[s] = ex.r
	}
	return b
}

func (b *banked) Consts(dst []byte) ([]byte, error) {
	for _, ex := range b.exs {
		dst = append(dst, ex.consts[:gc.LabelSize]...)
	}
	for _, ex := range b.exs {
		dst = append(dst, ex.consts[gc.LabelSize:]...)
	}
	return dst, nil
}

func (b *banked) Deltas() []gc.Label { return b.rs }

func (b *banked) Inputs(st *circuit.Step) error {
	b.in, b.nextIn = b.nextIn, b.nextIn+len(st.Wires)
	return nil
}

func (b *banked) Zero(i, s int) (gc.Label, error) { return b.exs[s].inZero[b.in+i], nil }

// Level interleaves the B banked levels into the batch stream, one table
// region at a time: a region's gate rank i, sample s lands at i*B+s tables
// into it — the copy is the whole online table cost of a bank hit.
func (b *banked) Level(_ *circuit.Step, li int, dst []byte) error {
	lv := &b.sched.Levels[li]
	width := lv.TableBytes()
	if have := len(b.exs[0].tables); b.off+width > have {
		return fmt.Errorf("bank: execution holds %d table bytes, the walk asks for %d", have, b.off+width)
	}
	n := len(b.exs)
	full := width - lv.Halves*circuit.HalfAND.TableBytes()
	for s, ex := range b.exs {
		src := ex.tables[b.off : b.off+width]
		interleave(dst[:full*n], src[:full], circuit.AND.TableBytes(), s, n)
		interleave(dst[full*n:], src[full:], circuit.HalfAND.TableBytes(), s, n)
	}
	b.off += width
	return nil
}

// interleave copies src's tables of size bytes each to every n-th table
// slot of dst, starting at slot s.
func interleave(dst, src []byte, size, s, n int) {
	for i := 0; i*size < len(src); i++ {
		copy(dst[(i*n+s)*size:], src[i*size:(i+1)*size])
	}
}

func (b *banked) Outputs(st *circuit.Step, dst []gc.Label) ([]gc.Label, error) {
	for i := range st.Wires {
		for _, ex := range b.exs {
			dst = append(dst, ex.outZero[b.out+i])
		}
	}
	b.out += len(st.Wires)
	return dst, nil
}

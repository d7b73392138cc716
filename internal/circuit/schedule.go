package circuit

import "fmt"

// Schedule is a level-parallel execution plan compiled from a Tape. Where
// the tape is a strictly sequential event stream (one gate at a time, in
// generation order), the schedule groups gates into strata ("levels") of
// mutually independent gates: every operand of a level-L gate is produced
// by an earlier level (or an input step), no two gates in a level write
// the same wire, and no gate reads a wire another gate in its level
// writes. A batch engine can therefore garble or evaluate a whole level
// with a worker pool and a barrier between levels, without changing the
// protocol's semantics.
//
// Building the schedule undoes the generator's wire recycling first: the
// recycled tape reuses wire ids aggressively, which would chain otherwise
// independent gates together through false write-after-read dependencies.
// Each (wire, definition) incarnation gets a private SSA id, levels are
// derived on the SSA stream (true data dependencies only), and the SSA
// ids are then renamed back into a compact namespace by a level-aware
// register allocator — a wire id freed by a level-L drop is only reused
// from level L+1 on, so the parallel engine keeps the bounded §3.5 memory
// footprint of the sequential one.
//
// Determinism: the schedule is a pure function of the tape, gates keep
// tape order within each level (the full ANDs, then the half ANDs, then
// the free gates), and every AND gate has a fixed global index (GIDBase +
// rank) that keys its hash tweak and its table's offset in the streamed
// byte sequence. Two parties compiling the same tape
// therefore agree on tweaks and table order for any worker count, and the
// garbler's byte stream is identical for Workers=1 and Workers=N.
type Schedule struct {
	Steps  []Step
	Levels []Level
	Gates  []Gate

	// NumWires is the size of the renamed wire namespace (ids are in
	// [0, NumWires), with 0 and 1 the constants).
	NumWires uint32
	// ANDs is the total AND-gate count (= table count on the wire), half
	// ANDs included; Halves counts those.
	ANDs   int64
	Halves int64
	// MaxWidth is the largest number of gates in any single level.
	MaxWidth int
	// MaxLevelANDs is the largest AND count in any single level.
	MaxLevelANDs int
}

// StepKind discriminates schedule steps.
type StepKind uint8

// Schedule step kinds. Input and output steps are synchronization
// barriers: they involve transport or oblivious transfer and run on the
// engine's main goroutine, exactly where the tape recorded them.
const (
	StepInputs StepKind = iota
	StepOutputs
	StepLevels
)

// Step is one entry of the schedule's top-level sequence.
type Step struct {
	Kind StepKind

	// Party and Wires describe input/output steps (renamed wire ids, in
	// declaration order — the protocol's label/OT batch order).
	Party Party
	Wires []uint32

	// First and N locate a level run's strata in Schedule.Levels.
	First, N int
	// PreDrops are wires whose values died before this run started
	// (their drop event fell between barriers); the engine retires them
	// before level First.
	PreDrops []uint32
	// TableBytes is the total garbled-table byte count of the run — the
	// evaluator's byte budget for it (the sum of its levels' TableBytes).
	TableBytes int
}

// Level is one stratum of mutually independent gates.
// Gates[Off:Off+ANDs] are the level's AND gates — the last Halves of them
// its half ANDs — and Gates[Off+ANDs:Off+ANDs+Frees] its XOR/INV gates,
// each group in tape order. The i-th AND gate of the level has global AND
// index GIDBase+i, which fixes its hash tweaks; its garbled table lies at
// rank × table size inside its kind's region of the level's table block,
// the full ANDs' region first.
type Level struct {
	Off     int
	ANDs    int
	Halves  int
	Frees   int
	GIDBase uint64
	// Drops are wires whose values die once this level completes; the
	// engine retires them between this level and the next.
	Drops []uint32
}

// TableBytes returns the size of the level's table block for one sample.
func (lv *Level) TableBytes() int { return (2*lv.ANDs - lv.Halves) * CiphertextSize }

// TableBytes returns the size of one sample's whole table stream.
func (s *Schedule) TableBytes() int64 { return (2*s.ANDs - s.Halves) * CiphertextSize }

// ssaInfo tracks one SSA value (a single wire incarnation) during
// schedule construction.
type ssaInfo struct {
	// defStep / defLevel locate the definition; lastStep / lastLevel the
	// latest read (or the definition, if never read). defLevel is -1 for
	// input-step definitions.
	defStep   int32
	defLevel  int32
	lastStep  int32
	lastLevel int32
	// renamed is the compact wire id assigned during renaming.
	renamed uint32
}

// buildLevel accumulates one stratum in SSA form.
type buildLevel struct {
	ands  []Gate
	halfs []Gate
	frees []Gate
	drops []uint32 // SSA ids dying at this level
}

// buildRun is one StepLevels step in SSA form.
type buildRun struct {
	levels   []buildLevel
	preDrops []uint32
}

// scheduler is the transient state of NewSchedule.
type scheduler struct {
	ssa  []ssaInfo
	cur  []uint32 // tape wire id -> current SSA id
	mask []bool   // tape wire id -> has a current SSA id

	steps   []Step     // Kind/Party set; wires and level spans filled later
	inWires [][]uint32 // SSA input/output wire batches, parallel to steps
	runs    []*buildRun
	runOf   []int // step index -> index into runs (or -1)

	run      *buildRun
	pending  []uint32 // pre-run drops waiting for the next run
	stepIdx  int32
	numGates int64
}

// NewSchedule compiles the tape into a level-parallel execution plan.
func NewSchedule(t *Tape) (*Schedule, error) {
	sc := &scheduler{}
	// SSA ids 0 and 1 are the constant wires, defined before everything.
	sc.ssa = append(sc.ssa,
		ssaInfo{defStep: -1, defLevel: -1, lastStep: -1, lastLevel: -1},
		ssaInfo{defStep: -1, defLevel: -1, lastStep: -1, lastLevel: -1})
	sc.bind(WFalse, 0)
	sc.bind(WTrue, 1)

	if err := sc.walk(t); err != nil {
		return nil, err
	}
	sc.closeRun()
	if len(sc.pending) > 0 {
		// Trailing drops after the last barrier: give them an empty run
		// so the engine still retires them (parity with sequential mode).
		sc.openRun()
		sc.run.preDrops = append(sc.run.preDrops, sc.pending...)
		sc.pending = nil
		sc.closeRun()
	}
	return sc.rename()
}

func (sc *scheduler) bind(w uint32, ssa uint32) {
	for uint32(len(sc.cur)) <= w {
		sc.cur = append(sc.cur, 0)
		sc.mask = append(sc.mask, false)
	}
	sc.cur[w] = ssa
	sc.mask[w] = true
}

func (sc *scheduler) lookup(w uint32) (uint32, error) {
	if uint32(len(sc.cur)) <= w || !sc.mask[w] {
		return 0, fmt.Errorf("circuit: schedule references undefined wire %d", w)
	}
	return sc.cur[w], nil
}

func (sc *scheduler) newSSA(w uint32, step, level int32) uint32 {
	id := uint32(len(sc.ssa))
	sc.ssa = append(sc.ssa, ssaInfo{
		defStep: step, defLevel: level, lastStep: step, lastLevel: level,
	})
	sc.bind(w, id)
	return id
}

func (sc *scheduler) openRun() {
	if sc.run != nil {
		return
	}
	sc.run = &buildRun{preDrops: sc.pending}
	sc.pending = nil
	sc.runs = append(sc.runs, sc.run)
	sc.steps = append(sc.steps, Step{Kind: StepLevels})
	sc.inWires = append(sc.inWires, nil)
	sc.runOf = append(sc.runOf, len(sc.runs)-1)
	sc.stepIdx = int32(len(sc.steps) - 1)
}

func (sc *scheduler) closeRun() {
	sc.run = nil
}

func (sc *scheduler) barrierStep(kind StepKind, p Party, ssaWires []uint32) {
	sc.closeRun()
	sc.steps = append(sc.steps, Step{Kind: kind, Party: p})
	sc.inWires = append(sc.inWires, ssaWires)
	sc.runOf = append(sc.runOf, -1)
	sc.stepIdx = int32(len(sc.steps) - 1)
}

// onGate levels one gate and appends it (in SSA ids) to its stratum.
func (sc *scheduler) onGate(g Gate) error {
	sc.openRun()
	step := sc.stepIdx
	a, err := sc.lookup(g.A)
	if err != nil {
		return err
	}
	b := uint32(0) // INV is unary; 0 is the constant-false SSA id
	if g.Op != INV {
		if b, err = sc.lookup(g.B); err != nil {
			return err
		}
	}
	lvl := int32(0)
	if ia := &sc.ssa[a]; ia.defStep == step && ia.defLevel+1 > lvl {
		lvl = ia.defLevel + 1
	}
	if g.Op != INV {
		if ib := &sc.ssa[b]; ib.defStep == step && ib.defLevel+1 > lvl {
			lvl = ib.defLevel + 1
		}
	}
	touch(&sc.ssa[a], step, lvl)
	if g.Op != INV {
		touch(&sc.ssa[b], step, lvl)
	}
	out := sc.newSSA(g.Out, step, lvl)

	for int32(len(sc.run.levels)) <= lvl {
		sc.run.levels = append(sc.run.levels, buildLevel{})
	}
	bl := &sc.run.levels[lvl]
	sg := Gate{Op: g.Op, A: a, B: b, Out: out}
	switch g.Op {
	case AND:
		bl.ands = append(bl.ands, sg)
	case HalfAND:
		// Colour = value is arranged for evaluator-input wires alone, so a
		// half AND anywhere else would evaluate to the wrong label.
		if ib := &sc.ssa[b]; ib.defLevel >= 0 || ib.defStep < 0 ||
			sc.steps[ib.defStep].Kind != StepInputs || sc.steps[ib.defStep].Party != Evaluator {
			return fmt.Errorf("circuit: half AND reads wire %d in slot B, which is not an evaluator input", g.B)
		}
		bl.halfs = append(bl.halfs, sg)
	default:
		bl.frees = append(bl.frees, sg)
	}
	sc.numGates++
	return nil
}

func touch(i *ssaInfo, step, lvl int32) {
	if step > i.lastStep || (step == i.lastStep && lvl > i.lastLevel) {
		i.lastStep = step
		i.lastLevel = lvl
	}
}

// onDrop attaches a drop to the level at which its value's last use
// completes, or to the next run's pre-drops when that point has already
// passed a barrier.
func (sc *scheduler) onDrop(w uint32) error {
	if uint32(len(sc.cur)) <= w || !sc.mask[w] {
		// Advisory drop of a wire that never carried a value: ignore,
		// matching the Sink contract.
		return nil
	}
	ssa := sc.cur[w]
	sc.mask[w] = false
	info := &sc.ssa[ssa]
	if sc.run != nil && info.lastStep == sc.stepIdx && sc.runOf[sc.stepIdx] >= 0 {
		bl := &sc.run.levels[info.lastLevel]
		bl.drops = append(bl.drops, ssa)
		return nil
	}
	if sc.run != nil {
		sc.run.preDrops = append(sc.run.preDrops, ssa)
		return nil
	}
	sc.pending = append(sc.pending, ssa)
	return nil
}

func (sc *scheduler) onInputs(p Party, ws []uint32) error {
	ssaWires := make([]uint32, len(ws))
	sc.barrierStep(StepInputs, p, ssaWires)
	for i, w := range ws {
		ssaWires[i] = sc.newSSA(w, sc.stepIdx, -1)
	}
	return nil
}

func (sc *scheduler) onOutputs(ws []uint32) error {
	ssaWires := make([]uint32, len(ws))
	for i, w := range ws {
		ssa, err := sc.lookup(w)
		if err != nil {
			return fmt.Errorf("circuit: schedule output: %w", err)
		}
		ssaWires[i] = ssa
	}
	sc.barrierStep(StepOutputs, 0, ssaWires)
	for _, ssa := range ssaWires {
		touch(&sc.ssa[ssa], sc.stepIdx, -1)
	}
	return nil
}

// walk decodes the tape's event stream directly (it is the Replay loop,
// inlined so the scheduler sees events without an extra Sink layer).
func (sc *scheduler) walk(t *Tape) error {
	code := t.code
	for i := 0; i < len(code); {
		switch code[i] {
		case opXOR, opAND, opHalfAND:
			if err := sc.onGate(Gate{Op: Op(code[i]), A: code[i+1], B: code[i+2], Out: code[i+3]}); err != nil {
				return err
			}
			i += 4
		case opINV:
			if err := sc.onGate(Gate{Op: INV, A: code[i+1], Out: code[i+2]}); err != nil {
				return err
			}
			i += 3
		case opInputsG, opInputsE:
			p := Garbler
			if code[i] == opInputsE {
				p = Evaluator
			}
			n := int(code[i+1])
			if err := sc.onInputs(p, code[i+2:i+2+n]); err != nil {
				return err
			}
			i += 2 + n
		case opOutputs:
			n := int(code[i+1])
			if err := sc.onOutputs(code[i+2 : i+2+n]); err != nil {
				return err
			}
			i += 2 + n
		case opDrop:
			if err := sc.onDrop(code[i+1]); err != nil {
				return err
			}
			i += 2
		default:
			return fmt.Errorf("circuit: corrupt tape opcode %d at %d", code[i], i)
		}
	}
	return nil
}

// rename walks the SSA schedule in execution order and assigns compact
// wire ids with a level-aware free list: an id released by a level-L drop
// becomes allocatable at level L+1 (never inside L, where its old value
// may still be read concurrently).
func (sc *scheduler) rename() (*Schedule, error) {
	s := &Schedule{
		Steps: sc.steps,
		Gates: make([]Gate, 0, sc.numGates),
	}
	sc.ssa[0].renamed = WFalse
	sc.ssa[1].renamed = WTrue
	next := uint32(2)
	var free []uint32
	alloc := func(ssa uint32) uint32 {
		var id uint32
		if n := len(free); n > 0 {
			id = free[n-1]
			free = free[:n-1]
		} else {
			id = next
			next++
		}
		sc.ssa[ssa].renamed = id
		return id
	}
	release := func(ssaIDs []uint32) []uint32 {
		out := make([]uint32, len(ssaIDs))
		for i, ssa := range ssaIDs {
			id := sc.ssa[ssa].renamed
			out[i] = id
			free = append(free, id)
		}
		return out
	}

	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			ws := sc.inWires[si]
			st.Wires = make([]uint32, len(ws))
			for i, ssa := range ws {
				st.Wires[i] = alloc(ssa)
			}
		case StepOutputs:
			ws := sc.inWires[si]
			st.Wires = make([]uint32, len(ws))
			for i, ssa := range ws {
				st.Wires[i] = sc.ssa[ssa].renamed
			}
		case StepLevels:
			run := sc.runs[sc.runOf[si]]
			st.First = len(s.Levels)
			st.N = len(run.levels)
			st.PreDrops = release(run.preDrops)
			for li := range run.levels {
				bl := &run.levels[li]
				lv := Level{
					Off:     len(s.Gates),
					ANDs:    len(bl.ands) + len(bl.halfs),
					Halves:  len(bl.halfs),
					Frees:   len(bl.frees),
					GIDBase: uint64(s.ANDs),
				}
				// Outputs allocate before the level's drops release, so
				// an id read at this level is never redefined in it.
				for _, gs := range [][]Gate{bl.ands, bl.halfs, bl.frees} {
					for _, g := range gs {
						s.Gates = append(s.Gates, sc.renameGate(g, alloc))
					}
				}
				lv.Drops = release(bl.drops)
				s.ANDs += int64(lv.ANDs)
				s.Halves += int64(lv.Halves)
				st.TableBytes += lv.TableBytes()
				s.MaxWidth = max(s.MaxWidth, lv.ANDs+lv.Frees)
				s.MaxLevelANDs = max(s.MaxLevelANDs, lv.ANDs)
				s.Levels = append(s.Levels, lv)
			}
		}
	}
	s.NumWires = next
	return s, nil
}

func (sc *scheduler) renameGate(g Gate, alloc func(uint32) uint32) Gate {
	a := sc.ssa[g.A].renamed
	b := uint32(0)
	if g.Op != INV {
		b = sc.ssa[g.B].renamed
	}
	return Gate{Op: g.Op, A: a, B: b, Out: alloc(g.Out)}
}

// NumLevels returns the total stratum count across all level runs.
func (s *Schedule) NumLevels() int { return len(s.Levels) }

// LevelGates returns the AND and free gate slices of level lv.
func (s *Schedule) LevelGates(lv *Level) (ands, frees []Gate) {
	return s.Gates[lv.Off : lv.Off+lv.ANDs], s.Gates[lv.Off+lv.ANDs : lv.Off+lv.ANDs+lv.Frees]
}

// String summarizes the schedule's shape.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule: %d steps, %d levels, %d gates (%d AND, %d of them half), %d wires, max width %d",
		len(s.Steps), len(s.Levels), len(s.Gates), s.ANDs, s.Halves, s.NumWires, s.MaxWidth)
}

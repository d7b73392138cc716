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
// Levels are as soon as possible under a width bound: a gate goes to the
// first level, at or after the one past its operands', that holds fewer
// than maxLevelGates gates. Unbounded, a dense layer's partial products all
// share level 0 (27 008 ANDs on the bench MLPs) and are live at once, so
// NumWires, and with it a session's NumWires × B × 16-byte label array, is
// six times what the rest of the program needs, and the kernels stream
// that array from beyond the cache.
//
// Construction allocates each of its large tables once, sized from the
// tape's counts: one pass over the tape levels the gates and records them
// and the drops flat, in tape order; renaming then places each level run's
// gates into their levels, and its drops after theirs, with a stable
// counting sort, and carves the drop lists out of one shared array.
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
	// (their drop event fell between barriers). They die before level
	// First; Check retires them there, and the engines, which run a checked
	// schedule, need not.
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
	// Drops are wires whose values die once this level completes, and
	// whose ids later levels may reuse; Check retires them between this
	// level and the next.
	Drops []uint32
}

// TableBytes returns the size of the level's table block for one sample.
func (lv *Level) TableBytes() int { return (2*lv.ANDs - lv.Halves) * CiphertextSize }

// TableBytes returns the size of one sample's whole table stream.
func (s *Schedule) TableBytes() int64 { return (2*s.ANDs - s.Halves) * CiphertextSize }

// value is the SSA value a tape wire carries: one incarnation of the wire,
// named by its SSA id. Only a wire's current value can be read or dropped,
// so the scheduler keeps one per wire id, not one per SSA id.
type value struct {
	id   uint32
	live bool
	// defStep / defLevel locate the definition; lastStep / lastLevel the
	// latest read (or the definition, if never read). defLevel is -1 for
	// input-step definitions.
	defStep, defLevel, lastStep, lastLevel int32
}

// buildRun is one StepLevels step in SSA form. Its gates run from
// scheduler.gates[gates] to the next run's first, its drops likewise.
type buildRun struct {
	levels int32 // its strata, counted as its gates arrive
	gates  int
	drops  int
}

// maxLevelGates bounds a level's width; Schedule's comment says why.
const maxLevelGates = 1 << 10

// scheduler is the transient state of NewSchedule. It levels the tape in
// one pass, recording every gate (in SSA ids) and every drop in two flat
// arrays in tape order; rename then buckets each run's gates by (level,
// kind) and its drops by level. Its large tables are sized from the tape's
// counts before the pass, so none regrows.
type scheduler struct {
	vals []value // tape wire id -> its current value
	nssa uint32  // SSA ids handed out: the constants, then gate outputs and input wires

	steps []Step // input/output steps hold SSA wires until rename
	runs  []buildRun
	// gates holds every gate in SSA ids, and drops every SSA id that dies,
	// each in tape order; their keys are the buckets of their run that
	// rename sorts them into: 3 × level + kindRank for a gate, and for a
	// drop 1 + the level it dies after, or 0 if it dies before the first.
	gates    []Gate
	gateKeys []int32
	drops    []uint32
	dropKeys []int32

	// width counts the open run's gates per level; room[l] is l unless that
	// level is full, else a later level, or len(width), to look in for room.
	width, room []int32

	open    bool // the last run takes the gates that arrive
	pending int  // while no run is open, the next run's first drop
	stepIdx int32
}

// NewSchedule compiles the tape into a level-parallel execution plan and
// checks it (Check), so an engine can run it without checking anything.
func NewSchedule(t *Tape) (*Schedule, error) {
	s, err := compile(t)
	if err != nil {
		return nil, err
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return s, nil
}

// compile is NewSchedule without the check: it refuses a tape that reads an
// undefined wire or misplaces a half AND, and is otherwise trusted to
// schedule what it accepts correctly, which FuzzScheduleCheck tests.
func compile(t *Tape) (*Schedule, error) {
	st := t.Stats()
	sc := &scheduler{
		vals:     make([]value, t.wires),
		gates:    make([]Gate, 0, st.Total()),
		gateKeys: make([]int32, 0, st.Total()),
		drops:    make([]uint32, 0, t.drops),
		dropKeys: make([]int32, 0, t.drops),
	}
	sc.define(WFalse, -1, -1) // SSA ids 0 and 1: the constants, defined before all
	sc.define(WTrue, -1, -1)

	if err := t.Replay(sc); err != nil {
		return nil, err
	}
	sc.closeRun()
	if len(sc.drops) > sc.pending {
		// Trailing drops after the last barrier: give them an empty run
		// so the engine still retires them (parity with sequential mode).
		sc.openRun()
		sc.closeRun()
	}
	// A last, empty entry ends the last run's gates and drops.
	sc.runs = append(sc.runs, buildRun{gates: len(sc.gates), drops: len(sc.drops)})
	return sc.rename(), nil
}

// Live is a wire live-set, and the one liveness rule the GC engine runs
// on: a gate reads live wires and writes a dead one. Schedule.Check proves
// a schedule keeps it, once, at compile time, so the level kernels check
// nothing; core's §3.3 stream, which levels a gate stream no schedule
// covers, holds each gate to it as it arrives.
type Live struct{ set []bool }

// Has reports whether wire w carries a value.
func (l *Live) Has(w uint32) bool { return w < uint32(len(l.set)) && l.set[w] }

// Set marks wire w live, growing the set to hold it.
func (l *Live) Set(w uint32) {
	if n := int(w) + 1; n > len(l.set) {
		l.set = append(l.set, make([]bool, n-len(l.set))...)
	}
	l.set[w] = true
}

// Clear marks wire w dead.
func (l *Live) Clear(w uint32) {
	if w < uint32(len(l.set)) {
		l.set[w] = false
	}
}

// Admit returns an error unless g's operands (A alone for an INV) are live
// and its output is dead; its message names no package, the caller's
// prefix does.
func (l *Live) Admit(g *Gate) error {
	switch {
	case !l.Has(g.A):
		return fmt.Errorf("%v gate reads dead wire %d", g.Op, g.A)
	case g.Op != INV && !l.Has(g.B):
		return fmt.Errorf("%v gate reads dead wire %d", g.Op, g.B)
	case l.Has(g.Out):
		return fmt.Errorf("%v gate writes live wire %d", g.Op, g.Out)
	}
	return nil
}

// Check replays the schedule over a live-set of NumWires wires and proves
// what the engines run it on without checking anything: every gate passes
// Live.Admit against the state before its level, so a level's outputs are
// distinct and none is read inside it; gate outputs and input wires lie
// below NumWires; a level's ANDs are full then half, its free gates XOR or
// INV; output steps and drops name live wires. So that the replay is what the
// engines run, levels must tile Gates in step order. GIDBase must count the
// ANDs before its level, or a hash tweak could repeat; a run's TableBytes,
// the evaluator's budget for the peer's stream, must sum its levels'.
// NewSchedule checks every schedule it returns.
func (s *Schedule) Check() error {
	live := Live{set: make([]bool, s.NumWires)}
	live.Set(WFalse)
	live.Set(WTrue)
	// kill retires ws, or names the first of them that is not live.
	kill := func(ws []uint32) (dead uint32, ok bool) {
		for _, w := range ws {
			if !live.Has(w) {
				return w, false
			}
			live.Clear(w)
		}
		return 0, true
	}
	nextLevel, nextGate, gid := 0, 0, uint64(0)
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			for _, w := range st.Wires {
				if w >= s.NumWires || live.Has(w) {
					return fmt.Errorf("circuit: input step %d defines wire %d, which is live or outside %d wires", si, w, s.NumWires)
				}
				live.Set(w)
			}
		case StepOutputs:
			for _, w := range st.Wires {
				if !live.Has(w) {
					return fmt.Errorf("circuit: output step %d reads dead wire %d", si, w)
				}
			}
		case StepLevels:
			if st.First != nextLevel || st.N < 0 || st.First+st.N > len(s.Levels) {
				return fmt.Errorf("circuit: step %d runs levels [%d, %d), want them from %d of %d", si, st.First, st.First+st.N, nextLevel, len(s.Levels))
			}
			if w, ok := kill(st.PreDrops); !ok {
				return fmt.Errorf("circuit: step %d drops dead wire %d", si, w)
			}
			tableBytes := 0
			for li := st.First; li < st.First+st.N; li++ {
				lv := &s.Levels[li]
				if err := s.checkLevel(&live, li, lv, nextGate, gid); err != nil {
					return err
				}
				if w, ok := kill(lv.Drops); !ok {
					return fmt.Errorf("circuit: level %d drops dead wire %d", li, w)
				}
				nextGate += lv.ANDs + lv.Frees
				gid += uint64(lv.ANDs)
				tableBytes += lv.TableBytes()
			}
			if tableBytes != st.TableBytes {
				return fmt.Errorf("circuit: step %d claims %d table bytes, its levels hold %d", si, st.TableBytes, tableBytes)
			}
			nextLevel += st.N
		default:
			return fmt.Errorf("circuit: step %d has unknown kind %d", si, st.Kind)
		}
	}
	if nextLevel != len(s.Levels) || nextGate != len(s.Gates) || gid != uint64(s.ANDs) {
		return fmt.Errorf("circuit: runs cover %d of %d levels, %d of %d gates and %d of %d ANDs",
			nextLevel, len(s.Levels), nextGate, len(s.Gates), gid, s.ANDs)
	}
	return nil
}

// checkLevel checks level li, which must start at gate off with AND index
// gid, against live and then makes its outputs live.
func (s *Schedule) checkLevel(live *Live, li int, lv *Level, off int, gid uint64) error {
	if lv.Off != off || lv.GIDBase != gid || lv.Halves < 0 || lv.Halves > lv.ANDs || lv.Frees < 0 ||
		lv.ANDs+lv.Frees > len(s.Gates)-off {
		return fmt.Errorf("circuit: level %d (%+v) does not follow gate %d, AND %d", li, *lv, off, gid)
	}
	if lv.ANDs+lv.Frees > maxLevelGates {
		return fmt.Errorf("circuit: level %d holds %d gates, more than %d", li, lv.ANDs+lv.Frees, maxLevelGates)
	}
	gates := s.Gates[off : off+lv.ANDs+lv.Frees]
	for i := range gates {
		g := &gates[i]
		var ok bool
		switch {
		case i < lv.ANDs-lv.Halves:
			ok = g.Op == AND
		case i < lv.ANDs:
			ok = g.Op == HalfAND
		default:
			ok = g.Op == XOR || g.Op == INV
		}
		if !ok {
			return fmt.Errorf("circuit: level %d holds a %v at rank %d of %d ANDs (%d half)", li, g.Op, i, lv.ANDs, lv.Halves)
		}
		if g.Out >= s.NumWires {
			return fmt.Errorf("circuit: level %d writes wire %d outside %d wires", li, g.Out, s.NumWires)
		}
		if err := live.Admit(g); err != nil {
			return fmt.Errorf("circuit: level %d: %w", li, err)
		}
	}
	for i := range gates {
		if live.Has(gates[i].Out) {
			return fmt.Errorf("circuit: level %d writes wire %d twice", li, gates[i].Out)
		}
		live.Set(gates[i].Out)
	}
	return nil
}

func (sc *scheduler) lookup(w uint32) (*value, error) {
	if uint32(len(sc.vals)) <= w || !sc.vals[w].live {
		return nil, fmt.Errorf("circuit: schedule references undefined wire %d", w)
	}
	return &sc.vals[w], nil
}

// define gives wire w a new value and returns its SSA id.
func (sc *scheduler) define(w uint32, step, level int32) uint32 {
	id := sc.nssa
	sc.nssa++
	sc.vals[w] = value{id: id, live: true, defStep: step, defLevel: level, lastStep: step, lastLevel: level}
	return id
}

func (sc *scheduler) openRun() {
	if sc.open {
		return
	}
	sc.open = true
	sc.width, sc.room = sc.width[:0], sc.room[:0]
	sc.steps = append(sc.steps, Step{Kind: StepLevels})
	sc.stepIdx = int32(len(sc.steps) - 1)
	sc.runs = append(sc.runs, buildRun{gates: len(sc.gates), drops: sc.pending})
}

func (sc *scheduler) closeRun() {
	if sc.open {
		sc.open = false
		sc.pending = len(sc.drops)
	}
}

func (sc *scheduler) barrierStep(kind StepKind, p Party, ssaWires []uint32) {
	sc.closeRun()
	sc.steps = append(sc.steps, Step{Kind: kind, Party: p, Wires: ssaWires})
	sc.stepIdx = int32(len(sc.steps) - 1)
}

// OnGate levels one gate and records it in SSA ids.
func (sc *scheduler) OnGate(g Gate) error {
	sc.openRun()
	step := sc.stepIdx
	va, err := sc.lookup(g.A)
	if err != nil {
		return err
	}
	// INV is unary: its B reads as A below, and as SSA id 0 (false) in the gate.
	vb, b := va, uint32(0)
	if g.Op != INV {
		if vb, err = sc.lookup(g.B); err != nil {
			return err
		}
		b = vb.id
	}
	lvl := int32(0) // one past its operands' levels in this run
	for _, v := range [2]*value{va, vb} {
		if v.defStep == step {
			lvl = max(lvl, v.defLevel+1)
		}
	}
	lvl = sc.place(lvl)
	// Colour = value is arranged for evaluator-input wires alone, so a half
	// AND anywhere else would evaluate to the wrong label.
	if g.Op == HalfAND && (vb.defLevel >= 0 || vb.defStep < 0 ||
		sc.steps[vb.defStep].Kind != StepInputs || sc.steps[vb.defStep].Party != Evaluator) {
		return fmt.Errorf("circuit: half AND reads wire %d in slot B, which is not an evaluator input", g.B)
	}
	touch(va, step, lvl)
	touch(vb, step, lvl)
	a := va.id // before define, which may give g.A a new value
	run := &sc.runs[len(sc.runs)-1]
	run.levels = max(run.levels, lvl+1)
	sc.gates = append(sc.gates, Gate{Op: g.Op, A: a, B: b, Out: sc.define(g.Out, step, lvl)})
	sc.gateKeys = append(sc.gateKeys, 3*lvl+kindRank[g.Op])
	return nil
}

// place returns the first level at or after l with room for a gate, a new
// last level if none has, and counts the gate there. Path halving over room
// keeps a lookup O(1) amortised.
func (sc *scheduler) place(l int32) int32 {
	for n := int32(len(sc.width)); l < n && sc.width[l] == maxLevelGates; l = sc.room[l] {
		if r := sc.room[l]; r < n {
			sc.room[l] = sc.room[r]
		}
	}
	if l == int32(len(sc.width)) {
		sc.width, sc.room = append(sc.width, 0), append(sc.room, l)
	}
	if sc.width[l]++; sc.width[l] == maxLevelGates {
		sc.room[l] = l + 1
	}
	return l
}

func touch(i *value, step, lvl int32) {
	if step > i.lastStep || (step == i.lastStep && lvl > i.lastLevel) {
		i.lastStep = step
		i.lastLevel = lvl
	}
}

// OnDrop attaches a drop to the level at which its value's last use
// completes, or to the pre-drops of the run it falls in (or of the next
// run, between runs) when that point has already passed a barrier.
func (sc *scheduler) OnDrop(w uint32) error {
	if uint32(len(sc.vals)) <= w || !sc.vals[w].live {
		// Advisory drop of a wire that never carried a value: ignore,
		// matching the Sink contract.
		return nil
	}
	v := &sc.vals[w]
	v.live = false
	key := int32(0)
	if sc.open && v.lastStep == sc.stepIdx {
		key = 1 + v.lastLevel
	}
	sc.drops = append(sc.drops, v.id)
	sc.dropKeys = append(sc.dropKeys, key)
	return nil
}

// OnInputs records an input step.
func (sc *scheduler) OnInputs(p Party, ws []uint32) error {
	ssaWires := make([]uint32, len(ws))
	sc.barrierStep(StepInputs, p, ssaWires)
	for i, w := range ws {
		ssaWires[i] = sc.define(w, sc.stepIdx, -1)
	}
	return nil
}

// OnOutputs records an output step.
func (sc *scheduler) OnOutputs(ws []uint32) error {
	ssaWires := make([]uint32, len(ws))
	for i, w := range ws {
		v, err := sc.lookup(w)
		if err != nil {
			return fmt.Errorf("circuit: schedule output: %w", err)
		}
		ssaWires[i] = v.id
	}
	sc.barrierStep(StepOutputs, 0, ssaWires)
	for _, w := range ws {
		touch(&sc.vals[w], sc.stepIdx, -1)
	}
	return nil
}

// rename walks the SSA schedule in execution order and assigns compact
// wire ids with a level-aware free list: an id released by a level-L drop
// becomes allocatable at level L+1 (never inside L, where its old value
// may still be read concurrently). Each run's gates are first bucketed by
// (level, kind) into their place in Schedule.Gates, and its drops by level,
// both with a stable counting sort, so each bucket keeps tape order.
func (sc *scheduler) rename() *Schedule {
	levels, widest := 0, 0
	for _, r := range sc.runs {
		levels += int(r.levels)
		widest = max(widest, int(r.levels))
	}
	s := &Schedule{
		Steps:  sc.steps,
		Levels: make([]Level, 0, levels),
		Gates:  make([]Gate, len(sc.gates)),
	}
	drops := make([]uint32, len(sc.drops))
	gateEnds := make([]int, 3*widest)  // per level: full ANDs, half ANDs, free gates
	dropEnds := make([]int, 1+widest)  // pre-drops, then per level
	renamed := make([]uint32, sc.nssa) // SSA id -> compact wire id
	renamed[WTrue] = WTrue
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
		renamed[ssa] = id
		return id
	}
	// release renames ws in place and frees the ids.
	release := func(ws []uint32) []uint32 {
		for i, ssa := range ws {
			ws[i] = renamed[ssa]
			free = append(free, ws[i])
		}
		return ws
	}

	for si, ri := 0, 0; si < len(s.Steps); si++ {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			for i, ssa := range st.Wires {
				st.Wires[i] = alloc(ssa)
			}
		case StepOutputs:
			for i, ssa := range st.Wires {
				st.Wires[i] = renamed[ssa]
			}
		case StepLevels:
			r := &sc.runs[ri]
			ri++
			gateHi, dropHi := sc.runs[ri].gates, sc.runs[ri].drops
			n := int(r.levels)
			gates, ends := s.Gates[r.gates:gateHi], gateEnds[:3*n]
			bucket(sc.gates[r.gates:gateHi], gates, sc.gateKeys[r.gates:gateHi], ends)
			ds, dends := drops[r.drops:dropHi], dropEnds[:1+n]
			bucket(sc.drops[r.drops:dropHi], ds, sc.dropKeys[r.drops:dropHi], dends)
			st.First = len(s.Levels)
			st.N = n
			st.PreDrops = release(ds[:dends[0]:dends[0]])
			lo, dlo := 0, dends[0]
			for l := range n {
				full, half, hi := ends[3*l], ends[3*l+1], ends[3*l+2]
				lv := Level{
					Off:     r.gates + lo,
					ANDs:    half - lo,
					Halves:  half - full,
					Frees:   hi - half,
					GIDBase: uint64(s.ANDs),
				}
				// Outputs allocate before the level's drops release, so
				// an id read at this level is never redefined in it.
				for i := lo; i < hi; i++ {
					g := &gates[i]
					g.A, g.B, g.Out = renamed[g.A], renamed[g.B], alloc(g.Out)
				}
				dhi := dends[1+l]
				lv.Drops = release(ds[dlo:dhi:dhi])
				s.ANDs += int64(lv.ANDs)
				s.Halves += int64(lv.Halves)
				st.TableBytes += lv.TableBytes()
				s.MaxWidth = max(s.MaxWidth, lv.ANDs+lv.Frees)
				s.MaxLevelANDs = max(s.MaxLevelANDs, lv.ANDs)
				s.Levels = append(s.Levels, lv)
				lo, dlo = hi, dhi
			}
		}
	}
	s.NumWires = next
	return s
}

// kindRank orders a level's gates: full ANDs, half ANDs, free gates.
var kindRank = [...]int32{AND: 0, HalfAND: 1, XOR: 2, INV: 2}

// bucket copies src into dst, stably sorted by keys (src[i]'s is keys[i],
// in [0, len(ends))); it leaves ends[k] one past key k's last element in dst.
func bucket[T any](src, dst []T, keys []int32, ends []int) {
	clear(ends)
	for _, k := range keys {
		ends[k]++
	}
	for k, sum := 0, 0; k < len(ends); k++ {
		ends[k], sum = sum, sum+ends[k]
	}
	for i, k := range keys {
		dst[ends[k]] = src[i]
		ends[k]++
	}
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

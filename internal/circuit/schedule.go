package circuit

import (
	"crypto/sha256"
	"fmt"
)

// Schedule is a level-parallel execution plan compiled from an event
// stream (Compile, or NewSchedule on a Tape). Where the stream is strictly
// sequential (one gate at a time, in generation order), the schedule
// groups gates into strata ("levels") of mutually independent gates: every
// operand of a level-L gate is produced by an earlier level (or an input
// step), no two gates in a level write the same wire, and no gate reads a
// wire another gate in its level writes. A batch engine can therefore garble or evaluate a whole level
// with a worker pool and a barrier between levels, without changing the
// protocol's semantics.
//
// Building the schedule undoes the generator's wire recycling first: the
// recycled stream reuses wire ids aggressively, which would chain otherwise
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
// stream's counts: one pass over the stream levels the gates and records
// them and the drops flat, in stream order; renaming then places each
// level run's gates into their levels, and its drops after theirs, with a
// stable counting sort, and carves the drop lists out of one shared array.
//
// The one scheduler also levels streams no party holds whole (Stream, the
// §3.3 deployment's): it hands off a fragment whenever a window of gates has
// arrived since the last, so it holds the window and the live values, never
// the program. A fragment is a Schedule of its own; its AND indices carry
// on from the previous one's, the values still live keep their wire ids,
// and its totals (ANDs, Halves, MaxWidth, MaxLevelANDs) are its own.
// Compile and NewSchedule are the scheduler with no window, handing off
// once at the end.
//
// Determinism: the schedule is a pure function of the stream (a window's
// fragments, of the stream and the window), gates keep
// stream order within each level (the full ANDs, then the half ANDs, then
// the free gates), and every AND gate has a fixed global index (GIDBase +
// rank) that keys its hash tweak and its table's offset in the streamed
// byte sequence. Two parties compiling the same stream
// therefore agree on tweaks and table order for any worker count, and the
// garbler's byte stream is identical for Workers=1 and Workers=N.
type Schedule struct {
	Steps  []Step
	Levels []Level
	Gates  []Gate

	// NumWires is the size of the renamed wire namespace (ids are in
	// [0, NumWires), with 0 and 1 the constants); a fragment's is the
	// stream's namespace so far.
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
// engine's main goroutine, exactly where the stream emitted them.
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
// each group in stream order. The i-th AND gate of the level has global AND
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

// value is the SSA value an event wire carries: one incarnation of the
// wire, named by its SSA id, or by its wire id once a stream has handed off
// the fragment that defined it. Only a wire's current value can be read or
// dropped, so the scheduler keeps one per wire id, not one per SSA id.
type value struct {
	id uint32
	// def is the position (scheduler.at) of the definition, last that of
	// the latest read, or of the definition if never read; def is -1 for
	// the constants and, in a stream, for values carried over.
	def, last int32
	live      bool
	// evalIn marks a raw evaluator input, the one kind of wire a half AND
	// may read in slot B: colour = value is arranged for those alone.
	evalIn bool
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

// scheduler levels an event stream in one pass, recording every gate (in
// SSA ids) and every drop in two flat arrays in arrival order; at a
// hand-off, rename buckets each run's gates by (level, kind) and its drops
// by level, and run takes the renamed fragment. A compile sizes the tables
// from the stream's counts, so none regrows, and hands off once, at the
// end; Stream hands off every window gates and reuses the tables.
//
// SSA ids name the values of one hand-off only, counting from base: every
// id below base is the wire id of a value an earlier fragment defined, and
// renamed maps it to itself, so a carried value keeps its wire id without
// a branch in rename and without an entry per value the stream has seen.
type scheduler struct {
	vals []value // event wire id -> its current value
	base uint32  // the fragment's first SSA id: the wire ids handed out before it
	nssa uint32  // one past the last SSA id handed out

	// window, when positive, is the number of gates after which a fragment
	// is handed off; run takes each fragment.
	window int
	run    func(*Schedule) error
	// digest takes each event before it is levelled: a compile's hashes
	// it. Its errors go unread: neither it nor a Counter refuses an event
	// the scheduler accepts.
	digest Sink

	steps []Step // input/output steps hold SSA wires until rename
	runs  []buildRun
	// gates holds every gate in SSA ids, and drops every SSA id that dies,
	// each in arrival order; their keys are the buckets of their run that
	// rename sorts them into: 3 × level + kindRank for a gate, and for a
	// drop 1 + the level it dies after, or 0 if it dies before the first.
	gates    []Gate
	gateKeys []int32
	drops    []uint32
	dropKeys []int32
	// defs lists, in a stream, the wires defined since the last hand-off,
	// so that those still live can take their wire ids at the next.
	defs []uint32

	// width counts the open run's gates per level; room[l] is l unless that
	// level is full, else a later level, or len(width), to look in for room.
	width, room []int32

	open    bool // the last run takes the gates that arrive
	pending int  // while no run is open, the next run's first drop
	// at orders events across runs and hand-offs: while a run is open, its
	// level l lies at position at + l; between runs, barriers lie at at,
	// before the next run's levels and after the last's. fragAt is the
	// first position of the fragment.
	at, fragAt int32

	// Carried from hand-off to hand-off: the wire ids handed out and those
	// free, the ANDs numbered, and rename's tables.
	next     uint32
	free     []uint32
	gid      uint64
	renamed  []uint32 // SSA id -> wire id
	levels   []Level
	out      []Gate
	outDrops []uint32
	gateEnds []int
	dropEnds []int
}

// newScheduler returns a scheduler that hands its fragments to run.
func newScheduler(window int, run func(*Schedule) error) *scheduler {
	sc := &scheduler{vals: make([]value, 2), window: window, run: run, digest: Counter{}, next: 2}
	sc.define(WFalse, -1) // SSA ids 0 and 1: the constants, defined before all
	sc.define(WTrue, -1)
	return sc
}

// NewSchedule levels the tape's event stream into a level-parallel
// execution plan and checks it (Check), so an engine can run it without
// checking anything.
func NewSchedule(t *Tape) (s *Schedule, err error) {
	err = stream(0, t.Stats(), Counter{}, t.Replay, func(f *Schedule) error { s = f; return nil })
	return s, err
}

// Compile levels the event stream emit produces in one pass, as NewSchedule
// levels a tape of it, and returns the schedule with that tape's Digest:
// the events are hashed as they arrive and recorded nowhere. hint counts
// the stream (its gates and inputs) and sizes the scheduler's tables; a
// short hint costs a regrowth, not a failure.
func Compile(emit func(Sink) error, hint Stats) (s *Schedule, sum [sha256.Size]byte, err error) {
	d := newDigest()
	if err = stream(0, hint, d, emit, func(f *Schedule) error { s = f; return nil }); err != nil {
		return nil, sum, err
	}
	return s, d.sum(), nil
}

// Stream levels the event stream emit produces as NewSchedule levels a
// tape, holding no more of it than a window: whenever window gates have
// arrived since the last hand-off, the scheduler closes the open level run,
// renames what it holds and hands run that fragment, checked as Check
// checks a schedule but against the live wires and the AND count the
// fragments before it left. A fragment's AND indices continue the previous
// fragment's, the values still live keep their wire ids, and its NumWires
// is the namespace so far. A fragment is valid until run returns: the next
// reuses its arrays. With no window (0), the stream is one fragment.
func Stream(window int, emit func(Sink) error, run func(*Schedule) error) error {
	return stream(window, Stats{}, Counter{}, emit, run)
}

// stream is Stream with the gate tables sized for hint's gates, the drop
// tables for a drop per value a gate or an input defines, and each event
// handed to digest first. The scheduler refuses a stream that reads a dead
// wire, writes a live one or misplaces a half AND, and is otherwise trusted
// to schedule what it accepts correctly, which FuzzScheduleCheck tests; the
// check then proves each fragment.
func stream(window int, hint Stats, digest Sink, emit func(Sink) error, run func(*Schedule) error) error {
	ck := newChecker()
	sc := newScheduler(window, func(s *Schedule) error {
		if err := ck.check(s); err != nil {
			return err
		}
		return run(s)
	})
	gates, values := int(hint.Total()), int(hint.Total()+hint.GarblerInputs+hint.EvaluatorInputs)
	sc.gates, sc.gateKeys = make([]Gate, 0, gates), make([]int32, 0, gates)
	sc.drops, sc.dropKeys = make([]uint32, 0, values), make([]int32, 0, values)
	sc.digest = digest
	if err := emit(sc); err != nil {
		return err
	}
	return sc.handOff()
}

// handOff closes the open run, renames what the scheduler holds and hands
// the fragment to run. In a stream, the values still live then take their
// wire ids, and the tables empty for the next fragment.
func (sc *scheduler) handOff() error {
	sc.closeRun()
	if len(sc.drops) > sc.pending {
		// Trailing drops after the last barrier: give them an empty run
		// so the engine still retires them (parity with sequential mode).
		sc.openRun()
		sc.closeRun()
	}
	// A last, empty entry ends the last run's gates and drops.
	sc.runs = append(sc.runs, buildRun{gates: len(sc.gates), drops: len(sc.drops)})
	if err := sc.run(sc.rename()); err != nil {
		return err
	}
	for _, w := range sc.defs {
		if v := &sc.vals[w]; v.live && v.def >= sc.fragAt {
			v.id, v.def = sc.renamed[v.id], -1
		}
	}
	for id := sc.base; id < sc.next; id++ {
		sc.renamed[id] = id
	}
	sc.base, sc.nssa = sc.next, sc.next
	sc.at++
	sc.fragAt = sc.at
	sc.steps, sc.runs, sc.defs = sc.steps[:0], sc.runs[:0], sc.defs[:0]
	sc.gates, sc.gateKeys = sc.gates[:0], sc.gateKeys[:0]
	sc.drops, sc.dropKeys = sc.drops[:0], sc.dropKeys[:0]
	sc.pending = 0
	return nil
}

// checker proves that a schedule, or a stream's fragments in order, keep
// what the engines run them on without checking anything (Check says
// what). It carries the live wires and the ANDs numbered from one fragment
// to the next.
type checker struct {
	live []bool
	gid  uint64
}

func newChecker() *checker { return &checker{live: []bool{WFalse: true, WTrue: true}} }

func (c *checker) has(w uint32) bool { return w < uint32(len(c.live)) && c.live[w] }

// kill retires ws, or names the first of them that is not live.
func (c *checker) kill(ws []uint32) (dead uint32, ok bool) {
	for _, w := range ws {
		if !c.has(w) {
			return w, false
		}
		c.live[w] = false
	}
	return 0, true
}

// Check replays the schedule over a live-set of NumWires wires and proves
// what the engines run it on without checking anything: every gate reads
// live wires and writes a dead one, judged against the state before its
// level, so a level's outputs are distinct and none is read inside it; gate
// outputs and input wires lie below NumWires; a level's ANDs are full then
// half, its free gates XOR or INV; output steps and drops name live wires.
// So that the replay is what the engines run, levels must tile Gates in
// step order. GIDBase must count the ANDs before its level, or a hash tweak
// could repeat; a run's TableBytes, the evaluator's budget for the peer's
// stream, must sum its levels'. NewSchedule checks every schedule it
// returns, and Stream every fragment.
func (s *Schedule) Check() error { return newChecker().check(s) }

// check is Check on the fragment that follows those c has checked.
func (c *checker) check(s *Schedule) error {
	if n := int(s.NumWires); n > len(c.live) {
		c.live = append(c.live, make([]bool, n-len(c.live))...)
	}
	nextLevel, nextGate, gid := 0, 0, c.gid
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case StepInputs:
			for _, w := range st.Wires {
				if w >= s.NumWires || c.has(w) {
					return fmt.Errorf("circuit: input step %d defines wire %d, which is live or outside %d wires", si, w, s.NumWires)
				}
				c.live[w] = true
			}
		case StepOutputs:
			for _, w := range st.Wires {
				if !c.has(w) {
					return fmt.Errorf("circuit: output step %d reads dead wire %d", si, w)
				}
			}
		case StepLevels:
			if st.First != nextLevel || st.N < 0 || st.First+st.N > len(s.Levels) {
				return fmt.Errorf("circuit: step %d runs levels [%d, %d), want them from %d of %d", si, st.First, st.First+st.N, nextLevel, len(s.Levels))
			}
			if w, ok := c.kill(st.PreDrops); !ok {
				return fmt.Errorf("circuit: step %d drops dead wire %d", si, w)
			}
			tableBytes := 0
			for li := st.First; li < st.First+st.N; li++ {
				lv := &s.Levels[li]
				if err := c.level(s, li, lv, nextGate, gid); err != nil {
					return err
				}
				if w, ok := c.kill(lv.Drops); !ok {
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
	if nextLevel != len(s.Levels) || nextGate != len(s.Gates) || gid-c.gid != uint64(s.ANDs) {
		return fmt.Errorf("circuit: runs cover %d of %d levels, %d of %d gates and %d of %d ANDs",
			nextLevel, len(s.Levels), nextGate, len(s.Gates), gid-c.gid, s.ANDs)
	}
	c.gid = gid
	return nil
}

// level checks level li, which must start at gate off with AND index gid,
// and then makes its outputs live.
func (c *checker) level(s *Schedule, li int, lv *Level, off int, gid uint64) error {
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
		switch {
		case g.Out >= s.NumWires:
			return fmt.Errorf("circuit: level %d writes wire %d outside %d wires", li, g.Out, s.NumWires)
		case !c.has(g.A):
			return fmt.Errorf("circuit: level %d: %v gate reads dead wire %d", li, g.Op, g.A)
		case g.Op != INV && !c.has(g.B):
			return fmt.Errorf("circuit: level %d: %v gate reads dead wire %d", li, g.Op, g.B)
		case c.has(g.Out):
			return fmt.Errorf("circuit: level %d: %v gate writes live wire %d", li, g.Op, g.Out)
		}
	}
	for i := range gates {
		if c.has(gates[i].Out) {
			return fmt.Errorf("circuit: level %d writes wire %d twice", li, gates[i].Out)
		}
		c.live[gates[i].Out] = true
	}
	return nil
}

// lookup returns wire w's current value, or nil if w carries none.
func (sc *scheduler) lookup(w uint32) *value {
	if uint32(len(sc.vals)) <= w || !sc.vals[w].live {
		return nil
	}
	return &sc.vals[w]
}

// define gives wire w a new value, defined at position at, and returns its
// SSA id.
func (sc *scheduler) define(w uint32, at int32) uint32 {
	if int(w) >= len(sc.vals) {
		sc.vals = sized(sc.vals, max(int(w)+1, 2*len(sc.vals)))
	}
	if sc.window > 0 {
		sc.defs = append(sc.defs, w)
	}
	id := sc.nssa
	sc.nssa++
	sc.vals[w] = value{id: id, def: at, last: at, live: true}
	return id
}

func (sc *scheduler) openRun() {
	if sc.open {
		return
	}
	sc.open = true
	sc.at++
	sc.width, sc.room = sc.width[:0], sc.room[:0]
	sc.steps = append(sc.steps, Step{Kind: StepLevels})
	sc.runs = append(sc.runs, buildRun{gates: len(sc.gates), drops: sc.pending})
}

func (sc *scheduler) closeRun() {
	if sc.open {
		sc.open = false
		sc.at += sc.runs[len(sc.runs)-1].levels
		sc.pending = len(sc.drops)
	}
}

func (sc *scheduler) barrierStep(kind StepKind, p Party, ssaWires []uint32) {
	sc.closeRun()
	sc.steps = append(sc.steps, Step{Kind: kind, Party: p, Wires: ssaWires})
}

// OnGate levels one gate and records it in SSA ids, after handing off the
// fragment if the window is full. It refuses a gate that reads a dead wire
// or writes a live one, before any level holding it runs.
func (sc *scheduler) OnGate(g Gate) error {
	if int(g.Op) >= len(kindRank) {
		return fmt.Errorf("circuit: cannot schedule op %v", g.Op)
	}
	sc.digest.OnGate(g)
	if sc.window > 0 && len(sc.gates) == sc.window {
		if err := sc.handOff(); err != nil {
			return err
		}
	}
	sc.openRun()
	va := sc.lookup(g.A)
	if va == nil {
		return fmt.Errorf("circuit: %v gate reads dead wire %d", g.Op, g.A)
	}
	// INV is unary: its B reads as A below, and as SSA id 0 (false) in the gate.
	vb, b := va, uint32(0)
	if g.Op != INV {
		if vb = sc.lookup(g.B); vb == nil {
			return fmt.Errorf("circuit: %v gate reads dead wire %d", g.Op, g.B)
		}
		b = vb.id
	}
	if sc.lookup(g.Out) != nil {
		return fmt.Errorf("circuit: %v gate writes live wire %d", g.Op, g.Out)
	}
	if g.Op == HalfAND && !vb.evalIn {
		return fmt.Errorf("circuit: half AND reads wire %d in slot B, which is not an evaluator input", g.B)
	}
	// One past its operands' levels in this run: values defined before
	// it lie before its level 0.
	lvl := sc.place(max(0, va.def+1-sc.at, vb.def+1-sc.at))
	pos := sc.at + lvl
	va.last = max(va.last, pos)
	vb.last = max(vb.last, pos)
	a := va.id // before define, which may move vals
	run := &sc.runs[len(sc.runs)-1]
	run.levels = max(run.levels, lvl+1)
	sc.gates = append(sc.gates, Gate{Op: g.Op, A: a, B: b, Out: sc.define(g.Out, pos)})
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

// OnDrop attaches a drop to the level at which its value's last use
// completes, or to the pre-drops of the run it falls in (or of the next
// run, between runs) when that point has already passed a barrier.
func (sc *scheduler) OnDrop(w uint32) error {
	sc.digest.OnDrop(w)
	v := sc.lookup(w)
	if v == nil {
		// Advisory drop of a wire that carries no value: ignore,
		// matching the Sink contract.
		return nil
	}
	v.live = false
	key := int32(0)
	if sc.open && v.last >= sc.at {
		key = 1 + v.last - sc.at
	}
	sc.drops = append(sc.drops, v.id)
	sc.dropKeys = append(sc.dropKeys, key)
	return nil
}

// OnInputs records an input step of fresh wires.
func (sc *scheduler) OnInputs(p Party, ws []uint32) error {
	sc.digest.OnInputs(p, ws)
	ssaWires := make([]uint32, len(ws))
	sc.barrierStep(StepInputs, p, ssaWires)
	for i, w := range ws {
		if sc.lookup(w) != nil {
			return fmt.Errorf("circuit: input step declares live wire %d", w)
		}
		ssaWires[i] = sc.define(w, sc.at)
		sc.vals[w].evalIn = p == Evaluator
	}
	return nil
}

// OnOutputs records an output step.
func (sc *scheduler) OnOutputs(ws []uint32) error {
	sc.digest.OnOutputs(ws)
	ssaWires := make([]uint32, len(ws))
	for i, w := range ws {
		v := sc.lookup(w)
		if v == nil {
			return fmt.Errorf("circuit: output step reads dead wire %d", w)
		}
		ssaWires[i] = v.id
	}
	sc.barrierStep(StepOutputs, 0, ssaWires)
	for _, w := range ws {
		sc.vals[w].last = max(sc.vals[w].last, sc.at)
	}
	return nil
}

// sized returns buf with length n, keeping its contents, and its array
// while that is large enough. A larger array is one allocation in the
// race detector's build too, which allocates append(buf, make(...)...)'s
// make as well as the grown array.
func sized[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return append(make([]T, 0, n), buf[:cap(buf)]...)[:n]
}

// rename walks the SSA fragment in execution order and assigns compact
// wire ids with a level-aware free list: an id released by a level-L drop
// becomes allocatable at level L+1 (never inside L, where its old value
// may still be read concurrently). Each run's gates are first bucketed by
// (level, kind) into their place in Schedule.Gates, and its drops by level,
// both with a stable counting sort, so each bucket keeps arrival order. The
// free list, the ids handed out and the AND count carry on to the next
// fragment.
func (sc *scheduler) rename() *Schedule {
	levels, widest := 0, 0
	for _, r := range sc.runs {
		levels += int(r.levels)
		widest = max(widest, int(r.levels))
	}
	sc.levels = sized(sc.levels, levels)[:0]
	sc.out = sized(sc.out, len(sc.gates))
	sc.outDrops = sized(sc.outDrops, len(sc.drops))
	sc.gateEnds = sized(sc.gateEnds, 3*widest) // per level: full ANDs, half ANDs, free gates
	sc.dropEnds = sized(sc.dropEnds, 1+widest) // pre-drops, then per level
	sc.renamed = sized(sc.renamed, int(sc.nssa))
	s := &Schedule{Steps: sc.steps, Levels: sc.levels, Gates: sc.out}
	drops, renamed := sc.outDrops, sc.renamed
	renamed[WTrue] = WTrue
	next, free := sc.next, sc.free
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
			gates, ends := s.Gates[r.gates:gateHi], sc.gateEnds[:3*n]
			bucket(sc.gates[r.gates:gateHi], gates, sc.gateKeys[r.gates:gateHi], ends)
			ds, dends := drops[r.drops:dropHi], sc.dropEnds[:1+n]
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
					GIDBase: sc.gid + uint64(s.ANDs),
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
	sc.next, sc.free = next, free
	sc.gid += uint64(s.ANDs)
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

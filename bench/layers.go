package main

import (
	crand "crypto/rand"
	"fmt"
	"net"
	"runtime"
	"time"

	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/sched"
	"deepsecure/internal/transport"
)

// chunkBytes is the table-streaming chunk the sessions use (the default
// of core.EngineConfig.ChunkBytes).
const chunkBytes = 1 << 20

// The B=16 kernel measurement is bounded in time and memory: it stops once
// batchGateBudget gate instances (gates × samples) are garbled, which
// covers every workload's whole schedule except b3c_lan's, and it garbles
// levels wider than batchCallANDs in calls of that many AND gates, so the
// table buffer stays at 32 MB where b3c_lan's widest level would need 1.2 GB.
const (
	batchGateBudget = 16 << 20
	batchCallANDs   = 1 << 16
)

// layerPass times each module's public API directly, with the workload's
// own compiled program and sizes and nothing else running: what each layer
// costs alone, to set against what the session achieves.
func layerPass(w *workload, model *nn.Network, seed int64, tr *tracer, parent int) (map[string]metric, error) {
	m := map[string]metric{}

	// netgen and circuit: compile, schedule, sizes, residency.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prog *netgen.Program
	compile, err := timed(tr, "netgen.compile", parent, -1, func(int) (err error) {
		prog, err = netgen.Compile(model, benchmarks.Format, netgen.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	// The two halves of Compile, each on its own.
	generate, err := timed(tr, "netgen.generate", parent, -1, func(int) error {
		b := circuit.NewBuilder(circuit.NewTape(), circuit.WithRecycling())
		if _, err := netgen.Generate(b, model, benchmarks.Format, netgen.Options{}); err != nil {
			return err
		}
		return b.Err()
	})
	if err != nil {
		return nil, err
	}
	schedule, err := timed(tr, "circuit.schedule", parent, -1, func(int) error {
		_, err := circuit.NewSchedule(prog.Tape)
		return err
	})
	if err != nil {
		return nil, err
	}
	s := prog.Schedule
	ands, frees := prog.Stats.NonXOR(), prog.Stats.FreeXOR()
	gates := float64(ands + frees)
	inputSteps, evalBits := 0, 0
	for i := range s.Steps {
		if st := &s.Steps[i]; st.Kind == circuit.StepInputs {
			inputSteps++
			if st.Party == circuit.Evaluator {
				evalBits += len(st.Wires)
			}
		}
	}
	m["netgen.compile_s"] = metric{compile.Seconds(), "s"}
	m["netgen.generate_s"] = metric{generate.Seconds(), "s"}
	m["netgen.and_gates"] = metric{float64(ands), "count"}
	m["netgen.free_gates"] = metric{float64(frees), "count"}
	m["netgen.alloc_mb"] = metric{allocMB, "MB"}
	m["circuit.schedule_s"] = metric{schedule.Seconds(), "s"}
	m["circuit.levels"] = metric{float64(s.NumLevels()), "count"}
	m["circuit.max_level_ands"] = metric{float64(s.MaxLevelANDs), "count"}
	m["circuit.mean_ands_per_level"] = metric{float64(s.ANDs) / float64(s.NumLevels()), "count"}
	m["circuit.input_steps"] = metric{float64(inputSteps), "count"}
	m["circuit.resident_bytes_per_gate"] = metric{resident / gates, "B"}

	// gc: the whole schedule through the SoA level kernels, no transport.
	one := gc.NewPool(1)
	var g *garbling
	garble, err := timed(tr, "gc.garble_w1", parent, -1, func(int) (err error) {
		g, err = garbleSchedule(s, 1, one, true, 0, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	eval, err := timed(tr, "gc.eval_w1", parent, -1, func(int) error { return evaluateSchedule(s, g, one) })
	if err != nil {
		return nil, err
	}
	g = nil
	// The same with one worker per CPU: the run itself may hold GOMAXPROCS
	// below that (-procs), so this one measurement raises it and brings a
	// scheduler of that width of its own.
	ncpu := runtime.NumCPU()
	wide := sched.New(ncpu)
	procs := runtime.GOMAXPROCS(ncpu)
	garbleN, err := timed(tr, "gc.garble_wN", parent, -1, func(int) error {
		_, err := garbleSchedule(s, 1, gc.NewSharedPool(wide, ncpu), false, 0, 0)
		return err
	})
	wide.Close()
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	var g16 *garbling
	garble16, err := timed(tr, "gc.garble_b16", parent, -1, func(int) (err error) {
		g16, err = garbleSchedule(s, 16, one, false, batchGateBudget, batchCallANDs)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["gc.garble_s"] = metric{garble.Seconds(), "s"}
	m["gc.eval_s"] = metric{eval.Seconds(), "s"}
	m["gc.garble_w1_mgates_per_s"] = metric{gates / garble.Seconds() / 1e6, "Mgates/s"}
	m["gc.garble_wN_mgates_per_s"] = metric{gates / garbleN.Seconds() / 1e6, "Mgates/s"}
	m["gc.eval_w1_mgates_per_s"] = metric{gates / eval.Seconds() / 1e6, "Mgates/s"}
	m["gc.batch16_garble_mgates_per_s"] = metric{float64(g16.gates) / garble16.Seconds() / 1e6, "Mgates/s"}

	// transport: one operation's table bytes as chunk frames over loopback.
	tableBytes := int(ands) * gc.TableSize * w.batch
	frames, stream, streamAlloc, err := streamTables(tr, parent, tableBytes)
	if err != nil {
		return nil, err
	}
	m["transport.stream_s"] = metric{stream.Seconds() / float64(w.batch), "s"}
	m["transport.mb_per_s"] = metric{float64(tableBytes) / 1e6 / stream.Seconds(), "MB/s"}
	m["transport.frames_per_infer"] = metric{float64(frames) / float64(w.batch), "count"}
	m["transport.alloc_mb_per_infer"] = metric{streamAlloc / 1e6 / float64(w.batch), "MB"}

	// ot and precomp: base phase, extension, pool fill, derandomisation.
	if err := otLayers(m, w, s, evalBits, tr, parent); err != nil {
		return nil, err
	}
	m["precomp.ots_per_infer"] = metric{float64(evalBits), "count"}

	// sched: the cost of one fan-out on the shared scheduler.
	const dispatches = 2000
	dispatch, err := timed(tr, "sched.dispatch", parent, -1, func(int) error {
		for i := 0; i < dispatches; i++ {
			if err := sched.Default().Do(procs, func(int) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["sched.dispatch_us"] = metric{dispatch.Seconds() * 1e6 / dispatches, "us"}
	m["sched.workers"] = metric{float64(sched.Default().Workers()), "count"}

	// nn: the plaintext reference the labels are checked against.
	const predictions = 50
	xs := inputs(seed, 0, predictions, model.In.Len())
	predict, _ := timed(tr, "nn.predict_fixed", parent, -1, func(int) error {
		for _, x := range xs {
			model.PredictFixed(benchmarks.Format, x)
		}
		return nil
	})
	m["nn.predict_fixed_ms"] = metric{predict.Seconds() * 1e3 / predictions, "ms"}
	return m, nil
}

// garbling is what one replay of a schedule through the garbler leaves
// behind: enough for the evaluator to replay it too.
type garbling struct {
	g      *gc.BatchGarbler
	tables []byte     // every level's table block, in schedule order (nil unless kept)
	inputs []gc.Label // the active label of every input wire, in step and wire order
	gates  int64      // gate instances garbled (gates × samples)
}

// garbleSchedule replays the schedule through BatchGarbler.GarbleLevel
// with batch b on pool, every input bit zero, one call per level as the
// engines make them. With keep the tables stay in memory for
// evaluateSchedule; otherwise one buffer is reused. A budget > 0 stops the
// replay once that many gate instances have been garbled, and callANDs > 0
// splits wider levels into calls of at most that many AND gates (the gates
// of a level are independent, so any split garbles the same tables).
func garbleSchedule(s *circuit.Schedule, b int, pool *gc.Pool, keep bool, budget int64, callANDs int) (*garbling, error) {
	g, err := gc.NewBatchGarbler(crand.Reader, b)
	if err != nil {
		return nil, err
	}
	g.Grow(s.NumWires)
	out := &garbling{g: g}
	if callANDs <= 0 {
		callANDs = s.MaxLevelANDs
	}
	var buf []byte
	if keep {
		out.tables = make([]byte, 0, int(s.ANDs)*b*gc.TableSize)
	} else {
		buf = make([]byte, min(callANDs, s.MaxLevelANDs)*b*gc.TableSize)
	}
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			for _, w := range st.Wires {
				if err := g.AssignInput(w); err != nil {
					return nil, err
				}
				if keep {
					l, err := g.ZeroLabel(w, 0)
					if err != nil {
						return nil, err
					}
					out.inputs = append(out.inputs, l)
				}
			}
		case circuit.StepLevels:
			for _, w := range st.PreDrops {
				g.Drop(w)
			}
			for li := st.First; li < st.First+st.N; li++ {
				lv := &s.Levels[li]
				ands, frees := s.LevelGates(lv)
				for lo := 0; lo == 0 || lo < len(ands); lo += callANDs {
					part := ands[lo:min(lo+callANDs, len(ands))]
					need := len(part) * b * gc.TableSize
					var block []byte
					if keep {
						off := len(out.tables)
						out.tables = out.tables[:off+need]
						block = out.tables[off:]
					} else {
						block = buf[:need]
					}
					if err := g.GarbleLevel(part, frees, lv.GIDBase+uint64(lo), block, pool); err != nil {
						return nil, err
					}
					out.gates += int64((len(part) + len(frees)) * b)
					frees = nil // the level's free gates went with its first call
					if budget > 0 && out.gates >= budget {
						return out, nil
					}
				}
				for _, w := range lv.Drops {
					g.Drop(w)
				}
			}
		}
	}
	return out, nil
}

// evaluateSchedule replays the schedule through
// BatchEvaluator.EvaluateLevel over the tables of a kept B=1 garbling, and
// checks that every output label is one of the garbler's two labels for
// that wire.
func evaluateSchedule(s *circuit.Schedule, g *garbling, pool *gc.Pool) error {
	e, err := gc.NewBatchEvaluator(1)
	if err != nil {
		return err
	}
	e.Grow(s.NumWires)
	for w, bit := range map[uint32]bool{circuit.WFalse: false, circuit.WTrue: true} {
		l, err := g.g.ActiveLabel(w, 0, bit)
		if err != nil {
			return err
		}
		e.SetLabel(w, 0, l)
	}
	inputs, tables := g.inputs, g.tables
	for si := range s.Steps {
		st := &s.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			for _, w := range st.Wires {
				e.SetLabel(w, 0, inputs[0])
				inputs = inputs[1:]
			}
		case circuit.StepLevels:
			for _, w := range st.PreDrops {
				e.Drop(w)
			}
			for li := st.First; li < st.First+st.N; li++ {
				lv := &s.Levels[li]
				ands, frees := s.LevelGates(lv)
				need := lv.ANDs * gc.TableSize
				if err := e.EvaluateLevel(ands, frees, lv.GIDBase, tables[:need], pool); err != nil {
					return err
				}
				tables = tables[need:]
				for _, w := range lv.Drops {
					e.Drop(w)
				}
			}
		case circuit.StepOutputs:
			for _, w := range st.Wires {
				got, err := e.Label(w, 0)
				if err != nil {
					return err
				}
				zero, err := g.g.ZeroLabel(w, 0)
				if err != nil {
					return err
				}
				if got != zero && got != zero.XOR(g.g.R[0]) {
					return fmt.Errorf("gc replay: output wire %d evaluated to a label the garbler never made", w)
				}
			}
		}
	}
	return nil
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair() (a, b net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b, err = ln.Accept()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// streamTables sends n table bytes as chunk frames through
// transport.Conn.Send over loopback TCP and reads them back with
// ReadFrame. It returns the frame count, the time until the reader had
// them all, and the bytes allocated meanwhile (ReadFrame makes a fresh
// buffer per frame).
func streamTables(tr *tracer, parent, n int) (frames int, d time.Duration, allocBytes float64, err error) {
	a, b, err := loopbackPair()
	if err != nil {
		return 0, 0, 0, err
	}
	defer a.Close()
	defer b.Close()
	tx, rx := transport.New(a), transport.New(b)
	chunk := make([]byte, chunkBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err = timed(tr, "transport.stream", parent, -1, func(int) error {
		sent := make(chan error, 1)
		go func() {
			for left := n; left > 0; left -= len(chunk) {
				if err := tx.Send(transport.MsgTables, chunk[:min(left, len(chunk))]); err != nil {
					sent <- err
					return
				}
			}
			sent <- tx.Flush()
		}()
		var rerr error
		for got := 0; got < n && rerr == nil; frames++ {
			var payload []byte
			_, payload, rerr = rx.ReadFrame()
			got += len(payload)
		}
		if rerr != nil {
			b.Close() // unblock the sender
		}
		if serr := <-sent; rerr == nil {
			rerr = serr
		}
		return rerr
	})
	runtime.ReadMemStats(&after)
	return frames, d, float64(after.TotalAlloc - before.TotalAlloc), err
}

// otLayers times the OT stack on its own loopback connection, sender and
// receiver as the two goroutines a session would run: the base phase, one
// direct IKNP extension of an inference's evaluator-input bits, the pool
// fill at the workload's capacity, and one inference's input steps served
// from the warm pool.
func otLayers(m map[string]metric, w *workload, s *circuit.Schedule, evalBits int, tr *tracer, parent int) error {
	a, b, err := loopbackPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	sc, rc := transport.New(a), transport.New(b)

	// both runs the two parties of one exchange and returns when both have.
	both := func(name string, send, recv func() error) (time.Duration, error) {
		return timed(tr, name, parent, -1, func(int) error {
			done := make(chan error, 1)
			go func() { done <- send() }()
			rerr := recv()
			if rerr != nil {
				a.Close() // unblock the sender
			}
			if serr := <-done; rerr == nil {
				rerr = serr
			}
			return rerr
		})
	}

	var es *ot.ExtSender
	var er *ot.ExtReceiver
	base, err := both("ot.base",
		func() (err error) { es, err = ot.NewExtSender(sc, crand.Reader); return err },
		func() (err error) { er, err = ot.NewExtReceiver(rc, crand.Reader); return err })
	if err != nil {
		return err
	}
	pairs, choices := make([][2]ot.Msg, evalBits*w.batch), make([]bool, evalBits*w.batch)
	ext, err := both("ot.ext",
		func() error { return es.Send(pairs) },
		func() error { _, err := er.Receive(choices); return err })
	if err != nil {
		return err
	}
	sp := precomp.NewSenderPool(sc, es, crand.Reader)
	rp := precomp.NewReceiverPool(rc, er, crand.Reader, precomp.PoolConfig{Capacity: w.otPool, Background: true})
	defer rp.Abort()
	fill, err := both("precomp.fill", sp.HandleAnnounce, rp.Announce)
	if err != nil {
		return err
	}
	// One operation's evaluator-input steps, each one exchange as in the
	// engines: all samples of a batch share the step's exchange.
	var steps []int
	for i := range s.Steps {
		if st := &s.Steps[i]; st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator {
			steps = append(steps, len(st.Wires)*w.batch)
		}
	}
	derand, err := both("precomp.derand",
		func() error {
			for _, n := range steps {
				if err := sp.Send(pairs[:n]); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for _, n := range steps {
				if _, err := rp.Receive(choices[:n]); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	m["ot.base_s"] = metric{base.Seconds(), "s"}
	m["ot.ext_s"] = metric{ext.Seconds(), "s"}
	m["ot.ext_ots_per_s"] = metric{float64(len(pairs)) / ext.Seconds(), "1/s"}
	m["precomp.fill_s"] = metric{fill.Seconds(), "s"}
	m["precomp.derand_s"] = metric{derand.Seconds(), "s"}
	return nil
}

package deepsecure

// Benchmark harness: the timed experiments of the paper's evaluation
// section (§4: Table 6, Figures 5 and 6), their outputs attached as custom
// benchmark metrics. Tables 3-5 are gate counts, not timings:
// `deepsecure-bench -table 3|4|5` prints them and the CI golden file pins
// them.
//
// Session-level and kernel performance are measured by the live benchmark
// in bench/ (`bash bench/run.sh`, BENCHMARK.json; its gc.* and ot.* rows
// are the kernels), not here.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/core"
	"deepsecure/internal/costmodel"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/hebaseline"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/transport"
)

// BenchmarkTable6CryptoNets measures the HE baseline's constant per-batch
// cost on a scaled-down ring (deepsecure-bench -table 6 -hesize 8192 runs
// the paper's ring dimension).
func BenchmarkTable6CryptoNets(b *testing.B) {
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(1024))
	if err != nil {
		b.Fatal(err)
	}
	var batch float64
	for i := 0; i < b.N; i++ {
		costs, err := hebaseline.MeasureOpCosts(scheme, 1)
		if err != nil {
			b.Fatal(err)
		}
		batch = hebaseline.BatchSeconds(hebaseline.Benchmark1Counts(), costs)
	}
	b.ReportMetric(batch, "batchS")
	b.ReportMetric(float64(scheme.Slots()), "slots")
}

// BenchmarkTable6DeepSecureLive runs a real secure inference end-to-end
// (a mid-size DNN so a bench iteration stays in seconds) and reports the
// per-sample wall time and traffic that enter the Table 6 comparison.
func BenchmarkTable6DeepSecureLive(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(128),
		nn.NewDense(32),
		nn.NewActivation(act.TanhCORDIC),
		nn.NewDense(10),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(1)))
	x := make([]float64, 128)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	b.ResetTimer()
	var st *core.Stats
	for i := 0; i < b.N; i++ {
		cConn, sConn, closer := transport.Pipe()
		srv := &core.Server{Net: net, Fmt: fixed.Default}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(sConn); err != nil {
				b.Error(err)
			}
		}()
		cli := &core.Client{}
		_, st, err = cli.Infer(cConn, x)
		wg.Wait()
		closer.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.ANDGates), "ANDgates")
	b.ReportMetric(float64(st.BytesSent)/1e6, "sentMB")
	b.ReportMetric(st.Duration.Seconds(), "sessionS")
}

// BenchmarkFigure6Crossover computes the delay curves and break-even
// points of Figure 6 from a quick HE measurement plus the GC cost model.
func BenchmarkFigure6Crossover(b *testing.B) {
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(1024))
	if err != nil {
		b.Fatal(err)
	}
	costs, err := hebaseline.MeasureOpCosts(scheme, 1)
	if err != nil {
		b.Fatal(err)
	}
	cnBatch := hebaseline.BatchSeconds(hebaseline.Benchmark1Counts(), costs)
	slots := costs.Slots
	co := costmodel.Paper()
	b1, err := benchmarks.B1()
	if err != nil {
		b.Fatal(err)
	}
	full, _, err := netgen.FastCount(b1, benchmarks.Format, netgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cNet, err := benchmarks.Compacted(benchmarks.All[0])
	if err != nil {
		b.Fatal(err)
	}
	post, _, err := netgen.FastCount(cNet, benchmarks.Format, netgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var c1, c2 int
	for i := 0; i < b.N; i++ {
		c1 = costmodel.Crossover(costmodel.FromStats(full, co).ExecS, cnBatch, slots, 4*slots)
		c2 = costmodel.Crossover(costmodel.FromStats(post, co).ExecS, cnBatch, slots, 4*slots)
	}
	b.ReportMetric(float64(c1), "crossNoPrep")
	b.ReportMetric(float64(c2), "crossPrep")
	b.ReportMetric(cnBatch, "cnBatchS")
}

// BenchmarkFigure5Pipeline demonstrates the §4.4/Fig. 5 overlap: the
// pipelined protocol (garbling streams into evaluation) versus garbling
// and evaluating strictly in sequence.
func BenchmarkFigure5Pipeline(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(5)))
	tape := circuit.NewTape()
	if _, err := netgen.Generate(circuit.NewBuilder(tape, circuit.WithRecycling()), net, fixed.Default, netgen.Options{RawScores: true}); err != nil {
		b.Fatal(err)
	}
	s, err := circuit.NewSchedule(tape)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("engineOnly", func(b *testing.B) {
		var garbleNs, evalNs int64
		pool := gc.NewPool(1)
		for i := 0; i < b.N; i++ {
			gb, err := gc.NewBatchGarbler(rand.New(rand.NewSource(9)), 1)
			if err != nil {
				b.Fatal(err)
			}
			ev, err := gc.NewBatchEvaluator(1)
			if err != nil {
				b.Fatal(err)
			}
			gb.Grow(s.NumWires)
			ev.Grow(s.NumWires)
			for _, w := range []uint32{circuit.WFalse, circuit.WTrue} {
				l, _ := gb.ActiveLabel(w, 0, w == circuit.WTrue)
				ev.SetLabel(w, 0, l)
			}
			// Phase 1: garble everything, keeping every input step's labels.
			// Phase 2: evaluate everything.
			var tables []byte
			var inputs [][]gc.Label
			t0 := nowNs()
			for si := range s.Steps {
				st := &s.Steps[si]
				switch st.Kind {
				case circuit.StepInputs:
					if err := gb.AssignInputs(st.Wires, st.Party == circuit.Evaluator); err != nil {
						b.Fatal(err)
					}
					labels := make([]gc.Label, len(st.Wires))
					for k, w := range st.Wires {
						labels[k], _ = gb.ActiveLabel(w, 0, false)
					}
					inputs = append(inputs, labels)
				case circuit.StepLevels:
					for li := st.First; li < st.First+st.N; li++ {
						lv := &s.Levels[li]
						ands, frees := s.LevelGates(lv)
						off := len(tables)
						tables = append(tables, make([]byte, lv.TableBytes())...)
						if err := gb.GarbleLevel(ands, frees, lv.GIDBase, tables[off:], pool); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			t1 := nowNs()
			rest := tables
			for si := range s.Steps {
				st := &s.Steps[si]
				switch st.Kind {
				case circuit.StepInputs:
					for k, w := range st.Wires {
						ev.SetLabel(w, 0, inputs[0][k])
					}
					inputs = inputs[1:]
				case circuit.StepLevels:
					for li := st.First; li < st.First+st.N; li++ {
						lv := &s.Levels[li]
						ands, frees := s.LevelGates(lv)
						n := lv.TableBytes()
						if err := ev.EvaluateLevel(ands, frees, lv.GIDBase, rest[:n], pool); err != nil {
							b.Fatal(err)
						}
						rest = rest[n:]
					}
				}
			}
			t2 := nowNs()
			garbleNs += t1 - t0
			evalNs += t2 - t1
		}
		b.ReportMetric(float64(garbleNs)/float64(b.N)/1e6, "garbleMs")
		b.ReportMetric(float64(evalNs)/float64(b.N)/1e6, "evalMs")
	})
	// The full protocol overlaps the evaluator's work with the garbler's
	// streaming (Fig. 5); its extra cost over engineOnly is OT + framing,
	// while its two phases run concurrently instead of back to back.
	b.Run("fullProtocolPipelined", func(b *testing.B) {
		x := make([]float64, 64)
		for i := 0; i < b.N; i++ {
			cConn, sConn, closer := transport.Pipe()
			srv := &core.Server{Net: net, Fmt: fixed.Default}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := srv.Serve(sConn); err != nil {
					b.Error(err)
				}
			}()
			cli := &core.Client{}
			if _, _, err := cli.Infer(cConn, x); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
			closer.Close()
		}
	})
}

// BenchmarkHEPrimitives measures the HE baseline's primitive costs.
func BenchmarkHEPrimitives(b *testing.B) {
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(1024))
	if err != nil {
		b.Fatal(err)
	}
	sk, pk := scheme.KeyGen()
	vals := make([]int64, scheme.Slots())
	pt, err := scheme.EncodeSlots(vals)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := scheme.Encrypt(pk, pt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.Encrypt(pk, pt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ScalarMAC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.Add(ct, scheme.MulScalar(ct, 17))
		}
	})
	b.Run("Square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.Mul(ct, ct)
		}
	})
	b.Run("Decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.Decrypt(sk, ct)
		}
	})
}

// BenchmarkOutsourcingOverhead verifies §3.3's "almost free" claim: the
// share-recombination layer adds XOR gates only.
func BenchmarkOutsourcingOverhead(b *testing.B) {
	net, err := benchmarks.B3()
	if err != nil {
		b.Fatal(err)
	}
	var plain, outs circuit.Stats
	for i := 0; i < b.N; i++ {
		plain, _, err = netgen.FastCount(net, benchmarks.Format, netgen.Options{})
		if err != nil {
			b.Fatal(err)
		}
		outs, _, err = netgen.FastCount(net, benchmarks.Format, netgen.Options{Outsourced: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(outs.NonXOR()-plain.NonXOR()), "extraNonXOR")
	b.ReportMetric(float64(outs.XOR-plain.XOR), "extraXOR")
}

func nowNs() int64 { return time.Now().UnixNano() }

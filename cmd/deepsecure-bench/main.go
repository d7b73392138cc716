// deepsecure-bench regenerates every table and figure of the paper's
// evaluation section (§4) on this machine:
//
//	deepsecure-bench -table 3        circuit components (gates + error)
//	deepsecure-bench -table 4        benchmarks 1-4 without pre-processing
//	deepsecure-bench -table 5        benchmarks 1-4 with pre-processing
//	deepsecure-bench -table 6        DeepSecure vs CryptoNets (benchmark 1)
//	deepsecure-bench -figure 6       delay vs batch size + crossovers
//	deepsecure-bench -calibrate      §4.3 per-gate cost characterization
//	deepsecure-bench -live           real end-to-end GC run of benchmark 3 (§3.3 streaming deployment)
//	deepsecure-bench -all            everything
//
// Each row prints this run's measurement next to the paper's published
// number.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"deepsecure"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/cordic"
	"deepsecure/internal/costmodel"
	"deepsecure/internal/fixed"
	"deepsecure/internal/hebaseline"
	"deepsecure/internal/netgen"
)

func main() {
	table := flag.Int("table", 0, "regenerate Table 3|4|5|6")
	figure := flag.Int("figure", 0, "regenerate Figure 6")
	calibrate := flag.Bool("calibrate", false, "run the §4.3 per-gate calibration")
	live := flag.Bool("live", false, "run a real end-to-end GC inference of benchmark 3 (proxy garbles, server evaluates, streaming)")
	all := flag.Bool("all", false, "run everything")
	flag.Parse()

	if *all {
		*calibrate = true
	}
	co := costmodel.Paper()
	if *calibrate || *all {
		fmt.Println("== Calibration (§4.3) ==")
		measured, err := costmodel.Calibrate(200000)
		if err != nil {
			log.Fatal(err)
		}
		xput, nput := costmodel.Throughput(measured)
		fmt.Printf("this machine: XOR %.1f ns/gate, non-XOR %.1f ns/gate, half AND %.1f ns/gate (%s)\n",
			measured.XORNs, measured.NonXORNs, measured.HalfANDNs, measured.Source)
		fmt.Printf("throughput: %.2fM XOR/s, %.2fM non-XOR/s (paper: 5.11M / 2.56M)\n",
			xput/1e6, nput/1e6)
		co = measured
		fmt.Println()
	}

	ran := false
	if *table == 3 || *all {
		runTable3()
		ran = true
	}
	if *table == 4 || *all {
		runTable45(co, false)
		ran = true
	}
	if *table == 5 || *all {
		runTable45(co, true)
		ran = true
	}
	if *table == 6 || *figure == 6 || *all {
		runTable6Figure6(co, *figure == 6 || *all)
		ran = true
	}
	if *live || *all {
		runLiveB3()
		ran = true
	}
	if !ran && !*calibrate {
		flag.Usage()
		os.Exit(2)
	}
}

// runTable3 prints the circuit-component table: gate counts from our
// synthesis library plus the measured approximation error.
func runTable3() {
	fmt.Println("== Table 3: GC-optimized DL circuit components (16-bit Q3.12) ==")
	fmt.Printf("%-16s %10s %10s %10s %12s %12s   %s\n", "Name", "#XOR", "#non-XOR", "#ciphertxt", "MaxError", "MeanError", "paper #non-XOR (x2 ciphertexts)")
	f := fixed.Default

	for _, c := range benchmarks.Table3 {
		s, err := circuit.Count(func(b *circuit.Builder) { c.Gen(b, f) })
		if err != nil {
			log.Fatal(err)
		}
		maxErr, meanErr := "-", "-"
		if worst, mean, ok := c.Error(f); ok && worst == 0 {
			maxErr, meanErr = "0", "0"
		} else if ok {
			maxErr, meanErr = fmt.Sprintf("%.2e", worst), fmt.Sprintf("%.2e", mean)
		}
		fmt.Printf("%-16s %10d %10d %10d %12s %12s   %s\n", c.Name, s.FreeXOR(), s.NonXOR(), s.Ciphertexts(), maxErr, meanErr, c.Paper)
	}
	cols, centre := fixed.MulTruncation(f.FracBits)
	fmt.Printf("(MULT/MVM: the weight operand is the evaluator's own input, as in every MAC of a model, recoded to radix-4 Booth digits, so each partial-product bit is two half ANDs of one ciphertext each; a truncated product — the array bits of the %d lowest of the %d fraction columns are replaced by the constant %d, fixed.Num.Mul being the same function; its error is against the floor of the real product, 1 ulp = %.2e)\n",
		cols, f.FracBits, centre, 1/f.Scale())
	e, err := cordic.New(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(CORDIC schedule: %d iterations incl. range expansion)\n\n", e.Iterations())
}

// runTable45 prints the benchmark rows with or without pre-processing.
func runTable45(co costmodel.Coefficients, compacted bool) {
	if compacted {
		fmt.Println("== Table 5: benchmarks WITH data + network pre-processing ==")
	} else {
		fmt.Println("== Table 4: benchmarks WITHOUT pre-processing ==")
	}
	fmt.Printf("%-12s %10s %10s %10s %10s %9s %9s   %s\n",
		"Name", "#XOR", "#non-XOR", "#ciphertxt", "Comm(MB)", "Comp(s)", "Exec(s)", "paper exec")
	for _, b := range benchmarks.All {
		net, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		paperExec := b.Paper.ExecS
		if compacted {
			net, err = benchmarks.Compacted(b)
			if err != nil {
				log.Fatal(err)
			}
			paperExec = b.Paper.PostExecS
		}
		s, _, err := netgen.FastCount(net, benchmarks.Format, netgen.Options{})
		if err != nil {
			log.Fatal(err)
		}
		est := costmodel.FromStats(s, co)
		fmt.Printf("%-12s %10.3g %10.3g %10.3g %10.1f %9.2f %9.2f   %.2f\n",
			b.Name, float64(est.XOR), float64(est.NonXOR), float64(est.Ciphertexts), est.CommMB, est.CompS, est.ExecS, paperExec)
	}
	if compacted {
		fmt.Println("improvement folds (ours vs paper):")
		for _, b := range benchmarks.All {
			net, _ := b.Build()
			full, _, err := netgen.FastCount(net, benchmarks.Format, netgen.Options{})
			if err != nil {
				log.Fatal(err)
			}
			cNet, _ := benchmarks.Compacted(b)
			post, _, err := netgen.FastCount(cNet, benchmarks.Format, netgen.Options{})
			if err != nil {
				log.Fatal(err)
			}
			fold := costmodel.FromStats(full, co).ExecS / costmodel.FromStats(post, co).ExecS
			fmt.Printf("  %s: %.2fx (paper %.2fx)\n", b.Name, fold, b.Paper.Improvement)
		}
	}
	fmt.Println()
}

// heSize is the HE ring dimension of the CryptoNets measurements.
const heSize = 2048

// runTable6Figure6 measures the HE baseline and prints the comparison.
func runTable6Figure6(co costmodel.Coefficients, withFigure bool) {
	fmt.Println("== Table 6: DeepSecure vs CryptoNets (benchmark 1, per sample) ==")
	b1 := benchmarks.All[0]
	net, err := b1.Build()
	if err != nil {
		log.Fatal(err)
	}
	full, _, err := netgen.FastCount(net, benchmarks.Format, netgen.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cNet, err := benchmarks.Compacted(b1)
	if err != nil {
		log.Fatal(err)
	}
	post, _, err := netgen.FastCount(cNet, benchmarks.Format, netgen.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dsFull := costmodel.FromStats(full, co)
	dsPost := costmodel.FromStats(post, co)

	fmt.Printf("measuring CryptoNets-style HE ops at N=%d (this may take a minute)...\n", heSize)
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(heSize))
	if err != nil {
		log.Fatal(err)
	}
	costs, err := hebaseline.MeasureOpCosts(scheme, 3)
	if err != nil {
		log.Fatal(err)
	}
	counts := hebaseline.Benchmark1Counts()
	cnBatch := hebaseline.BatchSeconds(counts, costs)
	slots := costs.Slots

	fmt.Printf("%-28s %10s %10s %10s\n", "Framework", "Comm(MB)", "Comp(s)", "Exec(s)")
	fmt.Printf("%-28s %10.1f %10.2f %10.2f   (paper: 791MB, 1.98s, 9.67s)\n",
		"DeepSecure w/o pre-p", dsFull.CommMB, dsFull.CompS, dsFull.ExecS)
	fmt.Printf("%-28s %10.1f %10.2f %10.2f   (paper: 88.2MB, 0.22s, 1.08s)\n",
		"DeepSecure w/ pre-p", dsPost.CommMB, dsPost.CompS, dsPost.ExecS)
	fmt.Printf("%-28s %10s %10.2f %10.2f   (paper: 570.11s; %d slots/batch)\n",
		fmt.Sprintf("CryptoNets (N=%d)", slots), "small", cnBatch, cnBatch, slots)
	fmt.Printf("per-sample improvement: %.1fx w/o pre-p, %.1fx w/ pre-p (paper: 58.96x / 527.88x)\n\n",
		cnBatch/dsFull.ExecS, cnBatch/dsPost.ExecS)

	if withFigure {
		fmt.Println("== Figure 6: expected processing delay vs client batch size ==")
		fmt.Printf("%8s %16s %16s %16s\n", "N", "DS w/o pre-p", "DS w/ pre-p", "CryptoNets")
		for _, n := range []int{1, 10, 100, 288, 1000, 2590, 5000, slots, slots + 1, 2 * slots} {
			fmt.Printf("%8d %16.1f %16.1f %16.1f\n", n,
				costmodel.DelayDeepSecure(n, dsFull.ExecS),
				costmodel.DelayDeepSecure(n, dsPost.ExecS),
				costmodel.DelayCryptoNets(n, slots, cnBatch))
		}
		c1 := costmodel.Crossover(dsFull.ExecS, cnBatch, slots, 4*slots)
		c2 := costmodel.Crossover(dsPost.ExecS, cnBatch, slots, 4*slots)
		p := func(c int) string {
			if c == math.MaxInt32 {
				return "never (within scan)"
			}
			return fmt.Sprintf("%d", c)
		}
		fmt.Printf("crossover w/o pre-p: %s samples (paper marks 288)\n", p(c1))
		fmt.Printf("crossover w/ pre-p:  %s samples (paper marks 2590)\n", p(c2))
		fmt.Println()
	}
}

// runLiveB3 executes benchmark 3 end-to-end through the real GC protocol in
// its §3.3 streaming deployment: the proxy and the server each level the
// generator's stream a window at a time and garble or evaluate each
// fragment's levels as they come, the server as the tables arrive, so no
// party holds the 32.5 M-gate program (a compiled session does, and needs
// ~10 GB for it).
func runLiveB3() {
	fmt.Println("== Live run: benchmark 3 through the full GC protocol (proxy garbles, server evaluates) ==")
	model, err := benchmarks.B3()
	if err != nil {
		log.Fatal(err)
	}
	model.InitWeights(rand.New(rand.NewSource(3)))
	x := make([]float64, model.In.Len())
	rng := rand.New(rand.NewSource(4))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}

	clientProxy, proxyClient, c1 := deepsecure.Pipe()
	defer c1.Close()
	clientServer, serverClient, c2 := deepsecure.Pipe()
	defer c2.Close()
	// The garbled stream crosses a loopback socket, as it crosses the
	// network between the two servers: its buffers are bounded, so the peak
	// RSS this run reports is the parties', where an in-memory queue would
	// also hold however far the proxy runs ahead of the server (tens of MB,
	// by the host's scheduling).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ps, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer ps.Close()
	sp, err := ln.Accept()
	if err != nil {
		log.Fatal(err)
	}
	defer sp.Close()
	ln.Close()
	proxyServer, serverProxy := deepsecure.NewConn(ps), deepsecure.NewConn(sp)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := deepsecure.ServeOutsourced(serverProxy, serverClient, model, deepsecure.DefaultFormat); err != nil {
			log.Fatal("server: ", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := deepsecure.RunProxy(proxyClient, proxyServer); err != nil {
			log.Fatal("proxy: ", err)
		}
	}()
	start := time.Now()
	label, _, err := deepsecure.InferOutsourced(clientProxy, clientServer, x)
	if err != nil {
		log.Fatal("client: ", err)
	}
	wg.Wait()
	if want := model.PredictFixed(deepsecure.DefaultFormat, x); label != want {
		log.Fatalf("label %d, plaintext fixed-point model says %d", label, want)
	}
	st, _, err := netgen.FastCount(model, deepsecure.DefaultFormat, netgen.Options{Outsourced: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("label %d (matches the plaintext check), %v\n", label, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%d AND gates, %d ciphertexts, %.1f MB garbled stream (paper B3: 7.54e6 non-XOR = 1.51e7 ciphertexts, 241MB, 2.95s)\n\n",
		st.AND, st.Ciphertexts(), float64(proxyServer.Metrics().BytesSent.Value())/1e6)
}

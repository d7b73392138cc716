// deepsecure-demo is the secure-inference client for a quick smoke test of a
// running deepsecure-serve daemon over real TCP:
//
//	deepsecure-serve -listen :9090 -model b3
//	deepsecure-demo -connect host:9090 -model b3 -seed 7
//
// The daemon hosts a randomly initialized paper benchmark model (b1..b4
// or "small"); the client sends -n random samples and prints the labels.
// Use two terminals (or two machines) to watch the actual garbled-table
// stream cross the wire.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"deepsecure"
	"deepsecure/internal/benchmarks"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:9090", "daemon address")
	model := flag.String("model", "small", "b1|b2|b3|b4|small, the daemon's -model: sizes the samples")
	seed := flag.Int64("seed", 1, "sample seed")
	n := flag.Int("n", 1, "inferences to run on one session")
	batch := flag.Bool("batch", false, "fuse the -n samples into one batched inference")
	bankDepth := flag.Int("bank", 0, "pre-garble this many executions offline before inferring (garble-ahead bank depth; 0 = off)")
	flag.Parse()

	conn, err := net.Dial("tcp", *connect)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	// The samples are sized by model name; a daemon serving another width
	// is reported by the session ("sample 0 has N features, model wants M").
	m, err := benchmarks.ByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	xs := make([][]float64, *n)
	for j := range xs {
		xs[j] = make([]float64, m.In.Len())
		for i := range xs[j] {
			xs[j][i] = rng.Float64()*2 - 1
		}
	}
	var labels []int
	var st *deepsecure.InferStats
	var start time.Time
	if *bankDepth > 0 {
		// Garble-ahead path: open the session and fill the bank
		// before the clock starts, so the printed rate is the
		// online (label-selection + streaming) rate. The client draws
		// from crypto/rand, so the bank may refill itself in the
		// background once it runs low.
		cli := &deepsecure.Client{Engine: deepsecure.EngineConfig{
			Bank: deepsecure.BankConfig{Depth: *bankDepth, Background: true},
		}}
		defer cli.Close()
		fillStart := time.Now()
		sess, err := cli.NewSession(deepsecure.NewConn(conn))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bank: offline phase (session setup + %d pre-garbled execution(s)) took %v\n",
			*bankDepth, time.Since(fillStart).Round(time.Millisecond))
		start = time.Now()
		if *batch {
			labels, _, err = sess.InferBatch(xs)
		} else {
			ps := make([]*deepsecure.PendingInference, 0, len(xs))
			for _, x := range xs {
				p, perr := sess.InferAsync(x)
				if perr != nil {
					err = perr
					break
				}
				ps = append(ps, p)
			}
			for _, p := range ps {
				if err != nil {
					break
				}
				var label int
				label, _, err = p.Wait()
				labels = append(labels, label)
			}
		}
		if err != nil {
			sess.Close() //nolint:errcheck — the inference error is the one to report
			log.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			log.Fatal(err)
		}
		st = sess.Stats()
		fmt.Printf("bank: %d hit(s), %d miss(es) (misses fall back to live garbling)\n",
			st.BankHits, st.BankMisses)
	} else {
		start = time.Now()
		if *batch {
			labels, st, err = deepsecure.InferBatch(deepsecure.NewConn(conn), xs)
		} else {
			labels, st, err = deepsecure.InferMany(deepsecure.NewConn(conn), xs)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("labels: %v\n", labels)
	elapsed := time.Since(start)
	mode := "inference(s) on one session"
	if *batch {
		mode = "inference(s) as one fused batch"
	}
	fmt.Printf("%d %s: %d AND gates, %.2f MB sent, %.2f MB received, %v (%.2f inf/s)\n",
		st.Inferences, mode, st.ANDGates, float64(st.BytesSent)/1e6, float64(st.BytesReceived)/1e6,
		elapsed.Round(time.Millisecond), float64(st.Inferences)/elapsed.Seconds())
}

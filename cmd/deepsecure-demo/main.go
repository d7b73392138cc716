// deepsecure-demo is the secure-inference client for a quick smoke test of a
// running deepsecure-serve daemon over real TCP:
//
//	deepsecure-serve -listen :9090 -model b3
//	deepsecure-demo -connect host:9090 -model b3 -n 5
//
// The daemon hosts a randomly initialized paper benchmark model (b1..b4
// or "small"); the client runs -n random samples (seeded with 1, so the
// labels repeat run to run) on one session and prints the labels.
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
	n := flag.Int("n", 1, "inferences to run on one session")
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
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, *n)
	for j := range xs {
		xs[j] = make([]float64, m.In.Len())
		for i := range xs[j] {
			xs[j][i] = rng.Float64()*2 - 1
		}
	}
	start := time.Now()
	labels, st, err := deepsecure.InferMany(deepsecure.NewConn(conn), xs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labels: %v\n", labels)
	elapsed := time.Since(start)
	fmt.Printf("%d inference(s) on one session: %d AND gates, %.2f MB sent, %.2f MB received, %v (%.2f inf/s)\n",
		st.Inferences, st.ANDGates, float64(st.BytesSent)/1e6, float64(st.BytesReceived)/1e6,
		elapsed.Round(time.Millisecond), float64(st.Inferences)/elapsed.Seconds())
}

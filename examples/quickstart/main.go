// Quickstart: train a tiny model on synthetic data, then classify a
// sample with DeepSecure so that the "client" never reveals the sample
// and the "server" never reveals the weights.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"deepsecure"
	"deepsecure/internal/datasets"
)

func main() {
	// Synthetic 3-class dataset (the environment is offline; see
	// DESIGN.md substitution #2).
	set, err := datasets.Generate(datasets.Config{
		Name: "quickstart", Dim: 16, Classes: 3, Rank: 5, Noise: 0.05,
		Train: 400, Test: 100, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A small DNN with the paper's CORDIC tanh non-linearity.
	net, err := deepsecure.NewNetwork(deepsecure.Vec(16),
		deepsecure.NewDense(12),
		deepsecure.NewActivation(deepsecure.TanhCORDIC),
		deepsecure.NewDense(3),
	)
	if err != nil {
		log.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(1)))

	cfg := deepsecure.DefaultTrainConfig()
	cfg.Epochs = 12
	if _, err := deepsecure.Train(net, set.TrainX, set.TrainY, cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s  test accuracy: %.1f%%\n",
		net.Arch(), 100*deepsecure.Accuracy(net, set.TestX, set.TestY))

	stats, err := deepsecure.NetlistStats(net, deepsecure.DefaultFormat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %d XOR (free), %d non-XOR (2x128 bits each)\n",
		stats.FreeXOR(), stats.NonXOR())

	// Client and server connected by an in-memory pipe; swap in a TCP
	// connection for the distributed deployment (see cmd/deepsecure-demo).
	// The server's weight labels cross once, by OT at session set-up, so
	// each inference is one burst and one answer with no OT at all.
	clientConn, serverConn, closer := deepsecure.Pipe()
	defer closer.Close()
	srv := &deepsecure.SessionServer{Net: net, Fmt: deepsecure.DefaultFormat}
	go func() {
		if err := srv.Serve(serverConn); err != nil {
			log.Fatal(err)
		}
	}()

	xs := [][]float64{set.TestX[0], set.TestX[1]}
	labels, st, err := deepsecure.InferMany(clientConn, xs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure inference labels: %v (true %d, %d)\n", labels, set.TestY[0], set.TestY[1])
	fmt.Printf("  %d AND gates garbled, %.2f MB sent, %.2f MB received, %v\n",
		st.ANDGates,
		float64(st.BytesSent)/1e6, float64(st.BytesReceived)/1e6, st.Duration)
	fmt.Printf("  OT at set-up only: %v for %d weight labels\n",
		st.OTOfflineTime.Round(time.Millisecond), st.OTsConsumed)
	fmt.Printf("  plaintext check: %d, %d\n",
		net.PredictFixed(deepsecure.DefaultFormat, xs[0]),
		net.PredictFixed(deepsecure.DefaultFormat, xs[1]))
}

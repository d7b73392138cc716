// Batched-inference example: an MNIST-like classifier
// serving a tray of samples in ONE fused InferBatch call. The batch
// walks the compiled netlist schedule once, streams all samples' garbled
// tables interleaved, and sends each weight step's masked labels for all
// samples in one frame — the embarrassingly parallel same-model serving pattern
// the DeepSecure scalability argument targets. A serial session over the
// same samples runs first for comparison.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"deepsecure"
	"deepsecure/internal/datasets"
)

const batchSize = 8

func main() {
	// MNIST-like synthetic digits, downscaled so the example finishes in
	// seconds (the environment is offline; see DESIGN.md substitution #2).
	cfg := datasets.MNISTLike(17)
	cfg.Dim = 14 * 14
	cfg.Train, cfg.Test = 400, batchSize
	set, err := datasets.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	net, err := deepsecure.NewNetwork(deepsecure.Vec(14*14),
		deepsecure.NewDense(32),
		deepsecure.NewActivation(deepsecure.ReLU),
		deepsecure.NewDense(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(18)))
	tcfg := deepsecure.DefaultTrainConfig()
	tcfg.Epochs = 8
	if _, err := deepsecure.Train(net, set.TrainX, set.TrainY, tcfg); err != nil {
		log.Fatal(err)
	}
	net.CalibrateOutput(set.TrainX, 6) // keep logits inside Q3.12
	fmt.Printf("model %s: test accuracy %.1f%%\n\n",
		net.Arch(), 100*deepsecure.Accuracy(net, set.TestX, set.TestY))

	xs := set.TestX[:batchSize]

	// Serial reference: one session, one inference per sample (the
	// handshake and OT base phase are still paid once, and consecutive
	// inferences pipeline — but every sample walks the schedule and
	// round-trips its own OT exchanges).
	serialConn, serialSrv, closer1 := deepsecure.Pipe()
	defer closer1.Close()
	go serve(serialSrv, net)
	start := time.Now()
	serialLabels, serialStats, err := deepsecure.InferMany(serialConn, xs)
	if err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(start)
	fmt.Printf("serial session:  %d samples in %v (%.2f inf/s, %d OT exchanges)\n",
		batchSize, serialTime.Round(time.Millisecond),
		float64(batchSize)/serialTime.Seconds(), serialStats.OTBatches)

	// Fused batch: the whole tray as one batched inference.
	batchConn, batchSrv, closer2 := deepsecure.Pipe()
	defer closer2.Close()
	go serve(batchSrv, net)
	start = time.Now()
	batchLabels, batchStats, err := deepsecure.InferBatch(batchConn, xs)
	if err != nil {
		log.Fatal(err)
	}
	batchTime := time.Since(start)
	fmt.Printf("fused batch:     %d samples in %v (%.2f inf/s, %d OT exchanges)\n\n",
		batchSize, batchTime.Round(time.Millisecond),
		float64(batchSize)/batchTime.Seconds(), batchStats.OTBatches)

	hits := 0
	for i := range xs {
		if serialLabels[i] != batchLabels[i] {
			log.Fatalf("sample %d: serial label %d != batched label %d", i, serialLabels[i], batchLabels[i])
		}
		if batchLabels[i] == set.TestY[i] {
			hits++
		}
	}
	fmt.Printf("labels agree across both modes; %d/%d correct\n", hits, batchSize)
}

// serve answers one session with the private model, with an OT pool big
// enough for the whole batch so no refill lands mid-session.
func serve(conn *deepsecure.Conn, net *deepsecure.Network) {
	srv := &deepsecure.SessionServer{Net: net, Fmt: deepsecure.DefaultFormat,
		OTPool: deepsecure.PoolConfig{Capacity: 1 << 16, Background: true}}
	if _, err := srv.ServeSession(conn); err != nil {
		log.Fatal(err)
	}
}

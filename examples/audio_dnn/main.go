// Benchmark-3 walkthrough (the paper's §4.5.2 audio benchmark): train the
// 617-50-26 Tanh DNN on ISOLET-like synthetic data, apply both
// pre-processing steps (data projection + network pruning), and compare
// the secure-inference cost before and after — the Table 4 → Table 5
// story for one benchmark, executed for real.
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
	start := time.Now()
	set, err := datasets.Generate(datasets.AudioLike(99))
	if err != nil {
		log.Fatal(err)
	}

	build := func(in int) (*deepsecure.Network, error) {
		net, err := deepsecure.NewNetwork(deepsecure.Vec(in),
			deepsecure.NewDense(50),
			deepsecure.NewActivation(deepsecure.TanhCORDIC),
			deepsecure.NewDense(26),
		)
		if err != nil {
			return nil, err
		}
		net.InitWeights(rand.New(rand.NewSource(5)))
		return net, nil
	}

	// Baseline: the full 617-input model.
	net, err := build(617)
	if err != nil {
		log.Fatal(err)
	}
	cfg := deepsecure.DefaultTrainConfig()
	cfg.Epochs = 6
	if _, err := deepsecure.Train(net, set.TrainX, set.TrainY, cfg); err != nil {
		log.Fatal(err)
	}
	baseAcc := deepsecure.Accuracy(net, set.TestX, set.TestY)
	baseStats, err := deepsecure.NetlistStats(net, deepsecure.DefaultFormat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline %s: accuracy %.1f%%, non-XOR %d\n",
		net.Arch(), 100*baseAcc, baseStats.NonXOR())

	// Pre-processing step 1: data projection (Alg. 1).
	pcfg := deepsecure.DefaultProjectConfig()
	pcfg.Gamma = 0.35
	pcfg.Retrain.Epochs = 4
	pcfg.Retrain.WeightDecay = 0.02 // keeps fixed-point pre-activations in range
	proj, err := deepsecure.ProjectFit(set.TrainX, set.TrainY, set.TestX, set.TestY, pcfg, build)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projection: 617 -> %d dims (checkpoints %d)\n", proj.Atoms, proj.Checkpoints)

	// Pre-processing step 2: prune + retrain the condensed model.
	embTrain := proj.EmbedAll(set.TrainX)
	embTest := proj.EmbedAll(set.TestX)
	rcfg := deepsecure.DefaultTrainConfig()
	rcfg.Epochs = 6
	rcfg.WeightDecay = 0.02
	rep, err := deepsecure.Prune(proj.Net, 0.5, embTrain, set.TrainY, embTest, set.TestY, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	proj.Net.CalibrateOutput(embTrain, 6) // keep logits in the Q3.12 range
	fixedHits := 0
	for i, x := range embTest {
		if proj.Net.PredictFixed(deepsecure.DefaultFormat, x) == set.TestY[i] {
			fixedHits++
		}
	}
	fmt.Printf("fixed-point (16-bit) accuracy: %.1f%%\n", 100*float64(fixedHits)/float64(len(embTest)))
	fmt.Printf("pruning: density %.2f -> %.2f, accuracy %.1f%% -> %.1f%%\n",
		rep.DensityBefore, rep.DensityAfter, 100*rep.AccBefore, 100*rep.AccAfter)

	postStats, err := deepsecure.NetlistStats(proj.Net, deepsecure.DefaultFormat)
	if err != nil {
		log.Fatal(err)
	}
	fold := float64(baseStats.NonXOR()) / float64(postStats.NonXOR())
	fmt.Printf("compaction: non-XOR %d -> %d  (%.1f-fold; paper reports 6-fold for B3)\n",
		baseStats.NonXOR(), postStats.NonXOR(), fold)

	// Secure inference on the pre-processed pipeline: the client embeds
	// its raw sample with the PUBLIC projection (Alg. 2), then runs GC.
	clientConn, serverConn, closer := deepsecure.Pipe()
	defer closer.Close()
	go func() {
		if err := deepsecure.Serve(serverConn, proj.Net, deepsecure.DefaultFormat); err != nil {
			log.Fatal(err)
		}
	}()
	x := proj.Embed(set.TestX[0]) // client-side online step: y = U^T x
	label, st, err := deepsecure.Infer(clientConn, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure inference: label %d (true %d), %.1f MB, %v\n",
		label, set.TestY[0], float64(st.BytesSent+st.BytesReceived)/1e6, st.Duration)
	fmt.Printf("  OT split: %v offline (base phase + pool fill), %v online (%d pooled OTs unmasked)\n",
		st.OTOfflineTime.Round(time.Millisecond), st.OTOnlineTime.Round(time.Millisecond), st.OTsConsumed)
	fmt.Printf("total example time: %v\n", time.Since(start).Round(time.Millisecond))
}

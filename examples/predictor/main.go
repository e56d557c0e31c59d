// Predictor: train the quantile decision tree for LDPC decoding offline,
// inspect its structure, then adapt it online with interfered runtimes —
// Algorithms 1 and 2 of the paper, end to end.
package main

import (
	"fmt"

	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/predictor"
	"concordia/internal/ran"
)

func main() {
	model := costmodel.New(3)

	// Offline phase: profile the vRAN in isolation across the input space.
	fmt.Println("offline profiling (isolated vRAN)...")
	data := core.Profile(ran.Cells20MHz(2), 2000, model, 4, 99)
	decode := data[ran.TaskLDPCDecode]
	fmt.Printf("collected %d LDPC decode samples\n", len(decode))

	// Algorithm 1: feature selection, then tree training.
	feats := predictor.SelectFeatures(ran.TaskLDPCDecode, decode, 6, 3)
	fmt.Print("selected features:")
	for _, f := range feats {
		fmt.Printf(" %v", f)
	}
	fmt.Println()
	tree, err := predictor.TrainQuantileTree(ran.TaskLDPCDecode, feats, decode,
		predictor.TreeConfig{MaxLeaves: 16, MaxDepth: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Print(tree) // the full tree structure

	// Parameterized predictions (the §4.1 point).
	query := func(cbs int, snr float64) {
		var f ran.FeatureVector
		f.Set(ran.FCodeblocks, float64(cbs))
		f.Set(ran.FSNRdB, snr)
		f.Set(ran.FTBSBits, float64(cbs*8448))
		fmt.Printf("WCET(%2d codeblocks, %4.1f dB) = %v\n", cbs, snr, tree.Predict(f))
	}
	fmt.Println()
	query(1, 28)
	query(8, 15)
	query(15, 2)

	// Online phase (Algorithm 2): observe interfered runtimes; predictions
	// rise without retraining the tree.
	fmt.Println("\nadapting online under cache interference (redis collocated)...")
	inter := costmodel.Env{PoolCores: 4, Interference: 0.95}
	var probe ran.FeatureVector
	probe.Set(ran.FCodeblocks, 8)
	probe.Set(ran.FSNRdB, 15)
	probe.Set(ran.FTBSBits, 8*8448)
	before := tree.Predict(probe)
	for i := 0; i < 20000; i++ {
		s := decode[i%len(decode)]
		tree.Observe(s.Features, model.Sample(ran.TaskLDPCDecode, &s.Features, inter))
	}
	after := tree.Predict(probe)
	fmt.Printf("WCET(8 codeblocks, 15 dB): %v isolated -> %v under interference\n", before, after)
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"concordia/internal/costmodel"
	"concordia/internal/parallel"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/stats"
)

// Fig6Result reproduces Fig 6: LDPC decode runtime scaling with codeblocks
// and the multi-core memory-stall penalty.
type Fig6Result struct {
	Codeblocks []int
	// MeanUs[cores][i] is the mean runtime for Codeblocks[i] spread over
	// the given core count (map keys 1, 4, 6).
	MeanUs map[int][]float64
	P99Us  map[int][]float64
	// StallsPerCycle approximates Fig 6b: the modeled memory-stall share.
	StallsPerCycle map[int][]float64
}

// RunFig6LDPCScaling samples the decode cost model across codeblock counts
// and pool widths (120 K operations at full scale, as in the paper).
func RunFig6LDPCScaling(o Options) (*Fig6Result, error) {
	ops := int(120000 * o.Scale)
	if ops < 3000 {
		ops = 3000
	}
	res := &Fig6Result{
		Codeblocks:     []int{3, 6, 9, 12, 15},
		MeanUs:         map[int][]float64{},
		P99Us:          map[int][]float64{},
		StallsPerCycle: map[int][]float64{},
	}
	model := costmodel.New(o.Seed)
	perCell := ops / len(res.Codeblocks) / 3
	coreSet := []int{1, 4, 6}
	// One (cores, cbs) cell per sample slice; each cell's iteration space is
	// cut into fixed shards carrying their own RNG substreams, so the sweep
	// fans out across workers without changing a single drawn sample.
	cells := len(coreSet) * len(res.Codeblocks)
	samples := make([][]float64, cells)
	for i := range samples {
		samples[i] = make([]float64, perCell)
	}
	shards := parallel.Shards(perCell, sampleShards)
	parallel.ForEach(o.workers(), cells*len(shards), func(j int) error {
		ci, sh := j/len(shards), shards[j%len(shards)]
		env := costmodel.Env{PoolCores: coreSet[ci/len(res.Codeblocks)]}
		cbs := res.Codeblocks[ci%len(res.Codeblocks)]
		r := rng.Substream(o.Seed+1, uint64(ci*len(shards)+sh.Index))
		for i := sh.Lo; i < sh.Hi; i++ {
			var f ran.FeatureVector
			f.Set(ran.FCodeblocks, float64(cbs))
			f.Set(ran.FSNRdB, r.Uniform(10, 28))
			f.Set(ran.FTBSBits, float64(cbs*8448))
			samples[ci][i] = model.SampleWith(r, ran.TaskLDPCDecode, &f, env).Us()
		}
		return nil
	})
	for ci := 0; ci < cells; ci++ {
		cores := coreSet[ci/len(res.Codeblocks)]
		cbs := res.Codeblocks[ci%len(res.Codeblocks)]
		res.MeanUs[cores] = append(res.MeanUs[cores], stats.Mean(samples[ci]))
		res.P99Us[cores] = append(res.P99Us[cores], stats.Quantile(samples[ci], 0.99))
		// Fig 6b proxy: stall share grows with both spreading and size.
		stall := (costmodel.StallPenalty(cores) - 1) * (0.5 + 0.5*float64(cbs)/15)
		res.StallsPerCycle[cores] = append(res.StallsPerCycle[cores], stall)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	header(&sb, "Fig 6: LDPC decoding runtime vs codeblocks and cores")
	fmt.Fprintf(&sb, "%6s", "cbs")
	for _, cores := range []int{1, 4, 6} {
		fmt.Fprintf(&sb, "  %8s", fmt.Sprintf("%dc mean", cores))
	}
	for _, cores := range []int{1, 4, 6} {
		fmt.Fprintf(&sb, "  %8s", fmt.Sprintf("%dc p99", cores))
	}
	sb.WriteString("\n")
	for i, cbs := range r.Codeblocks {
		fmt.Fprintf(&sb, "%6d", cbs)
		for _, cores := range []int{1, 4, 6} {
			fmt.Fprintf(&sb, "  %8.1f", r.MeanUs[cores][i])
		}
		for _, cores := range []int{1, 4, 6} {
			fmt.Fprintf(&sb, "  %8.1f", r.P99Us[cores][i])
		}
		sb.WriteString("\n")
	}
	inc := r.MeanUs[6][len(r.Codeblocks)-1]/r.MeanUs[1][len(r.Codeblocks)-1] - 1
	fmt.Fprintf(&sb, "6-core runtime increase at 15 cbs: %s (paper: up to 25%%)\n", pct(inc))
	return sb.String()
}

// sortedLeafIDs returns the keys of a per-leaf sample map in ascending
// order, the canonical iteration order for leaf statistics (maporder rule).
func sortedLeafIDs(m map[int][]float64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Fig7Result reproduces Fig 7: runtime samples group tightly into quantile
// tree leaves, and interference fattens leaf tails without moving them.
type Fig7Result struct {
	Leaves            int
	GlobalVariance    float64
	PooledLeafVar     float64 // within-leaf variance, isolated samples
	PooledLeafVarTPCC float64 // within-leaf variance, collocated samples
	// WorstLeafW1 is the largest Wasserstein-1 distance between a leaf's
	// isolated and interfered runtime distributions, in µs.
	WorstLeafW1Us float64
	// WorstLeafMedianShiftUs shows the distributions stay "in the same
	// region": the median shift of that worst leaf.
	WorstLeafMedianShiftUs float64
	// KSPValue for isolated-vs-interfered pooled runtimes (paper: <<0.001).
	KSPValue float64
}

// RunFig7Leaves trains the decode tree offline (isolated), replays an
// interfered workload through it, and compares leaf distributions.
func RunFig7Leaves(o Options) (*Fig7Result, error) {
	n := int(120000 * o.Scale)
	if n < 8000 {
		n = 8000
	}
	model := costmodel.New(o.Seed)
	iso := costmodel.Env{PoolCores: 4}
	tpcc := costmodel.Env{PoolCores: 4, Interference: 0.9}
	// Sharded sample generator: shard boundaries and substreams depend only
	// on count and seed, so the data set is identical for any worker count.
	gen := func(count int, seed uint64, env costmodel.Env) []predictor.Sample {
		out := make([]predictor.Sample, count)
		shards := parallel.Shards(count, sampleShards)
		parallel.ForEach(o.workers(), len(shards), func(si int) error {
			sh := shards[si]
			r := rng.Substream(seed, uint64(sh.Index))
			for i := sh.Lo; i < sh.Hi; i++ {
				var f ran.FeatureVector
				cbs := 1 + r.Intn(15)
				f.Set(ran.FCodeblocks, float64(cbs))
				f.Set(ran.FSNRdB, r.Uniform(0, 32))
				f.Set(ran.FTBSBits, float64(cbs*8448))
				out[i] = predictor.Sample{Features: f, Runtime: model.SampleWith(r, ran.TaskLDPCDecode, &f, env)}
			}
			return nil
		})
		return out
	}
	train := gen(n, o.Seed+1, iso)
	feats := []ran.Feature{ran.FCodeblocks, ran.FSNRdB}
	tree, err := predictor.TrainQuantileTree(ran.TaskLDPCDecode, feats, train, predictor.TreeConfig{})
	if err != nil {
		return nil, err
	}
	evalIso := gen(n/2, o.Seed+2, iso)
	evalTpcc := gen(n/2, o.Seed+3, tpcc)

	perLeaf := func(data []predictor.Sample) map[int][]float64 {
		m := map[int][]float64{}
		for _, s := range data {
			id := tree.LeafID(s.Features)
			m[id] = append(m[id], s.Runtime.Us())
		}
		return m
	}
	isoLeaves := perLeaf(evalIso)
	tpccLeaves := perLeaf(evalTpcc)

	var all []float64
	for _, s := range evalIso {
		all = append(all, s.Runtime.Us())
	}
	res := &Fig7Result{Leaves: tree.NumLeaves(), GlobalVariance: stats.Variance(all)}

	// Leaf maps are iterated in sorted-key order: the pooled variance is a
	// float sum (not associative) and the worst-leaf scan breaks ties by
	// first-seen, so raw map order would leak the hash seed into results.
	pooled := func(m map[int][]float64) float64 {
		var sum, w float64
		for _, id := range sortedLeafIDs(m) {
			xs := m[id]
			if len(xs) < 2 {
				continue
			}
			sum += stats.Variance(xs) * float64(len(xs))
			w += float64(len(xs))
		}
		if w == 0 {
			return 0
		}
		return sum / w
	}
	res.PooledLeafVar = pooled(isoLeaves)
	res.PooledLeafVarTPCC = pooled(tpccLeaves)

	// Most distorted leaf by Wasserstein distance (Fig 7b).
	for _, id := range sortedLeafIDs(isoLeaves) {
		isoXs := isoLeaves[id]
		tpccXs := tpccLeaves[id]
		if len(isoXs) < 30 || len(tpccXs) < 30 {
			continue
		}
		w1 := stats.Wasserstein1(isoXs, tpccXs)
		if w1 > res.WorstLeafW1Us {
			res.WorstLeafW1Us = w1
			res.WorstLeafMedianShiftUs = stats.Quantile(tpccXs, 0.5) - stats.Quantile(isoXs, 0.5)
		}
	}
	// KS test over pooled runtimes (paper: p << 0.001 → distinct).
	var isoAll, tpccAll []float64
	for _, s := range evalIso {
		isoAll = append(isoAll, s.Runtime.Us())
	}
	for _, s := range evalTpcc {
		tpccAll = append(tpccAll, s.Runtime.Us())
	}
	res.KSPValue = stats.KSPValue(stats.KSStatistic(isoAll, tpccAll), len(isoAll), len(tpccAll))
	return res, nil
}

// String implements fmt.Stringer.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	header(&sb, "Fig 7: leaf-node runtime grouping under interference")
	fmt.Fprintf(&sb, "leaves                        %d\n", r.Leaves)
	fmt.Fprintf(&sb, "global variance (us^2)        %.0f\n", r.GlobalVariance)
	fmt.Fprintf(&sb, "within-leaf var, isolated     %.0f (%.1f%% of global)\n",
		r.PooledLeafVar, 100*r.PooledLeafVar/r.GlobalVariance)
	fmt.Fprintf(&sb, "within-leaf var, w/ tpcc      %.0f\n", r.PooledLeafVarTPCC)
	fmt.Fprintf(&sb, "worst leaf W1 distance        %.1f us (median shift %.1f us)\n",
		r.WorstLeafW1Us, r.WorstLeafMedianShiftUs)
	fmt.Fprintf(&sb, "KS p-value iso vs tpcc        %.2g (paper: <<0.001)\n", r.KSPValue)
	return sb.String()
}

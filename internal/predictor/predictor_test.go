package predictor

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"concordia/internal/costmodel"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/sim"
	"concordia/internal/stats"
)

// profileDecode produces an offline-style profiling dataset for the LDPC
// decode task by sweeping input parameters and sampling the cost model in
// isolation — the way the paper's offline phase profiles FlexRAN.
func profileDecode(n int, seed uint64, env costmodel.Env) []Sample {
	m := costmodel.New(seed)
	r := rng.New(seed + 1)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		var f ran.FeatureVector
		cbs := 1 + r.Intn(15)
		snr := r.Uniform(0, 32)
		f.Set(ran.FCodeblocks, float64(cbs))
		f.Set(ran.FSNRdB, snr)
		f.Set(ran.FTBSBits, float64(cbs*8000))
		f.Set(ran.FNumUEs, float64(1+r.Intn(16)))
		f.Set(ran.FPRBs, float64(10+r.Intn(260)))
		out = append(out, Sample{Features: f, Runtime: m.Sample(ran.TaskLDPCDecode, &f, env)})
	}
	return out
}

func TestRingBufferBasics(t *testing.T) {
	r := NewRingBuffer(3)
	if r.Max() != 0 || r.Len() != 0 {
		t.Fatal("empty buffer state")
	}
	r.Push(5)
	r.Push(9)
	r.Push(2)
	if r.Max() != 9 || r.Len() != 3 {
		t.Fatalf("max %v len %d", r.Max(), r.Len())
	}
	// Eviction order: oldest first.
	r.Push(1) // evicts 5
	if r.Max() != 9 {
		t.Fatalf("max after evicting 5: %v", r.Max())
	}
	r.Push(1) // evicts 9
	if r.Max() != 2 {
		t.Fatalf("max after evicting 9: %v", r.Max())
	}
}

func TestRingBufferCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewRingBuffer(0)
}

func TestRingBufferMaxProperty(t *testing.T) {
	// After every Push, Max equals a scan of the stored values; at the end
	// it equals the max of the last capacity pushes. Max is floored at 0, as
	// an empty ring reads 0.
	check := func(capacity int, in []sim.Time) bool {
		r := NewRingBuffer(capacity)
		if r.Max() != 0 {
			return false
		}
		for _, v := range in {
			r.Push(v)
			var want sim.Time
			for _, x := range r.Values() {
				if x > want {
					want = x
				}
			}
			if r.Max() != want {
				return false
			}
		}
		var want sim.Time
		for _, v := range in[max(0, len(in)-capacity):] {
			if v > want {
				want = v
			}
		}
		return r.Max() == want
	}

	// Inputs that reach the rescan, where Push evicts the maximum.
	descending := make([]sim.Time, 40)
	for i := range descending {
		descending[i] = sim.Time(len(descending) - i)
	}
	cases := []struct {
		name     string
		capacity int
		in       []sim.Time
	}{
		{"empty", 4, nil},
		{"partly filled", 16, []sim.Time{3, 9, 1}},
		{"descending past capacity", 8, descending},
		{"repeated equal maxima", 4, []sim.Time{9, 1, 9, 2, 3, 9, 1, 1, 1, 1, 9, 9, 9, 9, 2, 2, 2, 2}},
		{"capacity 1", 1, []sim.Time{5, 3, 7, 7, 0, 2, 2, 1}},
		{"negative values", 3, []sim.Time{-4, -1, 6, -2, -3, -5, 0, -1}},
	}
	for _, c := range cases {
		if !check(c.capacity, c.in) {
			t.Errorf("%s: Max diverged from a scan", c.name)
		}
	}

	err := quick.Check(func(c uint8, raw []int8) bool {
		in := make([]sim.Time, len(raw))
		for i, v := range raw {
			in[i] = sim.Time(v)
		}
		return check(1+int(c%16), in)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectFeaturesFindsDrivers(t *testing.T) {
	data := profileDecode(3000, 1, costmodel.Env{PoolCores: 1})
	feats := SelectFeatures(ran.TaskLDPCDecode, data, 4, 2)
	has := func(f ran.Feature) bool {
		for _, g := range feats {
			if g == f {
				return true
			}
		}
		return false
	}
	if !has(ran.FCodeblocks) {
		t.Fatalf("selected %v, missing codeblocks (the dominant driver)", feats)
	}
	if !has(ran.FSNRdB) {
		t.Fatalf("selected %v, missing SNR (hand-picked)", feats)
	}
}

func TestSelectFeaturesSkipsConstant(t *testing.T) {
	data := profileDecode(500, 2, costmodel.Env{PoolCores: 1})
	feats := SelectFeatures(ran.TaskLDPCDecode, data, 6, 4)
	for _, f := range feats {
		if f == ran.FPoolCores { // constant zero in this dataset
			t.Fatal("constant feature selected")
		}
	}
}

func trainDecodeTree(t *testing.T, data []Sample) *QuantileTree {
	t.Helper()
	feats := []ran.Feature{ran.FCodeblocks, ran.FSNRdB}
	tree, err := TrainQuantileTree(ran.TaskLDPCDecode, feats, data, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestTreeTrainingErrors(t *testing.T) {
	if _, err := TrainQuantileTree(ran.TaskLDPCDecode, []ran.Feature{ran.FCodeblocks}, nil, TreeConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	data := profileDecode(200, 3, costmodel.Env{PoolCores: 1})
	if _, err := TrainQuantileTree(ran.TaskLDPCDecode, nil, data, TreeConfig{}); err == nil {
		t.Fatal("empty feature set accepted")
	}
}

func TestTreeSplitsReduceLeafVariance(t *testing.T) {
	data := profileDecode(8000, 4, costmodel.Env{PoolCores: 1})
	tree := trainDecodeTree(t, data)
	if tree.NumLeaves() < 4 {
		t.Fatalf("tree grew only %d leaves", tree.NumLeaves())
	}
	// Pooled within-leaf variance must be far below the global variance
	// (the Fig 7a property).
	var all []float64
	for _, s := range data {
		all = append(all, float64(s.Runtime))
	}
	globalVar := stats.Variance(all)
	var pooled, weight float64
	for id := 0; id < tree.NumLeaves(); id++ {
		ls := tree.LeafSamples(id)
		if len(ls) == 0 {
			continue
		}
		pooled += stats.Variance(ls) * float64(len(ls))
		weight += float64(len(ls))
	}
	pooled /= weight
	if pooled > globalVar/4 {
		t.Fatalf("within-leaf variance %.3g not ≪ global %.3g", pooled, globalVar)
	}
}

func TestTreePredictionCoversRuntimes(t *testing.T) {
	data := profileDecode(8000, 5, costmodel.Env{PoolCores: 4})
	tree := trainDecodeTree(t, data)
	// On fresh samples from the same distribution, the miss rate (runtime >
	// predicted WCET) must be small.
	fresh := profileDecode(4000, 99, costmodel.Env{PoolCores: 4})
	misses := 0
	for _, s := range fresh {
		if s.Runtime > tree.Predict(s.Features) {
			misses++
		}
	}
	rate := float64(misses) / float64(len(fresh))
	if rate > 0.02 {
		t.Fatalf("offline tree miss rate %.3f too high", rate)
	}
}

func TestTreeParameterizedPredictions(t *testing.T) {
	data := profileDecode(8000, 6, costmodel.Env{PoolCores: 1})
	tree := trainDecodeTree(t, data)
	small := ran.FeatureVector{}
	small.Set(ran.FCodeblocks, 1)
	small.Set(ran.FSNRdB, 28)
	large := ran.FeatureVector{}
	large.Set(ran.FCodeblocks, 14)
	large.Set(ran.FSNRdB, 3)
	if tree.Predict(small) >= tree.Predict(large) {
		t.Fatal("predictions not parameterized: small task WCET >= large task WCET")
	}
	// The point of parameterization (§4.1): the small-task prediction must
	// be far below a single global WCET.
	if float64(tree.Predict(small)) > 0.5*float64(tree.Predict(large)) {
		t.Fatalf("small-task prediction %v not well below large-task %v",
			tree.Predict(small), tree.Predict(large))
	}
}

func TestTreeOnlineAdaptation(t *testing.T) {
	// Train offline in isolation, then observe inflated runtimes (as under
	// interference); predictions must rise to cover them without retraining.
	iso := costmodel.Env{PoolCores: 4}
	data := profileDecode(8000, 7, iso)
	tree := trainDecodeTree(t, data)
	inter := costmodel.Env{PoolCores: 4, Interference: 1}
	online := profileDecode(20000, 8, inter)
	for _, s := range online {
		tree.Observe(s.Features, s.Runtime)
	}
	fresh := profileDecode(4000, 9, inter)
	misses := 0
	for _, s := range fresh {
		if s.Runtime > tree.Predict(s.Features) {
			misses++
		}
	}
	rate := float64(misses) / float64(len(fresh))
	if rate > 0.02 {
		t.Fatalf("online-adapted miss rate %.3f too high under interference", rate)
	}
}

func TestTreeRoutingDeterministic(t *testing.T) {
	data := profileDecode(4000, 10, costmodel.Env{PoolCores: 1})
	tree := trainDecodeTree(t, data)
	for _, s := range data[:200] {
		if tree.LeafID(s.Features) != tree.LeafID(s.Features) {
			t.Fatal("leaf routing not deterministic")
		}
	}
}

func TestTreeRespectsBounds(t *testing.T) {
	data := profileDecode(8000, 11, costmodel.Env{PoolCores: 1})
	cfg := TreeConfig{MaxDepth: 3, MinLeaf: 100, MaxLeaves: 6}
	tree, err := TrainQuantileTree(ran.TaskLDPCDecode, []ran.Feature{ran.FCodeblocks, ran.FSNRdB}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 {
		t.Fatalf("depth %d exceeds bound", tree.Depth())
	}
	if tree.NumLeaves() > 6 {
		t.Fatalf("leaves %d exceed bound", tree.NumLeaves())
	}
}

func TestTreeString(t *testing.T) {
	data := profileDecode(2000, 12, costmodel.Env{PoolCores: 1})
	tree := trainDecodeTree(t, data)
	if s := tree.String(); len(s) == 0 {
		t.Fatal("empty tree dump")
	}
}

func TestLinearPredictorUnderestimatesNonlinear(t *testing.T) {
	// Fig 14: the linear model misses far more deadlines than the tree on
	// the non-linear decode runtime.
	env := costmodel.Env{PoolCores: 4}
	data := profileDecode(8000, 13, env)
	feats := []ran.Feature{ran.FCodeblocks, ran.FSNRdB}
	lin, err := TrainLinear(feats, data, 0.99999)
	if err != nil {
		t.Fatal(err)
	}
	tree := trainDecodeTree(t, data)
	fresh := profileDecode(6000, 14, env)
	missLin, missTree := 0, 0
	var errLin, errTree float64
	var nLin, nTree int
	for _, s := range fresh {
		pl, pt := lin.Predict(s.Features), tree.Predict(s.Features)
		if s.Runtime > pl {
			missLin++
		} else {
			errLin += float64(pl - s.Runtime)
			nLin++
		}
		if s.Runtime > pt {
			missTree++
		} else {
			errTree += float64(pt - s.Runtime)
			nTree++
		}
	}
	// The linear model holds the interval by being globally pessimistic, so
	// its average overestimate (prediction error on met deadlines) must be
	// much larger than the tree's — the Fig 14b metric.
	if nLin == 0 || nTree == 0 {
		t.Fatal("no met deadlines")
	}
	avgLin := errLin / float64(nLin)
	avgTree := errTree / float64(nTree)
	if avgTree >= avgLin {
		t.Fatalf("tree avg error %.0f not below linear %.0f", avgTree, avgLin)
	}
	if avgLin < 2*avgTree {
		t.Fatalf("linear pessimism %.0f vs tree %.0f: expected ≥2x gap", avgLin, avgTree)
	}
}

func TestGradientBoostingBeatsLinear(t *testing.T) {
	env := costmodel.Env{PoolCores: 4}
	data := profileDecode(8000, 15, env)
	feats := []ran.Feature{ran.FCodeblocks, ran.FSNRdB}
	lin, _ := TrainLinear(feats, data, 0.99999)
	gb, err := TrainGradientBoosting(feats, data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := profileDecode(6000, 16, env)
	var errLin, errGB float64
	var nLin, nGB int
	for _, s := range fresh {
		if pl := lin.Predict(s.Features); s.Runtime <= pl {
			errLin += float64(pl - s.Runtime)
			nLin++
		}
		if pg := gb.Predict(s.Features); s.Runtime <= pg {
			errGB += float64(pg - s.Runtime)
			nGB++
		}
	}
	if nLin == 0 || nGB == 0 {
		t.Fatal("no met deadlines")
	}
	if errGB/float64(nGB) >= errLin/float64(nLin) {
		t.Fatalf("boosting error %.0f not below linear %.0f",
			errGB/float64(nGB), errLin/float64(nLin))
	}
}

func TestEVTPredictorSingleValue(t *testing.T) {
	env := costmodel.Env{PoolCores: 4}
	data := profileDecode(8000, 17, env)
	evt, err := TrainEVT(data, 0.99999)
	if err != nil {
		t.Fatal(err)
	}
	var a, b ran.FeatureVector
	a.Set(ran.FCodeblocks, 1)
	b.Set(ran.FCodeblocks, 15)
	if evt.Predict(a) != evt.Predict(b) {
		t.Fatal("EVT prediction must ignore features")
	}
	// It must cover (nearly) everything — pessimistically.
	fresh := profileDecode(6000, 18, env)
	misses := 0
	for _, s := range fresh {
		if s.Runtime > evt.Predict(s.Features) {
			misses++
		}
	}
	if rate := float64(misses) / float64(len(fresh)); rate > 0.001 {
		t.Fatalf("EVT miss rate %.4f too high for 0.99999 confidence", rate)
	}
}

func TestEVTMorePessimisticThanTree(t *testing.T) {
	// Fig 13's premise: the single-value pWCET reclaims fewer cycles
	// because its prediction is far above the typical task's runtime.
	env := costmodel.Env{PoolCores: 4}
	data := profileDecode(8000, 19, env)
	evt, _ := TrainEVT(data, 0.99999)
	tree := trainDecodeTree(t, data)
	var f ran.FeatureVector
	f.Set(ran.FCodeblocks, 2)
	f.Set(ran.FSNRdB, 25)
	if evt.Predict(f) <= tree.Predict(f) {
		t.Fatal("EVT prediction for a small task should exceed the tree's")
	}
}

func TestEVTErrors(t *testing.T) {
	if _, err := TrainEVT(nil, 0.99999); err == nil {
		t.Fatal("empty dataset accepted")
	}
	data := profileDecode(500, 20, costmodel.Env{PoolCores: 1})
	if _, err := TrainEVT(data, 1.5); err == nil {
		t.Fatal("bad confidence accepted")
	}
}

func TestEVTOnlineRefit(t *testing.T) {
	env := costmodel.Env{PoolCores: 4}
	data := profileDecode(2000, 21, env)
	evt, _ := TrainEVT(data, 0.9999)
	before := evt.Predict(ran.FeatureVector{})
	// Observe a much heavier regime; after refits the prediction rises.
	heavy := costmodel.Env{PoolCores: 4, Interference: 1}
	for _, s := range profileDecode(6000, 22, heavy) {
		evt.Observe(s.Features, s.Runtime*2)
	}
	after := evt.Predict(ran.FeatureVector{})
	if after <= before {
		t.Fatalf("EVT did not adapt online: %v -> %v", before, after)
	}
}

func TestResidualTrackerQuantile(t *testing.T) {
	rt := newResidualTracker(0.9)
	for i := 0; i < 1000; i++ {
		rt.push(float64(i))
	}
	rt.refresh()
	q := rt.quantile()
	if math.Abs(q-899) > 15 {
		t.Fatalf("residual q90 %.0f want ~899", q)
	}
}

var predictSink sim.Time

func BenchmarkTreePredict(b *testing.B) {
	data := profileDecode(8000, 30, costmodel.Env{PoolCores: 4})
	tree, _ := TrainQuantileTree(ran.TaskLDPCDecode,
		[]ran.Feature{ran.FCodeblocks, ran.FSNRdB}, data, TreeConfig{})
	f := data[0].Features
	// Fill the leaf's ring, as the online phase does, so Predict reads a
	// full 5 K ring rather than the leaf's offline samples alone.
	for _, s := range data[:DefaultRingSize] {
		tree.Observe(f, s.Runtime)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink = tree.Predict(f)
	}
}

func BenchmarkTreeObserve(b *testing.B) {
	data := profileDecode(8000, 31, costmodel.Env{PoolCores: 4})
	tree, _ := TrainQuantileTree(ran.TaskLDPCDecode,
		[]ran.Feature{ran.FCodeblocks, ran.FSNRdB}, data, TreeConfig{})
	f := data[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Observe(f, sim.Time(i))
	}
}

func BenchmarkTreeTrain(b *testing.B) {
	data := profileDecode(8000, 32, costmodel.Env{PoolCores: 4})
	feats := []ran.Feature{ran.FCodeblocks, ran.FSNRdB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = TrainQuantileTree(ran.TaskLDPCDecode, feats, data, TreeConfig{})
	}
}

func TestLeafEVTSimilarAccuracyHigherCost(t *testing.T) {
	// §4.2's reported finding: per-leaf EVT matches the ring-max predictor's
	// accuracy but costs more compute.
	env := costmodel.Env{PoolCores: 4}
	data := profileDecode(10000, 50, env)
	tree := trainDecodeTree(t, data)
	evt := NewLeafEVTTree(trainDecodeTree(t, data), 0.99999)

	fresh := profileDecode(5000, 51, env)
	missTree, missEVT := 0, 0
	for _, s := range fresh {
		if s.Runtime > tree.Predict(s.Features) {
			missTree++
		}
		if s.Runtime > evt.Predict(s.Features) {
			missEVT++
		}
		tree.Observe(s.Features, s.Runtime)
		evt.Observe(s.Features, s.Runtime)
	}
	rTree := float64(missTree) / float64(len(fresh))
	rEVT := float64(missEVT) / float64(len(fresh))
	if rEVT > rTree+0.02 {
		t.Fatalf("leaf-EVT miss rate %.3f much worse than ring-max %.3f", rEVT, rTree)
	}
	// Compute cost: a refit walks the whole 5K ring and fits a tail, far
	// beyond a ring push.
	start := time.Now()
	for i := 0; i < 200; i++ {
		evt.refit(0)
	}
	evtCost := time.Since(start)
	start = time.Now()
	for i := 0; i < 200; i++ {
		tree.Observe(fresh[0].Features, fresh[0].Runtime)
	}
	ringCost := time.Since(start)
	if evtCost < ringCost*5 {
		t.Logf("note: EVT refit %v vs ring push %v", evtCost, ringCost)
	}
}

func TestLeafEVTAdapts(t *testing.T) {
	iso := costmodel.Env{PoolCores: 4}
	data := profileDecode(6000, 52, iso)
	evt := NewLeafEVTTree(trainDecodeTree(t, data), 0.99999)
	evt.RefitEvery = 64
	f := data[0].Features
	before := evt.Predict(f)
	for i := 0; i < 200; i++ {
		evt.Observe(f, before*2)
	}
	if evt.Predict(f) <= before {
		t.Fatal("leaf-EVT did not adapt to inflated runtimes")
	}
}

func TestRingBufferWrapAround(t *testing.T) {
	r := NewRingBuffer(4)
	// Partially filled: statistics cover exactly what was pushed.
	for _, v := range []sim.Time{30, 10, 20} {
		r.Push(v)
	}
	if r.Len() != 3 {
		t.Fatalf("partial len %d, want 3", r.Len())
	}
	if got := r.Max(); got != 30 {
		t.Fatalf("partial max %v, want 30", got)
	}
	if got := r.Quantile(0); got != 10 {
		t.Fatalf("partial q0 %v, want 10", got)
	}
	// Six more pushes wrap the 4-slot ring: only the last four observations
	// {7, 8, 9, 11} survive; the early maximum (30) must be evicted.
	for _, v := range []sim.Time{5, 6, 7, 8, 9, 11} {
		r.Push(v)
	}
	if r.Len() != 4 {
		t.Fatalf("wrapped len %d, want 4", r.Len())
	}
	if got := r.Max(); got != 11 {
		t.Fatalf("wrapped max %v, want 11 (evicted 30 must not survive)", got)
	}
	if got := r.Quantile(1); got != 11 {
		t.Fatalf("wrapped q1 %v, want 11", got)
	}
	if got := r.Quantile(0); got != 7 {
		t.Fatalf("wrapped q0 %v, want 7 (oldest retained)", got)
	}
	// One more full lap: the ring now holds {100, 101, 102, 103} only.
	for i := sim.Time(100); i < 104; i++ {
		r.Push(i)
	}
	if got, want := r.Max(), sim.Time(103); got != want {
		t.Fatalf("relapped max %v, want %v", got, want)
	}
	if got, want := r.Quantile(0), sim.Time(100); got != want {
		t.Fatalf("relapped q0 %v, want %v", got, want)
	}
}

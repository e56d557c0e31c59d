package predictor

import (
	"math"
	"slices"
	"sort"
	"testing"

	"concordia/internal/costmodel"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/sim"
	"concordia/internal/stats"
)

// The reference grower: best-first growth that copies every node's feature
// values and runtimes, sorts them again with sort.Slice for every feature and
// builds fresh prefix sums, as the quantile tree was grown before it trained
// from presorted columns. TestTreeMatchesPerNodeSortReference requires the
// presorted grower to build the same tree, bit for bit.

// refCandidate is a growable node with its precomputed best split.
type refCandidate struct {
	node  *treeNode
	idx   []int
	depth int
	gain  float64
	feat  ran.Feature
	thr   float64
	ok    bool
}

// trainPerNodeSortReference is TrainQuantileTree on the reference grower.
func trainPerNodeSortReference(kind ran.TaskKind, features []ran.Feature, data []Sample, cfg TreeConfig) (*QuantileTree, error) {
	cfg.defaults()
	if len(data) < cfg.MinLeaf {
		return nil, ErrNoData
	}
	t := &QuantileTree{Kind: kind, Margin: cfg.Margin}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	refGrowBestFirst(t, data, idx, features, cfg)
	return t, nil
}

func refGrowBestFirst(t *QuantileTree, data []Sample, rootIdx []int, feats []ran.Feature, cfg TreeConfig) {
	t.root = &treeNode{}
	frontier := []*refCandidate{refEvalCandidate(t.root, data, rootIdx, 0, feats, cfg)}
	for budget := cfg.MaxLeaves - 1; budget > 0; {
		best := -1
		for i, c := range frontier {
			if c.ok && (best < 0 || c.gain > frontier[best].gain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		var leftIdx, rightIdx []int
		for _, j := range c.idx {
			if data[j].Features.Get(c.feat) <= c.thr {
				leftIdx = append(leftIdx, j)
			} else {
				rightIdx = append(rightIdx, j)
			}
		}
		if len(leftIdx) < cfg.MinLeaf || len(rightIdx) < cfg.MinLeaf {
			c.ok = false
			frontier = append(frontier, c)
			continue
		}
		budget--
		c.node.feature = c.feat
		c.node.threshold = c.thr
		c.node.left = &treeNode{}
		c.node.right = &treeNode{}
		frontier = append(frontier,
			refEvalCandidate(c.node.left, data, leftIdx, c.depth+1, feats, cfg),
			refEvalCandidate(c.node.right, data, rightIdx, c.depth+1, feats, cfg))
	}
	for _, c := range frontier {
		refFillLeaf(t, c.node, data, c.idx)
	}
}

func refEvalCandidate(n *treeNode, data []Sample, idx []int, depth int, feats []ran.Feature, cfg TreeConfig) *refCandidate {
	c := &refCandidate{node: n, idx: idx, depth: depth}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return c
	}
	runtime := make([]float64, len(idx))
	for i, j := range idx {
		runtime[i] = float64(data[j].Runtime)
	}
	parentSSE := stats.Variance(runtime) * float64(len(idx))
	vals := make([]float64, len(idx))
	for _, f := range feats {
		for i, j := range idx {
			vals[i] = data[j].Features.Get(f)
		}
		gain, thresh, ok := refBestSplit(vals, runtime, cfg.MinLeaf)
		if ok && gain > c.gain {
			c.gain = gain
			c.feat = f
			c.thr = thresh
			c.ok = true
		}
	}
	if c.gain <= 1e-9*parentSSE {
		c.ok = false
	}
	return c
}

func refBestSplit(vals, runtime []float64, minLeaf int) (gain, threshold float64, ok bool) {
	n := len(vals)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

	prefSum := make([]float64, n+1)
	prefSq := make([]float64, n+1)
	for i, j := range order {
		r := runtime[j]
		prefSum[i+1] = prefSum[i] + r
		prefSq[i+1] = prefSq[i] + r*r
	}
	total := prefSum[n]
	totalSq := prefSq[n]
	parentSSE := totalSq - total*total/float64(n)

	best := -1.0
	bestT := 0.0
	step := n / 32
	if step < 1 {
		step = 1
	}
	for i := minLeaf; i <= n-minLeaf; i += step {
		vLeft := vals[order[i-1]]
		vRight := vals[order[i]]
		if vLeft == vRight {
			continue
		}
		nl, nr := float64(i), float64(n-i)
		sseL := prefSq[i] - prefSum[i]*prefSum[i]/nl
		sumR := total - prefSum[i]
		sseR := (totalSq - prefSq[i]) - sumR*sumR/nr
		g := parentSSE - sseL - sseR
		if g > best {
			best = g
			bestT = (vLeft + vRight) / 2
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	return best, bestT, true
}

func refFillLeaf(t *QuantileTree, n *treeNode, data []Sample, idx []int) {
	n.leaf = true
	n.leafID = len(t.leaves)
	n.ring = NewRingBuffer(DefaultRingSize)
	var runtimes []float64
	for _, j := range idx {
		n.ring.Push(data[j].Runtime)
		runtimes = append(runtimes, float64(data[j].Runtime))
	}
	n.nTrain = len(idx)
	n.meanT = stats.Mean(runtimes)
	n.stddevT = stats.StdDev(runtimes)
	t.leaves = append(t.leaves, n)
}

// profileCells is core.Profile's loop (package predictor cannot import
// core): per slot, an uplink and a downlink DAG of random payload and a MAC
// DAG, every task's runtime drawn from the cost model in isolation.
func profileCells(cells []ran.CellConfig, slots int, seed uint64) map[ran.TaskKind][]Sample {
	m := costmodel.New(seed)
	r := rng.New(seed + 1)
	env := costmodel.Env{PoolCores: 8}
	out := map[ran.TaskKind][]Sample{}
	record := func(d *ran.DAG) {
		for _, t := range d.Tasks {
			out[t.Kind] = append(out[t.Kind], Sample{Features: t.Features, Runtime: m.Sample(t.Kind, &t.Features, env)})
		}
	}
	for s := 0; s < slots; s++ {
		cell := cells[s%len(cells)]
		ulPeak := 1 + r.Intn(64*1024)
		dlPeak := 1 + r.Intn(128*1024)
		record(ran.BuildUplinkDAG(cell, s, 0, sim.FromMs(2), ran.AllocateSlot(cell, ulPeak, r)))
		record(ran.BuildDownlinkDAG(cell, s, 0, sim.FromMs(2), ran.AllocateSlot(cell, dlPeak, r)))
		record(ran.BuildMACDAG(cell, s, 0, cell.Numerology.SlotDuration(), 1+r.Intn(cell.MaxUEs)))
	}
	return out
}

// sameTree reports the first node where got and want differ: an internal
// node's feature or threshold bits, or a leaf's ID, training count, mean and
// standard deviation bits, or ring contents.
func sameTree(t *testing.T, name string, got, want *QuantileTree) {
	t.Helper()
	if len(got.leaves) != len(want.leaves) {
		t.Fatalf("%s: %d leaves, reference %d", name, len(got.leaves), len(want.leaves))
	}
	var walk func(path string, g, w *treeNode)
	walk = func(path string, g, w *treeNode) {
		switch {
		case g.leaf != w.leaf:
			t.Fatalf("%s: node %q is leaf=%v, reference leaf=%v", name, path, g.leaf, w.leaf)
		case !g.leaf:
			if g.feature != w.feature || math.Float64bits(g.threshold) != math.Float64bits(w.threshold) {
				t.Fatalf("%s: node %q splits %v <= %v, reference %v <= %v",
					name, path, g.feature, g.threshold, w.feature, w.threshold)
			}
			walk(path+"L", g.left, w.left)
			walk(path+"R", g.right, w.right)
		case g.leafID != w.leafID || g.nTrain != w.nTrain ||
			math.Float64bits(g.meanT) != math.Float64bits(w.meanT) ||
			math.Float64bits(g.stddevT) != math.Float64bits(w.stddevT):
			t.Fatalf("%s: leaf %q is id %d n %d mean %v sd %v, reference id %d n %d mean %v sd %v",
				name, path, g.leafID, g.nTrain, g.meanT, g.stddevT, w.leafID, w.nTrain, w.meanT, w.stddevT)
		case !slices.Equal(g.ring.Values(), w.ring.Values()) || g.ring.Max() != w.ring.Max():
			t.Fatalf("%s: leaf %q ring differs from the reference", name, path)
		}
	}
	walk("", got.root, want.root)
}

// TestTreeMatchesPerNodeSortReference trains every task kind of 20 MHz,
// 100 MHz and LTE profiles of 1 500 slots at two seeds (300 slots at one
// under -short) with both growers, under the default bounds, the predictor
// example's and TestTreeRespectsBounds', and requires identical trees. The presorted grower's prefix sums at a cut
// between distinct values equal the per-node sort's only while every sum of
// squared runtimes is an exact float64 integer, so each kind's Σr² is
// checked against 2^53 too.
func TestTreeMatchesPerNodeSortReference(t *testing.T) {
	slots, seeds := 1500, []uint64{42, 7}
	if testing.Short() {
		slots, seeds = 300, seeds[:1]
	}
	configs := []TreeConfig{{}, {MaxLeaves: 16, MaxDepth: 5}, {MaxDepth: 3, MinLeaf: 100, MaxLeaves: 6}}
	cells := []struct {
		name  string
		cells []ran.CellConfig
	}{
		{"20mhz", ran.Cells20MHz(2)},
		{"100mhz", ran.Cells100MHz(2)},
		{"lte", ran.CellsLTE(3)},
	}
	splits := 0
	for _, c := range cells {
		for _, seed := range seeds {
			data := profileCells(c.cells, slots, seed)
			for kind := ran.TaskKind(0); kind < ran.NumTaskKinds; kind++ {
				samples := data[kind]
				if len(samples) == 0 {
					continue
				}
				var sumSq float64
				for _, s := range samples {
					sumSq += float64(s.Runtime) * float64(s.Runtime)
				}
				if sumSq >= 1<<53 {
					t.Fatalf("%s seed %d %v: Σr² = %.3g reaches 2^53", c.name, seed, kind, sumSq)
				}
				feats := SelectFeatures(kind, samples, 6, 3)
				for _, cfg := range configs {
					name := c.name + "/" + kind.String()
					got, err := TrainQuantileTree(kind, feats, samples, cfg)
					want, refErr := trainPerNodeSortReference(kind, feats, samples, cfg)
					if (err != nil) != (refErr != nil) {
						t.Fatalf("%s seed %d %+v: error %v, reference %v", name, seed, cfg, err, refErr)
					}
					if err != nil {
						continue
					}
					sameTree(t, name, got, want)
					splits += got.NumLeaves() - 1
				}
			}
		}
	}
	if splits < 100 {
		t.Fatalf("only %d splits across every tree: the comparison saw too little growth", splits)
	}
}

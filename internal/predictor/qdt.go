package predictor

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/stats"
)

// QuantileTree is the paper's parameterized WCET predictor: a CART-style
// decision tree grown offline on isolated-vRAN profiling samples to minimize
// within-leaf runtime variance, with a ring buffer of recent runtimes in
// every leaf. Predictions take the maximum of the leaf's buffer; online
// observations replace the buffer contents without retraining the tree
// (Algorithm 2) — the mechanism that adapts predictions to interference
// from collocated workloads.
type QuantileTree struct {
	Kind   ran.TaskKind
	root   *treeNode
	leaves []*treeNode
	// splitBudget is the number of additional splits allowed while growing
	// (MaxLeaves - 1); each split turns one pending leaf into two.
	splitBudget int
	// Margin is a multiplicative safety factor applied to the leaf maximum;
	// 1.0 reproduces Algorithm 2 exactly.
	Margin float64
}

type treeNode struct {
	// Internal nodes.
	feature   ran.Feature
	threshold float64
	left      *treeNode
	right     *treeNode
	// Leaves.
	leaf    bool
	leafID  int
	ring    *RingBuffer
	nTrain  int
	meanT   float64
	stddevT float64
}

// TreeConfig bounds offline tree growth. Every leaf ring holds
// DefaultRingSize runtimes, seeded with the leaf's offline samples.
type TreeConfig struct {
	MaxDepth  int // default 10
	MinLeaf   int // default 30 samples per leaf
	MaxLeaves int // default 128
	Margin    float64
}

func (c *TreeConfig) defaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 30
	}
	if c.MaxLeaves <= 0 {
		c.MaxLeaves = 128
	}
	if c.Margin <= 0 {
		c.Margin = 1.0
	}
}

// ErrNoData is returned when training receives too few samples.
var ErrNoData = errors.New("predictor: not enough training samples")

// TrainQuantileTree grows the offline tree for one task kind on the given
// profiling dataset, restricted to the selected features (Algorithm 1's
// output). Leaf ring buffers are seeded with the offline samples so the
// predictor is usable before any online observation arrives.
func TrainQuantileTree(kind ran.TaskKind, features []ran.Feature, data []Sample, cfg TreeConfig) (*QuantileTree, error) {
	cfg.defaults()
	if len(data) < cfg.MinLeaf {
		return nil, ErrNoData
	}
	if len(features) == 0 {
		return nil, errors.New("predictor: no features selected")
	}
	t := &QuantileTree{Kind: kind, Margin: cfg.Margin, splitBudget: cfg.MaxLeaves - 1}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	t.growBestFirst(data, idx, features, cfg)
	return t, nil
}

// candidate is a growable node with its precomputed best split.
type candidate struct {
	node  *treeNode
	idx   []int
	depth int
	gain  float64
	feat  ran.Feature
	thr   float64
	ok    bool
}

// growBestFirst builds the tree by repeatedly splitting the frontier node
// whose best split yields the largest variance reduction, until the leaf
// budget is exhausted or no split improves. Best-first order matters under
// a global leaf cap: depth-first growth would spend the whole budget on one
// corner of the feature space and leave coarse giant leaves elsewhere.
func (t *QuantileTree) growBestFirst(data []Sample, rootIdx []int, feats []ran.Feature, cfg TreeConfig) {
	t.root = &treeNode{}
	frontier := []*candidate{t.evalCandidate(t.root, data, rootIdx, 0, feats, cfg)}
	for t.splitBudget > 0 {
		// Pick the best splittable candidate (frontier is small: ≤ leaves).
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
		t.splitBudget--
		c.node.feature = c.feat
		c.node.threshold = c.thr
		c.node.left = &treeNode{}
		c.node.right = &treeNode{}
		frontier = append(frontier,
			t.evalCandidate(c.node.left, data, leftIdx, c.depth+1, feats, cfg),
			t.evalCandidate(c.node.right, data, rightIdx, c.depth+1, feats, cfg))
	}
	// Everything left on the frontier becomes a leaf.
	for _, c := range frontier {
		t.fillLeaf(c.node, data, c.idx)
	}
}

// evalCandidate computes the best split available at a node.
func (t *QuantileTree) evalCandidate(n *treeNode, data []Sample, idx []int, depth int, feats []ran.Feature, cfg TreeConfig) *candidate {
	c := &candidate{node: n, idx: idx, depth: depth}
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
		gain, thresh, ok := bestSplit(vals, runtime, cfg.MinLeaf)
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

// bestSplit finds the threshold maximizing the weighted variance reduction
// for one feature, scanning up to 32 candidate cut points.
func bestSplit(vals, runtime []float64, minLeaf int) (gain, threshold float64, ok bool) {
	n := len(vals)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

	// Prefix sums over the sorted order for O(1) variance computation.
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
	// Candidate cut positions: every minLeaf-respecting boundary between
	// distinct values, subsampled to 32.
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

func (t *QuantileTree) fillLeaf(n *treeNode, data []Sample, idx []int) {
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

// findLeaf routes a feature vector to its leaf.
func (t *QuantileTree) findLeaf(f ran.FeatureVector) *treeNode {
	n := t.root
	for !n.leaf {
		if f.Get(n.feature) <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// Predict implements Algorithm 2's prediction step: the maximum of the
// matched leaf's ring buffer (times the optional safety margin).
func (t *QuantileTree) Predict(f ran.FeatureVector) sim.Time {
	leaf := t.findLeaf(f)
	return sim.Time(float64(leaf.ring.Max()) * t.Margin)
}

// Observe implements Algorithm 2's training step: push the measured runtime
// into the matched leaf's ring buffer.
func (t *QuantileTree) Observe(f ran.FeatureVector, runtime sim.Time) {
	t.findLeaf(f).ring.Push(runtime)
}

// LeafID returns the leaf index a feature vector routes to (used by the
// Fig 7 leaf-distribution analysis).
func (t *QuantileTree) LeafID(f ran.FeatureVector) int {
	return t.findLeaf(f).leafID
}

// NumLeaves returns the leaf count.
func (t *QuantileTree) NumLeaves() int { return len(t.leaves) }

// LeafSamples returns the current ring-buffer contents of leaf id as
// float64 nanoseconds.
func (t *QuantileTree) LeafSamples(id int) []float64 {
	if id < 0 || id >= len(t.leaves) {
		return nil
	}
	vals := t.leaves[id].ring.Values()
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(v)
	}
	return out
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *QuantileTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// String renders the tree structure for debugging and documentation.
func (t *QuantileTree) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "quantile tree for %v (%d leaves)\n", t.Kind, len(t.leaves))
	dump(&sb, t.root, 0)
	return sb.String()
}

func dump(sb *strings.Builder, n *treeNode, depth int) {
	pad := strings.Repeat("  ", depth)
	if n.leaf {
		fmt.Fprintf(sb, "%sleaf %d: n=%d mean=%.1fus sd=%.1fus\n",
			pad, n.leafID, n.nTrain, n.meanT/1000, n.stddevT/1000)
		return
	}
	fmt.Fprintf(sb, "%s%v <= %.1f\n", pad, n.feature, n.threshold)
	dump(sb, n.left, depth+1)
	dump(sb, n.right, depth+1)
}

func quantileOf(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }

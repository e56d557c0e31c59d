package predictor

import (
	"errors"
	"fmt"
	"math"
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

// TreeConfig bounds offline tree growth. Every leaf ring holds up to
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
	t := &QuantileTree{Kind: kind, Margin: cfg.Margin}
	t.growBestFirst(newGrower(data, features, cfg))
	return t, nil
}

// grower holds one tree's training columns, each sorted once. Every
// frontier node owns one segment [lo, hi) of order and of each sorted[k]:
// order lists the node's samples in sample order, sorted[k] lists them by
// feature k's value. A split partitions the node's segments stably in place,
// so both children's segments keep those orders and no node sorts again.
type grower struct {
	data    []Sample
	feats   []ran.Feature
	cfg     TreeConfig
	runtime []float64   // runtime[j]: sample j's runtime
	cols    [][]float64 // cols[k][j]: sample j's value of feats[k]
	order   []int
	sorted  [][]int
	scratch []int     // the right-going entries while a segment is partitioned
	buf     []float64 // a node's runtimes in sample order
}

func newGrower(data []Sample, feats []ran.Feature, cfg TreeConfig) *grower {
	n := len(data)
	g := &grower{
		data:    data,
		feats:   feats,
		cfg:     cfg,
		runtime: make([]float64, n),
		cols:    make([][]float64, len(feats)),
		order:   make([]int, n),
		sorted:  make([][]int, len(feats)),
		buf:     make([]float64, n),
	}
	for j := range data {
		g.runtime[j] = float64(data[j].Runtime)
		g.order[j] = j
	}
	// Ties are ordered by sample index, which makes the sort deterministic;
	// no result depends on the order of tied samples (see bestCut).
	spare := make([]int, n)
	for k, f := range feats {
		col := make([]float64, n)
		for j := range data {
			col[j] = data[j].Features[f]
		}
		g.cols[k] = col
		g.sorted[k], spare = radixOrder(col, make([]int, n), spare)
	}
	g.scratch = spare[:0]
	return g
}

// sortKey maps v to a key whose unsigned order is cmp.Compare's order of
// float64 values: every NaN first and all equal, then -Inf up to +Inf, with
// -0 equal to +0. It sets a positive value's sign bit and flips every bit
// of a negative one.
func sortKey(v float64) uint64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v == 0:
		v = 0 // -0 sorts as +0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixOrder lists col's indices by ascending sortKey, ties in index order:
// a stable least-significant-digit radix sort over the key's eight bytes
// that skips any byte every key shares. idx and spare are buffers of
// len(col); it returns the list, in one of them, and the other as spare.
func radixOrder(col []float64, idx, spare []int) (sorted, rest []int) {
	if len(col) == 0 {
		return idx, spare
	}
	var counts [8][256]int
	for j, v := range col {
		key := sortKey(v)
		for p := range counts {
			counts[p][byte(key>>(8*p))]++
		}
		idx[j] = j
	}
	first := sortKey(col[0])
	for p := range counts {
		shift := 8 * p
		c := &counts[p]
		if c[byte(first>>shift)] == len(col) {
			continue // every key has this byte
		}
		start := 0
		for d, m := range c {
			c[d] = start
			start += m
		}
		for _, j := range idx {
			d := byte(sortKey(col[j]) >> shift)
			spare[c[d]] = j
			c[d]++
		}
		idx, spare = spare, idx
	}
	return idx, spare
}

// candidate is a growable node with its precomputed best split.
type candidate struct {
	node   *treeNode
	lo, hi int // the node's segment
	depth  int
	gain   float64
	k      int // index of the split feature in grower.feats
	thr    float64
	ok     bool
}

// growBestFirst builds the tree by repeatedly splitting the frontier node
// whose best split yields the largest variance reduction, until the leaf
// budget is exhausted or no split improves. Best-first order matters under
// a global leaf cap: depth-first growth would spend the whole budget on one
// corner of the feature space and leave coarse giant leaves elsewhere.
func (t *QuantileTree) growBestFirst(g *grower) {
	t.root = &treeNode{}
	frontier := []*candidate{g.evalCandidate(t.root, 0, len(g.order), 0)}
	for budget := g.cfg.MaxLeaves - 1; budget > 0; {
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
		col := g.cols[c.k]
		nLeft := 0
		for _, j := range g.order[c.lo:c.hi] {
			if col[j] <= c.thr {
				nLeft++
			}
		}
		mid := c.lo + nLeft
		if nLeft < g.cfg.MinLeaf || c.hi-mid < g.cfg.MinLeaf {
			c.ok = false
			frontier = append(frontier, c)
			continue
		}
		budget--
		g.partition(g.order[c.lo:c.hi], col, c.thr)
		for _, s := range g.sorted {
			g.partition(s[c.lo:c.hi], col, c.thr)
		}
		c.node.feature = g.feats[c.k]
		c.node.threshold = c.thr
		c.node.left = &treeNode{}
		c.node.right = &treeNode{}
		frontier = append(frontier,
			g.evalCandidate(c.node.left, c.lo, mid, c.depth+1),
			g.evalCandidate(c.node.right, mid, c.hi, c.depth+1))
	}
	// Everything left on the frontier becomes a leaf.
	for _, c := range frontier {
		t.fillLeaf(c.node, g.data, g.order[c.lo:c.hi], g.buf)
	}
}

// partition moves the samples of seg with col[j] <= thr ahead of the
// others, keeping the order within each side.
func (g *grower) partition(seg []int, col []float64, thr float64) {
	right := g.scratch[:0]
	l := 0
	for _, j := range seg {
		if col[j] <= thr {
			seg[l] = j
			l++
		} else {
			right = append(right, j)
		}
	}
	copy(seg[l:], right)
}

// evalCandidate computes the best split available at the node owning the
// segment [lo, hi).
func (g *grower) evalCandidate(n *treeNode, lo, hi, depth int) *candidate {
	c := &candidate{node: n, lo: lo, hi: hi, depth: depth}
	size := hi - lo
	if depth >= g.cfg.MaxDepth || size < 2*g.cfg.MinLeaf {
		return c
	}
	runtime := g.buf[:size]
	for i, j := range g.order[lo:hi] {
		runtime[i] = g.runtime[j]
	}
	parentSSE := stats.Variance(runtime) * float64(size)
	for k := range g.feats {
		gain, thresh, ok := bestCut(g.sorted[k][lo:hi], g.cols[k], g.runtime, g.cfg.MinLeaf)
		if ok && gain > c.gain {
			c.gain = gain
			c.k = k
			c.thr = thresh
			c.ok = true
		}
	}
	if c.gain <= 1e-9*parentSSE {
		c.ok = false
	}
	return c
}

// bestCut finds the threshold maximizing the weighted variance reduction
// for one feature, scanning up to 32 candidate cut positions. order lists
// the node's samples by ascending vals; vals and runtime are indexed by its
// entries. The sums add runtimes in order's sequence. When the runtimes are
// integers whose squares sum below 2^53, every partial sum is exact, so the
// sums at a cut between distinct values (the only cuts scored) are the same
// whatever order tied samples come in.
func bestCut(order []int, vals, runtime []float64, minLeaf int) (gain, threshold float64, ok bool) {
	n := len(order)
	var total, totalSq float64
	for _, j := range order {
		r := runtime[j]
		total += r
		totalSq += r * r
	}
	parentSSE := totalSq - total*total/float64(n)

	best := -1.0
	bestT := 0.0
	// Candidate cut positions: every minLeaf-respecting boundary between
	// distinct values, subsampled to 32.
	step := max(n/32, 1)
	var sum, sumSq float64 // over order[:i]
	i := 0
	for cut := minLeaf; cut <= n-minLeaf; cut += step {
		for ; i < cut; i++ {
			r := runtime[order[i]]
			sum += r
			sumSq += r * r
		}
		vLeft := vals[order[cut-1]]
		vRight := vals[order[cut]]
		if vLeft == vRight {
			continue
		}
		nl, nr := float64(cut), float64(n-cut)
		sseL := sumSq - sum*sum/nl
		sumR := total - sum
		sseR := (totalSq - sumSq) - sumR*sumR/nr
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

// fillLeaf turns n into the next leaf, seeding its ring with the runtimes of
// the samples idx lists, in that order; buf has room for len(idx) values.
// The ring starts with room for its seeds and a quarter more (at least
// leafRingHeadroom), so the first online observations do not grow it.
func (t *QuantileTree) fillLeaf(n *treeNode, data []Sample, idx []int, buf []float64) {
	n.leaf = true
	n.leafID = len(t.leaves)
	n.ring = newRingBuffer(DefaultRingSize, len(idx)+max(len(idx)/4, leafRingHeadroom))
	runtimes := buf[:len(idx)]
	for i, j := range idx {
		n.ring.Push(data[j].Runtime)
		runtimes[i] = float64(data[j].Runtime)
	}
	n.nTrain = len(idx)
	n.meanT = stats.Mean(runtimes)
	n.stddevT = stats.StdDev(runtimes)
	t.leaves = append(t.leaves, n)
}

// leafRingHeadroom is the least spare room a trained leaf's ring starts with.
const leafRingHeadroom = 16

// findLeaf routes a feature vector to its leaf.
func (t *QuantileTree) findLeaf(f ran.FeatureVector) *treeNode {
	n := t.root
	for !n.leaf {
		if f[n.feature] <= n.threshold {
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

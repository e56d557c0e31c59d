package predictor

import (
	"errors"
	"sort"

	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/stats"
)

// residualTracker maintains a bounded window of prediction residuals and
// serves their high quantile — the machinery that turns a mean-regression
// model into a probabilistic WCET predictor (prediction interval 0.99999,
// as §6.4 configures the baselines).
type residualTracker struct {
	window []float64
	next   int
	full   bool
	q      float64
	// cached quantile, refreshed lazily every refreshEvery pushes
	cached  float64
	pending int
}

const residualWindow = 20000
const refreshEvery = 256

func newResidualTracker(q float64) *residualTracker {
	return &residualTracker{window: make([]float64, 0, residualWindow), q: q}
}

func (r *residualTracker) push(v float64) {
	if len(r.window) < cap(r.window) {
		r.window = append(r.window, v)
	} else {
		r.full = true
		r.window[r.next] = v
		r.next = (r.next + 1) % len(r.window)
	}
	r.pending++
	if r.pending >= refreshEvery || (!r.full && r.pending >= 32) {
		r.refresh()
	}
}

func (r *residualTracker) refresh() {
	r.pending = 0
	if len(r.window) == 0 {
		r.cached = 0
		return
	}
	r.cached = stats.Quantile(r.window, r.q)
}

func (r *residualTracker) quantile() float64 {
	if r.pending > 0 && r.cached == 0 {
		r.refresh()
	}
	return r.cached
}

// LinearPredictor is the linear-regression WCET baseline of Fig 14: an OLS
// mean model over the selected features plus a high quantile of its
// residuals.
type LinearPredictor struct {
	Features  []ran.Feature
	model     *stats.OLS
	residuals *residualTracker
}

// TrainLinear fits the baseline on offline profiling data with the given
// prediction interval (the paper uses 0.99999).
func TrainLinear(features []ran.Feature, data []Sample, interval float64) (*LinearPredictor, error) {
	if len(data) < 10 {
		return nil, ErrNoData
	}
	X := make([][]float64, len(data))
	y := make([]float64, len(data))
	for i, s := range data {
		X[i] = s.Features.Select(features)
		y[i] = float64(s.Runtime)
	}
	m, err := stats.FitOLS(X, y)
	if err != nil {
		return nil, err
	}
	p := &LinearPredictor{Features: features, model: m, residuals: newResidualTracker(interval)}
	for i := range X {
		p.residuals.push(y[i] - m.Predict(X[i]))
	}
	p.residuals.refresh()
	return p, nil
}

// Predict returns mean prediction plus the residual quantile.
func (p *LinearPredictor) Predict(f ran.FeatureVector) sim.Time {
	v := p.model.Predict(f.Select(p.Features)) + p.residuals.quantile()
	if v < 0 {
		v = 0
	}
	return sim.Time(v)
}

// Observe updates the residual window online.
func (p *LinearPredictor) Observe(f ran.FeatureVector, runtime sim.Time) {
	p.residuals.push(float64(runtime) - p.model.Predict(f.Select(p.Features)))
}

// GradientBoosting is the non-linear baseline of Fig 14: shallow regression
// trees fit on residuals (stage-wise), with the same residual-quantile
// mechanism for the WCET interval.
type GradientBoosting struct {
	Features  []ran.Feature
	base      float64
	stages    []*regTree
	residuals *residualTracker
}

// Boosting's bounds: at most gbRounds stages of depth-gbDepth trees with at
// least gbMinLeaf samples per leaf, each stage scaled by gbLearnRate, and
// the WCET interval at the gbInterval residual quantile.
const (
	gbRounds    = 30
	gbDepth     = 3
	gbMinLeaf   = 20
	gbLearnRate = 0.3
	gbInterval  = 0.99999
)

// TrainGradientBoosting fits the boosted mean model plus residual interval.
func TrainGradientBoosting(features []ran.Feature, data []Sample) (*GradientBoosting, error) {
	if len(data) < 2*gbMinLeaf {
		return nil, ErrNoData
	}
	X := make([][]float64, len(data))
	y := make([]float64, len(data))
	for i, s := range data {
		X[i] = s.Features.Select(features)
		y[i] = float64(s.Runtime)
	}
	g := &GradientBoosting{
		Features:  features,
		base:      stats.Mean(y),
		residuals: newResidualTracker(gbInterval),
	}
	resid := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range y {
		pred[i] = g.base
	}
	for round := 0; round < gbRounds; round++ {
		for i := range y {
			resid[i] = y[i] - pred[i]
		}
		tree := growRegTree(X, resid, gbDepth, gbMinLeaf)
		if tree == nil {
			break
		}
		g.stages = append(g.stages, tree)
		for i := range y {
			pred[i] += gbLearnRate * tree.predict(X[i])
		}
	}
	for i := range y {
		g.residuals.push(y[i] - pred[i])
	}
	g.residuals.refresh()
	return g, nil
}

func (g *GradientBoosting) mean(x []float64) float64 {
	v := g.base
	for _, s := range g.stages {
		v += gbLearnRate * s.predict(x)
	}
	return v
}

// Predict returns the boosted mean plus the residual quantile.
func (g *GradientBoosting) Predict(f ran.FeatureVector) sim.Time {
	v := g.mean(f.Select(g.Features)) + g.residuals.quantile()
	if v < 0 {
		v = 0
	}
	return sim.Time(v)
}

// Observe updates the residual window online.
func (g *GradientBoosting) Observe(f ran.FeatureVector, runtime sim.Time) {
	g.residuals.push(float64(runtime) - g.mean(f.Select(g.Features)))
}

// regTree is a small CART regression tree predicting residual means.
type regTree struct {
	feature   int
	threshold float64
	left      *regTree
	right     *regTree
	leaf      bool
	value     float64
}

func growRegTree(X [][]float64, y []float64, depth, minLeaf int) *regTree {
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	return growRegTreeIdx(X, y, idx, depth, minLeaf)
}

func growRegTreeIdx(X [][]float64, y []float64, idx []int, depth, minLeaf int) *regTree {
	if len(idx) == 0 {
		return nil
	}
	mean := 0.0
	for _, j := range idx {
		mean += y[j]
	}
	mean /= float64(len(idx))
	if depth == 0 || len(idx) < 2*minLeaf {
		return &regTree{leaf: true, value: mean}
	}
	nFeats := len(X[idx[0]])
	vals := make([]float64, len(idx))
	sub := make([]float64, len(idx))
	for i, j := range idx {
		sub[i] = y[j]
	}
	bestGain, bestFeat, bestThresh := 0.0, -1, 0.0
	for f := 0; f < nFeats; f++ {
		for i, j := range idx {
			vals[i] = X[j][f]
		}
		gain, thresh, ok := bestSplit(vals, sub, minLeaf)
		if ok && gain > bestGain {
			bestGain, bestFeat, bestThresh = gain, f, thresh
		}
	}
	if bestFeat < 0 {
		return &regTree{leaf: true, value: mean}
	}
	var l, r []int
	for _, j := range idx {
		if X[j][bestFeat] <= bestThresh {
			l = append(l, j)
		} else {
			r = append(r, j)
		}
	}
	if len(l) < minLeaf || len(r) < minLeaf {
		return &regTree{leaf: true, value: mean}
	}
	return &regTree{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      growRegTreeIdx(X, y, l, depth-1, minLeaf),
		right:     growRegTreeIdx(X, y, r, depth-1, minLeaf),
	}
}

// bestSplit sorts a node's values and scores its cuts with bestCut. Unlike
// the quantile tree, boosting sorts every node afresh: its residuals are not
// integers, so a prefix sum depends on the order of tied values, and
// presorted columns would order ties differently from sort.Slice.
func bestSplit(vals, resid []float64, minLeaf int) (gain, threshold float64, ok bool) {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	return bestCut(order, vals, resid, minLeaf)
}

func (t *regTree) predict(x []float64) float64 {
	for !t.leaf {
		if x[t.feature] <= t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t.value
}

// EVTPredictor is the conventional probabilistic-WCET baseline (§6.3, [23]):
// a single task-wide WCET at the configured confidence, oblivious to input
// parameters. The tail is fitted with a generalized Pareto distribution over
// a sliding window and refitted periodically online.
type EVTPredictor struct {
	Confidence float64
	window     []float64
	next       int
	cached     sim.Time
	pending    int
	empMax     float64
}

// EVTWindow bounds the sample window used for tail fitting.
const EVTWindow = 50000

// TrainEVT fits the single-value predictor on offline data.
func TrainEVT(data []Sample, confidence float64) (*EVTPredictor, error) {
	if len(data) < 100 {
		return nil, ErrNoData
	}
	if confidence <= 0 || confidence >= 1 {
		return nil, errors.New("predictor: confidence must be in (0,1)")
	}
	p := &EVTPredictor{Confidence: confidence, window: make([]float64, 0, EVTWindow)}
	for _, s := range data {
		p.pushSample(float64(s.Runtime))
	}
	p.refit()
	return p, nil
}

func (p *EVTPredictor) pushSample(v float64) {
	if v > p.empMax {
		p.empMax = v
	}
	if len(p.window) < cap(p.window) {
		p.window = append(p.window, v)
	} else {
		p.window[p.next] = v
		p.next = (p.next + 1) % len(p.window)
	}
	p.pending++
}

func (p *EVTPredictor) refit() {
	p.pending = 0
	g, err := stats.FitGPDTail(p.window, 0.9)
	if err != nil {
		// Fall back to the empirical max when the tail fit is infeasible.
		p.cached = sim.Time(p.empMax)
		return
	}
	v := g.Quantile(p.Confidence)
	// Never predict below the empirical maximum seen: measurement-based
	// pWCET methods clamp to observed evidence.
	if v < p.empMax {
		v = p.empMax
	}
	p.cached = sim.Time(v)
}

// Predict returns the single fitted WCET regardless of input features.
func (p *EVTPredictor) Predict(ran.FeatureVector) sim.Time { return p.cached }

// Observe updates the sliding window, refitting every 2048 observations.
func (p *EVTPredictor) Observe(_ ran.FeatureVector, runtime sim.Time) {
	p.pushSample(float64(runtime))
	if p.pending >= 2048 {
		p.refit()
	}
}

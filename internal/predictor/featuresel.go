package predictor

import (
	"sort"

	"concordia/internal/ran"
	"concordia/internal/stats"
)

// HandPicked lists the domain-expert feature choices of Algorithm 1 — the
// parameters §4.1 identifies as driving each task family's runtime.
var HandPicked = map[ran.TaskKind][]ran.Feature{
	ran.TaskLDPCDecode:        {ran.FCodeblocks, ran.FSNRdB},
	ran.TaskLDPCEncode:        {ran.FCodeblocks},
	ran.TaskChannelEstimation: {ran.FPRBs, ran.FAntennas},
	ran.TaskEqualization:      {ran.FPRBs, ran.FLayers},
	ran.TaskDemodulation:      {ran.FTBSBits, ran.FModOrder},
	ran.TaskModulation:        {ran.FTBSBits, ran.FModOrder},
	ran.TaskPrecoding:         {ran.FPRBs, ran.FAntennas},
	ran.TaskRateDematch:       {ran.FTBSBits},
	ran.TaskRateMatch:         {ran.FTBSBits},
	ran.TaskFFT:               {ran.FPRBs},
	ran.TaskIFFT:              {ran.FPRBs},
	ran.TaskCRCCheck:          {ran.FTBSBits},
	ran.TaskPolarDecode:       {ran.FNumUEs},
	ran.TaskPolarEncode:       {ran.FNumUEs},
	ran.TaskMACUplinkSched:    {ran.FNumUEs, ran.FLayers},
	ran.TaskMACDownlinkSched:  {ran.FNumUEs, ran.FLayers},
	ran.TaskMACBuild:          {ran.FNumUEs},
	ran.TaskTurboDecode:       {ran.FCodeblocks, ran.FSNRdB},
	ran.TaskTurboEncode:       {ran.FCodeblocks},
}

// SelectFeatures implements the feature-selection pipeline of Algorithm 1:
// rank all features by distance correlation with the runtime, keep the top
// topN, refine to keepM by backwards elimination against a linear model,
// then union with the hand-picked features for the task.
//
// dcor is O(n²), so above dcorSamples observations the routine keeps every
// stride-th one, stride = len(data)/dcorSamples rounded down, as the paper's
// offline pandas/R pipeline effectively subsamples. That keeps fewer than
// 2·dcorSamples: 402 of 12 835 LDPC-decode samples at the default profiling
// length, and every sample of a kind with 401–799.
// A different stride would keep other samples and so change every tree.
func SelectFeatures(kind ran.TaskKind, data []Sample, topN, keepM int) []ran.Feature {
	const dcorSamples = 400
	if topN <= 0 {
		topN = 6
	}
	if keepM <= 0 || keepM > topN {
		keepM = topN
	}
	sub := data
	if len(sub) > dcorSamples {
		stride := len(sub) / dcorSamples
		picked := make([]Sample, 0, dcorSamples)
		for i := 0; i < len(sub); i += stride {
			picked = append(picked, sub[i])
		}
		sub = picked
	}
	runtime := make([]float64, len(sub))
	for i, s := range sub {
		runtime[i] = float64(s.Runtime)
	}

	// Rank by distance correlation.
	type scored struct {
		f ran.Feature
		d float64
	}
	var ranks []scored
	col := make([]float64, len(sub))
	for f := ran.Feature(0); f < ran.NumFeatures; f++ {
		varies := false
		for i, s := range sub {
			col[i] = s.Features.Get(f)
			if i > 0 && col[i] != col[0] {
				varies = true
			}
		}
		if !varies {
			continue
		}
		ranks = append(ranks, scored{f, stats.DistanceCorrelation(col, runtime)})
	}
	sort.SliceStable(ranks, func(a, b int) bool { return ranks[a].d > ranks[b].d })
	if len(ranks) > topN {
		ranks = ranks[:topN]
	}
	candidates := make([]ran.Feature, len(ranks))
	for i, r := range ranks {
		candidates[i] = r.f
	}

	// Backwards elimination: repeatedly drop the feature whose removal
	// degrades the linear fit least, until keepM remain.
	selected := backwardsEliminate(sub, runtime, candidates, keepM)

	// Union with hand-picked features, preserving order and uniqueness.
	out := append([]ran.Feature(nil), HandPicked[kind]...)
	seen := map[ran.Feature]bool{}
	for _, f := range out {
		seen[f] = true
	}
	for _, f := range selected {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func backwardsEliminate(data []Sample, y []float64, feats []ran.Feature, keep int) []ran.Feature {
	current := append([]ran.Feature(nil), feats...)
	// Every trial builds its design matrix in the same two buffers.
	X := make([][]float64, len(data))
	cells := make([]float64, len(data)*len(feats))
	for len(current) > keep {
		bestR2 := -1.0
		bestDrop := -1
		for drop := range current {
			trial := make([]ran.Feature, 0, len(current)-1)
			trial = append(trial, current[:drop]...)
			trial = append(trial, current[drop+1:]...)
			r2 := fitR2(X, cells, data, y, trial)
			if r2 > bestR2 {
				bestR2 = r2
				bestDrop = drop
			}
		}
		if bestDrop < 0 {
			break
		}
		current = append(current[:bestDrop], current[bestDrop+1:]...)
	}
	return current
}

// fitR2 returns the R² of the OLS fit of y on feats. It builds the design
// matrix in X, one row per sample, with row i at cells[i*k : (i+1)*k] for
// k = len(feats); cells must hold len(data)*k values.
func fitR2(X [][]float64, cells []float64, data []Sample, y []float64, feats []ran.Feature) float64 {
	if len(feats) == 0 {
		return 0
	}
	k := len(feats)
	for i := range data {
		row := cells[i*k : (i+1)*k]
		for j, f := range feats {
			row[j] = data[i].Features[f]
		}
		X[i] = row
	}
	m, err := stats.FitOLS(X, y)
	if err != nil {
		return -1
	}
	return m.RSquared(X, y)
}

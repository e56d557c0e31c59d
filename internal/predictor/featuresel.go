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
	stride := 1
	if len(data) > dcorSamples {
		stride = len(data) / dcorSamples
	}
	n := (len(data) + stride - 1) / stride // the samples kept: data[i*stride] for i < n

	// Only a feature that varies across the kept samples can rank.
	var feats []ran.Feature
	for f := ran.Feature(0); f < ran.NumFeatures; f++ {
		for i := 1; i < n; i++ {
			if data[i*stride].Features[f] != data[0].Features[f] {
				feats = append(feats, f)
				break
			}
		}
	}
	// One array holds the runtime column, each varying feature's column
	// (cols[f], nil for a constant feature) and the scratch of the distance
	// correlations.
	k := len(feats)
	buf := make([]float64, (k+1)*n+(k+2)*n+3*k)
	runtime := buf[:n]
	for i := range runtime {
		runtime[i] = float64(data[i*stride].Runtime)
	}
	var cols [ran.NumFeatures][]float64
	varying := make([][]float64, k)
	for c, f := range feats {
		col := buf[(c+1)*n : (c+2)*n]
		for i := range col {
			col[i] = data[i*stride].Features[f]
		}
		cols[f] = col
		varying[c] = col
	}

	// Rank by distance correlation, every column against the one runtime
	// column in a single pass.
	dcor := make([]float64, k)
	stats.DistanceCorrelations(dcor, varying, runtime, buf[(k+1)*n:])
	type scored struct {
		f ran.Feature
		d float64
	}
	ranks := make([]scored, len(feats))
	for i, f := range feats {
		ranks[i] = scored{f, dcor[i]}
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
	selected := backwardsEliminate(&cols, runtime, candidates, keepM)

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

// backwardsEliminate fits y on feats and drops features until keep remain;
// cols[f] is feature f's column, one value per entry of y.
func backwardsEliminate(cols *[ran.NumFeatures][]float64, y []float64, feats []ran.Feature, keep int) []ran.Feature {
	current := append([]ran.Feature(nil), feats...)
	// Every trial builds its design matrix in the same two buffers.
	X := make([][]float64, len(y))
	cells := make([]float64, len(y)*len(feats))
	for len(current) > keep {
		bestR2 := -1.0
		bestDrop := -1
		for drop := range current {
			trial := make([]ran.Feature, 0, len(current)-1)
			trial = append(trial, current[:drop]...)
			trial = append(trial, current[drop+1:]...)
			r2 := fitR2(X, cells, cols, y, trial)
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

// fitR2 returns the R² of the OLS fit of y on feats, whose columns cols
// holds. It builds the design matrix in X, one row per sample, with row i at
// cells[i*k : (i+1)*k] for k = len(feats); cells must hold len(y)*k values.
func fitR2(X [][]float64, cells []float64, cols *[ran.NumFeatures][]float64, y []float64, feats []ran.Feature) float64 {
	if len(feats) == 0 {
		return 0
	}
	k := len(feats)
	for i := range y {
		row := cells[i*k : (i+1)*k]
		for j, f := range feats {
			row[j] = cols[f][i]
		}
		X[i] = row
	}
	m, err := stats.FitOLS(X, y)
	if err != nil {
		return -1
	}
	return m.RSquared(X, y)
}

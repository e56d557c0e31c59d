package stats

import "math"

// dcorStackRows is the largest sample count whose row means DistanceCorrelation
// keeps on the stack; feature selection subsamples to fewer than 800 rows.
const dcorStackRows = 1024

// DistanceCorrelation returns the Székely-Rizzo distance correlation between
// x and y, a dependence measure in [0, 1] that is zero iff the variables are
// independent (for finite first moments). Unlike Pearson correlation it
// detects non-linear and non-monotonic relationships, which is why the paper
// uses it for feature selection (Algorithm 1).
//
// The O(n^2) pairwise-distance formulation is used; callers subsample large
// datasets before invoking it, as the paper's offline pipeline does. Each
// double-centered distance is formed inside the sum loop from the row means,
// so no n×n matrix is built, and inputs of up to 1024 samples allocate
// nothing.
func DistanceCorrelation(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0
	}
	var stack [2 * dcorStackRows]float64
	means := stack[:]
	if n > dcorStackRows {
		means = make([]float64, 2*n)
	}
	rowX, rowY := means[:n], means[n:2*n]
	grandX := rowMeans(x, rowX)
	grandY := rowMeans(y, rowY)
	var dcov, dvarX, dvarY float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := math.Abs(x[i]-x[j]) - rowX[i] - rowX[j] + grandX
			b := math.Abs(y[i]-y[j]) - rowY[i] - rowY[j] + grandY
			dcov += a * b
			dvarX += a * a
			dvarY += b * b
		}
	}
	nn := float64(n * n)
	dcov /= nn
	dvarX /= nn
	dvarY /= nn
	denom := math.Sqrt(dvarX * dvarY)
	if denom == 0 {
		return 0
	}
	v := math.Sqrt(dcov) / math.Sqrt(denom)
	if math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// rowMeans sets mean[i] to the mean distance from x[i] to every x[j] and
// returns the grand mean: the terms that double-center the distance matrix.
func rowMeans(x, mean []float64) float64 {
	n := float64(len(x))
	var grand float64
	for i, xi := range x {
		var s float64
		for _, xj := range x {
			s += math.Abs(xi - xj)
		}
		mean[i] = s / n
		grand += mean[i]
	}
	return grand / n
}

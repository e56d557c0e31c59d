// Package stats provides the statistical toolkit the reproduction depends
// on: exact and tail quantiles, log-bucketed latency histograms (the shape
// runqlat reports), two-sample Kolmogorov-Smirnov testing, Wasserstein-1
// distance, Székely-Rizzo distance correlation, ordinary least squares, and
// generalized-Pareto tail fitting for the EVT pWCET baseline.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the largest element of xs; it panics on empty input.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics, copying and sorting internally. q is clamped to [0,1];
// the quantile of an empty sample is defined as 0 (NaN would propagate into
// CSV/metrics exports downstream).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for pre-sorted input, without allocation.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// Clamp q into [0,1]; NaN (for which both comparisons fail) would turn
	// into an out-of-range index below, so it clamps low too.
	if q >= 1 {
		return sorted[n-1]
	}
	if !(q > 0) {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles evaluates several quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = QuantileSorted(s, q)
	}
	return out
}

// ECDF returns the empirical CDF of xs evaluated at x: the fraction of
// samples <= x. sorted must be pre-sorted.
func ECDF(sorted []float64, x float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, x)
	// Move past duplicates equal to x so the CDF counts them.
	for i < len(sorted) && sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(sorted))
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic D: the
// maximum absolute difference between the empirical CDFs of a and b.
func KSStatistic(a, b []float64) float64 {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		// Advance both walkers past all samples equal to the smaller head so
		// ties contribute a single CDF step on each side.
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSPValue approximates the two-sample KS p-value for statistic d with
// sample sizes n and m, using the asymptotic Kolmogorov distribution.
func KSPValue(d float64, n, m int) float64 {
	if n == 0 || m == 0 {
		return 1
	}
	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	// Q(lambda) = 2 sum_{k=1..inf} (-1)^{k-1} exp(-2 k^2 lambda^2)
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Wasserstein1 returns the 1-Wasserstein (earth mover's) distance between
// the empirical distributions of a and b, computed as the L1 distance
// between inverse CDFs.
func Wasserstein1(a, b []float64) float64 {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if len(sa) == 0 || len(sb) == 0 {
		return math.NaN()
	}
	// Merge the quantile grids of both samples.
	all := make([]float64, 0, len(sa)+len(sb))
	all = append(all, sa...)
	all = append(all, sb...)
	sort.Float64s(all)
	var d float64
	for i := 0; i+1 < len(all); i++ {
		dx := all[i+1] - all[i]
		if dx == 0 {
			continue
		}
		mid := (all[i+1] + all[i]) / 2
		d += math.Abs(ECDF(sa, mid)-ECDF(sb, mid)) * dx
	}
	return d
}

// Correlation returns the Pearson correlation coefficient between x and y.
func Correlation(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

package stats

import "math"

// DistanceCorrelations sets out[c] to the Székely-Rizzo distance correlation
// between cols[c] and y, for every column. Distance correlation is a
// dependence measure in [0, 1] that is zero iff the variables are
// independent (for finite first moments). Unlike Pearson correlation it
// detects non-linear and non-monotonic relationships, which is why the paper
// uses it for feature selection (Algorithm 1), scoring every feature column
// against the one runtime column.
//
// The O(n^2) pairwise-distance formulation is used; callers subsample large
// datasets before invoking it, as the paper's offline pipeline does. Each
// double-centered distance is formed inside the sum loop from the row means,
// so no n×n matrix is built. y's row means, its centered distances from each
// row and its distance variance are computed once and shared by every
// column, while each column's sums add the same terms in the same (i, j)
// order as one column scored alone, so every score keeps its bits.
//
// Every column must have len(y) entries. scratch holds the row means and
// sums: given at least (len(cols)+2)*len(y) + 3*len(cols) values the call
// allocates nothing, and a shorter scratch is replaced by a fresh one.
func DistanceCorrelations(out []float64, cols [][]float64, y, scratch []float64) {
	n, k := len(y), len(cols)
	out = out[:k]
	for _, x := range cols {
		if len(x) != n {
			panic("stats: distance correlation columns differ in length")
		}
	}
	if n < 2 {
		clear(out)
		return
	}
	if need := (k+2)*n + 3*k; len(scratch) < need {
		scratch = make([]float64, need)
	}
	rowY, bRow := scratch[:n], scratch[n:2*n]
	rowX := scratch[2*n : (k+2)*n]
	sums := scratch[(k+2)*n : (k+2)*n+3*k]
	grandX, dcov, dvarX := sums[:k], sums[k:2*k], sums[2*k:]
	clear(dcov)
	clear(dvarX)
	grandY := rowMeans(y, rowY)
	for c, x := range cols {
		grandX[c] = rowMeans(x, rowX[c*n:(c+1)*n])
	}
	var dvarY float64
	for i := 0; i < n; i++ {
		// Row i's centered distances of y, shared by every column.
		yi, ri := y[i], rowY[i]
		for j, yj := range y {
			b := math.Abs(yi-yj) - ri - rowY[j] + grandY
			bRow[j] = b
			dvarY += b * b
		}
		for c, x := range cols {
			dcov[c], dvarX[c] = addRow(dcov[c], dvarX[c], x, rowX[c*n:(c+1)*n], grandX[c], i, bRow)
		}
	}
	nn := float64(n * n)
	dvarY /= nn
	for c := range out {
		out[c] = dcorFromSums(dcov[c]/nn, dvarX[c]/nn, dvarY)
	}
}

// addRow adds row i's terms to one column's distance covariance with y and
// its distance variance, given the column x, its row means and grand mean,
// and y's centered distances from row i, and returns both sums.
//
// Inlined into DistanceCorrelations' loops, the loop below keeps its index
// on the stack instead of in a register, which makes training 10-15 %
// slower; as a call of its own it does not.
//
//go:noinline
func addRow(cov, varX float64, x, mean []float64, grand float64, i int, bRow []float64) (float64, float64) {
	x, mean = x[:len(bRow)], mean[:len(bRow)]
	xi, mi := x[i], mean[i]
	for j, b := range bRow {
		a := math.Abs(xi-x[j]) - mi - mean[j] + grand
		cov += a * b
		varX += a * a
	}
	return cov, varX
}

// dcorFromSums returns the distance correlation given the distance
// covariance and both distance variances.
func dcorFromSums(dcov, dvarX, dvarY float64) float64 {
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
// Four rows are summed at once, each in its own accumulator and in j order,
// so every mean has the bits of a row summed alone.
func rowMeans(x, mean []float64) float64 {
	n := float64(len(x))
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		var s0, s1, s2, s3 float64
		for _, xj := range x {
			s0 += math.Abs(x0 - xj)
			s1 += math.Abs(x1 - xj)
			s2 += math.Abs(x2 - xj)
			s3 += math.Abs(x3 - xj)
		}
		mean[i], mean[i+1], mean[i+2], mean[i+3] = s0/n, s1/n, s2/n, s3/n
	}
	for ; i < len(x); i++ {
		var s float64
		for _, xj := range x {
			s += math.Abs(x[i] - xj)
		}
		mean[i] = s / n
	}
	var grand float64
	for _, m := range mean[:len(x)] {
		grand += m
	}
	return grand / n
}

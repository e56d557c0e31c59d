package stats

import (
	"math"
	"testing"

	"concordia/internal/rng"
)

// distanceCorrelationMatrix is the textbook form of DistanceCorrelations: it
// builds both double-centered n×n distance matrices, then sums their
// products. It is the reference the streaming form must match bit for bit.
func distanceCorrelationMatrix(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0
	}
	a := centeredDistances(x)
	b := centeredDistances(y)
	var dcov, dvarX, dvarY float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dcov += a[i][j] * b[i][j]
			dvarX += a[i][j] * a[i][j]
			dvarY += b[i][j] * b[i][j]
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

// centeredDistances returns the double-centered pairwise distance matrix.
func centeredDistances(x []float64) [][]float64 {
	n := len(x)
	d := make([][]float64, n)
	rowMean := make([]float64, n)
	var grand float64
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Abs(x[i] - x[j])
			d[i][j] = v
			rowMean[i] += v
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i][j] = d[i][j] - rowMean[i] - rowMean[j] + grand
		}
	}
	return d
}

// dcorColumns returns the columns the batched form is checked on, all of n
// rows: one from each generator, a constant one and one that varies in its
// last row only.
func dcorColumns(n int, cont, ties func() float64) [][]float64 {
	cols := make([][]float64, 4)
	for c := range cols {
		cols[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		cols[0][i] = cont()
		cols[1][i] = ties()
		cols[2][i] = 3
		cols[3][i] = 1
	}
	if n > 0 {
		cols[3][n-1] = 2
	}
	return cols
}

func TestDistanceCorrelationMatchesMatrixForm(t *testing.T) {
	r := rng.New(11)
	cont := func() float64 { return r.LogNormal(0, 1) }
	// Integer values from a small range: many tied distances, and
	// columns like the codeblock and UE counts feature selection sees.
	ties := func() float64 { return float64(r.Intn(6)) }
	// The runtime column depends on one generator's column, plus noise from
	// the same generator.
	gens := []struct {
		name string
		col  int
		draw func() float64
	}{
		{"continuous", 0, cont},
		{"ties", 1, ties},
	}
	// 1025 is past every row count feature selection sends (fewer than 800).
	for _, n := range []int{0, 1, 2, 3, 17, 100, 399, 400, 799, 800, 1025} {
		for _, g := range gens {
			cols := dcorColumns(n, cont, ties)
			y := make([]float64, n)
			for i := range y {
				y[i] = 0.5*cols[g.col][i] + g.draw()
			}
			got := make([]float64, len(cols))
			DistanceCorrelations(got, cols, y, nil)
			for c, x := range cols {
				if want := distanceCorrelationMatrix(x, y); math.Float64bits(got[c]) != math.Float64bits(want) {
					t.Errorf("%s n=%d column %d: dcor %v, matrix form %v", g.name, n, c, got[c], want)
				}
			}
		}
	}
	// A column against itself and a non-monotone dependence.
	n := 1025
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = x[i] * x[i]
	}
	cols := [][]float64{x, y}
	got := make([]float64, len(cols))
	DistanceCorrelations(got, cols, y, nil)
	for c, col := range cols {
		if want := distanceCorrelationMatrix(col, y); math.Float64bits(got[c]) != math.Float64bits(want) {
			t.Errorf("n=%d column %d: dcor %v, matrix form %v", n, c, got[c], want)
		}
	}
}

func TestDistanceCorrelationAllocFree(t *testing.T) {
	r := rng.New(12)
	const n = 800
	cols := make([][]float64, 3)
	for c := range cols {
		cols[c] = make([]float64, n)
	}
	y := make([]float64, n)
	for i := range y {
		for _, col := range cols {
			col[i] = r.Float64()
		}
		y[i] = r.Float64()
	}
	out := make([]float64, len(cols))
	scratch := make([]float64, (len(cols)+2)*n+3*len(cols))
	if allocs := testing.AllocsPerRun(5, func() { DistanceCorrelations(out, cols, y, scratch) }); allocs != 0 {
		t.Fatalf("DistanceCorrelations allocates %v times per call at n=%d", allocs, n)
	}
}

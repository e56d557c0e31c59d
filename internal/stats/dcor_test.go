package stats

import (
	"math"
	"testing"

	"concordia/internal/rng"
)

// distanceCorrelationMatrix is the textbook form of DistanceCorrelation: it
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

func TestDistanceCorrelationMatchesMatrixForm(t *testing.T) {
	r := rng.New(11)
	gens := []struct {
		name string
		draw func() float64
	}{
		{"continuous", func() float64 { return r.LogNormal(0, 1) }},
		// Integer values from a small range: many tied distances, and
		// columns like the codeblock and UE counts feature selection sees.
		{"ties", func() float64 { return float64(r.Intn(6)) }},
	}
	for _, g := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 100, 399, 400, 799, 800} {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = g.draw()
				y[i] = 0.5*x[i] + g.draw()
			}
			got, want := DistanceCorrelation(x, y), distanceCorrelationMatrix(x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s n=%d: dcor %v, matrix form %v", g.name, n, got, want)
			}
		}
	}
	// Past the stack-held row means, the heap fallback must agree too.
	n := dcorStackRows + 1
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = x[i] * x[i]
	}
	got, want := DistanceCorrelation(x, y), distanceCorrelationMatrix(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("n=%d: dcor %v, matrix form %v", n, got, want)
	}
}

func TestDistanceCorrelationAllocFree(t *testing.T) {
	r := rng.New(12)
	x := make([]float64, 800)
	y := make([]float64, 800)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = DistanceCorrelation(x, y) }); allocs != 0 {
		t.Fatalf("DistanceCorrelation allocates %v times per call at n=800", allocs)
	}
}

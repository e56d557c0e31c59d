package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"concordia/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance %v want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("stddev %v want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("variance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	if m := Max([]float64{3, -1, 7, 2}); m != 7 {
		t.Fatalf("max %v want 7", m)
	}
}

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v)=%v want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("interpolated median %v want 5", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.LogNormal(0, 1)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := Quantile(xs, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileEmpty(t *testing.T) {
	// Empty samples are defined to have quantile 0 (not NaN, which would
	// propagate into report strings and CSV exports).
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile of empty = %v, want 0", got)
	}
	if got := QuantileSorted(nil, 0.99); got != 0 {
		t.Fatalf("sorted quantile of empty = %v, want 0", got)
	}
}

func TestQuantileClampsQ(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Quantile(xs, -0.5); got != 1 {
		t.Fatalf("q<0 must clamp to min: got %v", got)
	}
	if got := Quantile(xs, 1.5); got != 3 {
		t.Fatalf("q>1 must clamp to max: got %v", got)
	}
	if got := Quantile(xs, math.NaN()); got != 1 {
		t.Fatalf("NaN q must clamp low: got %v", got)
	}
}

// Regression: TailRecorder.Quantile with q > 1 computed a negative rank and
// indexed past the end of the exactly-tracked tail buffer, panicking.
func TestTailRecorderQuantileClampsQ(t *testing.T) {
	r := rng.New(5)
	tr := NewTailRecorder(8, 64, r.Intn)
	for i := 1; i <= 100; i++ {
		tr.Observe(float64(i))
	}
	if got := tr.Quantile(1.5); got != tr.Max() {
		t.Fatalf("q>1 must clamp to max: got %v want %v", got, tr.Max())
	}
	if got := tr.Quantile(1); got != tr.Max() {
		t.Fatalf("q=1 must be max: got %v", got)
	}
	if got := tr.Quantile(-3); got > tr.Quantile(0.5) {
		t.Fatalf("q<0 must clamp low: got %v", got)
	}
	if got := tr.Quantile(math.NaN()); got > tr.Quantile(0.5) {
		t.Fatalf("NaN q must clamp low: got %v", got)
	}
}

func TestTailRecorderEmptyQuantile(t *testing.T) {
	r := rng.New(5)
	tr := NewTailRecorder(8, 64, r.Intn)
	for _, q := range []float64{0, 0.5, 0.9999, 1, 2, -1} {
		if got := tr.Quantile(q); got != 0 {
			t.Fatalf("empty recorder Quantile(%v) = %v, want 0", q, got)
		}
	}
	if tr.Max() != 0 {
		t.Fatal("empty recorder Max must be 0")
	}
}

func TestECDF(t *testing.T) {
	s := []float64{1, 2, 2, 3}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := ECDF(s, c.x); got != c.want {
			t.Errorf("ECDF(%v)=%v want %v", c.x, got, c.want)
		}
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if d := KSStatistic(xs, xs); d != 0 {
		t.Fatalf("KS of identical samples = %v want 0", d)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Fatalf("KS of disjoint samples = %v want 1", d)
	}
}

func TestKSDetectsShift(t *testing.T) {
	r := rng.New(2)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	c := make([]float64, 2000)
	for i := range a {
		a[i] = r.Normal(0, 1)
		b[i] = r.Normal(0, 1)
		c[i] = r.Normal(1.0, 1) // shifted
	}
	pSame := KSPValue(KSStatistic(a, b), len(a), len(b))
	pDiff := KSPValue(KSStatistic(a, c), len(a), len(c))
	if pSame < 0.01 {
		t.Errorf("same-distribution p-value too small: %v", pSame)
	}
	if pDiff > 0.001 {
		t.Errorf("shifted-distribution p-value too large: %v", pDiff)
	}
}

func TestWasserstein(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1, 1, 1}
	if d := Wasserstein1(a, b); math.Abs(d-1) > 1e-9 {
		t.Fatalf("W1 of unit shift = %v want 1", d)
	}
	if d := Wasserstein1(a, a); d != 0 {
		t.Fatalf("W1 of identical = %v want 0", d)
	}
}

func TestWassersteinSymmetric(t *testing.T) {
	r := rng.New(3)
	a := make([]float64, 100)
	b := make([]float64, 150)
	for i := range a {
		a[i] = r.Normal(0, 1)
	}
	for i := range b {
		b[i] = r.Normal(2, 3)
	}
	d1, d2 := Wasserstein1(a, b), Wasserstein1(b, a)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("W1 not symmetric: %v vs %v", d1, d2)
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if c := Correlation(x, y); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", c)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(x, yneg); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", c)
	}
}

// distanceCorrelation scores the one column x against y.
func distanceCorrelation(x, y []float64) float64 {
	var d [1]float64
	DistanceCorrelations(d[:], [][]float64{x}, y, nil)
	return d[0]
}

func TestDistanceCorrelationLinear(t *testing.T) {
	r := rng.New(4)
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = 3*x[i] + 0.01*r.Normal(0, 1)
		z[i] = r.Normal(0, 1)
	}
	// Both columns are scored against x in one call.
	d := make([]float64, 2)
	DistanceCorrelations(d, [][]float64{y, z}, x, nil)
	if d[0] < 0.95 {
		t.Errorf("dcor of near-linear relation = %v want ~1", d[0])
	}
	if d[1] > 0.3 {
		t.Errorf("dcor of independent variables = %v want ~0", d[1])
	}
}

func TestDistanceCorrelationNonlinear(t *testing.T) {
	// Pearson correlation misses y = x^2 on symmetric x; dcor must not.
	r := rng.New(5)
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = x[i] * x[i]
	}
	pearson := math.Abs(Correlation(x, y))
	dcor := distanceCorrelation(x, y)
	if pearson > 0.3 {
		t.Skipf("sample accidentally correlated: %v", pearson)
	}
	if dcor < 0.4 {
		t.Errorf("dcor failed to detect quadratic dependence: %v", dcor)
	}
}

func TestDistanceCorrelationRange(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Normal(0, 1)
			y[i] = r.LogNormal(0, 1)
		}
		d := distanceCorrelation(x, y)
		return d >= 0 && d <= 1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOLSExactFit(t *testing.T) {
	// y = 1 + 2a + 3b
	X := [][]float64{{1, 1}, {2, 0}, {0, 2}, {3, 1}, {1, 3}}
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 1 + 2*x[0] + 3*x[1]
	}
	m, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-1) > 1e-6 || math.Abs(m.Coef[0]-2) > 1e-6 || math.Abs(m.Coef[1]-3) > 1e-6 {
		t.Fatalf("coefficients %v %v", m.Intercept, m.Coef)
	}
	if r2 := m.RSquared(X, y); r2 < 0.9999 {
		t.Fatalf("R2 %v", r2)
	}
}

func TestOLSNoisyFit(t *testing.T) {
	r := rng.New(6)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := r.Normal(0, 2), r.Normal(0, 2)
		X[i] = []float64{a, b}
		y[i] = 5 - 1.5*a + 0.5*b + r.Normal(0, 0.1)
	}
	m, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]+1.5) > 0.05 || math.Abs(m.Coef[1]-0.5) > 0.05 {
		t.Fatalf("coefficients %v", m.Coef)
	}
}

func TestOLSMismatchedInput(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solution %v want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestGPDExponentialTail(t *testing.T) {
	// Exponential has GPD shape xi = 0.
	r := rng.New(7)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Exponential(1)
	}
	g, err := FitGPDTail(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Xi) > 0.12 {
		t.Errorf("exponential tail shape %v want ~0", g.Xi)
	}
	// True 0.9999 quantile of Exp(1) is -ln(1e-4) ≈ 9.21.
	q := g.Quantile(0.9999)
	if math.Abs(q-9.21) > 1.0 {
		t.Errorf("extrapolated q99.99 = %v want ~9.21", q)
	}
}

func TestGPDParetoTail(t *testing.T) {
	// Pareto(alpha) tail has xi = 1/alpha.
	r := rng.New(8)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Pareto(1, 3)
	}
	g, err := FitGPDTail(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Xi-1.0/3) > 0.12 {
		t.Errorf("pareto tail shape %v want ~0.33", g.Xi)
	}
}

func TestGPDQuantileMonotone(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.LogNormal(3, 0.5)
	}
	g, err := FitGPDTail(xs, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999, 0.99999} {
		v := g.Quantile(q)
		if v < prev {
			t.Fatalf("GPD quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestGPDErrors(t *testing.T) {
	if _, err := FitGPDTail([]float64{1, 2}, 0.9); err == nil {
		t.Fatal("expected error for tiny sample")
	}
	xs := make([]float64, 100)
	if _, err := FitGPDTail(xs, 1.5); err == nil {
		t.Fatal("expected error for bad tailFrac")
	}
}

func TestLog2HistogramBuckets(t *testing.T) {
	h := NewLog2Histogram()
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 15, 16, 100} {
		h.Observe(v)
	}
	bs := h.Buckets()
	// bucket 0: [0,1] -> 2 samples; bucket 1: [2,3] -> 2; bucket 2: [4,7] -> 2;
	// bucket 3: [8,15] -> 2; bucket 4: [16,31] -> 1; bucket 6: [64,127] -> 1
	wantCounts := map[int]uint64{0: 2, 1: 2, 2: 2, 3: 2, 4: 1, 6: 1}
	for i, b := range bs {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d [%d,%d] count %d want %d", i, b.Lo, b.Hi, b.Count, wantCounts[i])
		}
	}
	if h.Total() != 10 {
		t.Fatalf("total %d", h.Total())
	}
}

func TestLog2HistogramCountAbove(t *testing.T) {
	h := NewLog2Histogram()
	for _, v := range []uint64{10, 70, 70, 200} {
		h.Observe(v)
	}
	if got := h.CountAbove(64); got != 3 {
		t.Fatalf("CountAbove(64) = %d want 3", got)
	}
}

func TestReservoirUnderCapacity(t *testing.T) {
	r := rng.New(10)
	res := NewReservoir(100, r.Intn)
	for i := 0; i < 50; i++ {
		res.Observe(float64(i))
	}
	if len(res.Samples()) != 50 {
		t.Fatalf("reservoir size %d want 50", len(res.Samples()))
	}
}

func TestReservoirBounded(t *testing.T) {
	r := rng.New(11)
	res := NewReservoir(64, r.Intn)
	for i := 0; i < 10000; i++ {
		res.Observe(float64(i))
	}
	if len(res.Samples()) != 64 {
		t.Fatalf("reservoir size %d want 64", len(res.Samples()))
	}
	if res.Seen() != 10000 {
		t.Fatalf("seen %d", res.Seen())
	}
}

func TestReservoirUnbiasedMean(t *testing.T) {
	r := rng.New(12)
	res := NewReservoir(2000, r.Intn)
	for i := 0; i < 100000; i++ {
		res.Observe(float64(i % 100))
	}
	m := Mean(res.Samples())
	if math.Abs(m-49.5) > 3 {
		t.Fatalf("reservoir mean %v want ~49.5", m)
	}
}

func TestTailRecorderExactTail(t *testing.T) {
	r := rng.New(13)
	tr := NewTailRecorder(1000, 1000, r.Intn)
	n := 100000
	for i := 0; i < n; i++ {
		tr.Observe(float64(i))
	}
	// 99.9% quantile of 0..99999 is ~99900; within tracked top-1000.
	if q := tr.Quantile(0.999); math.Abs(q-99900) > 10 {
		t.Fatalf("q99.9 = %v want ~99900", q)
	}
	if q := tr.Quantile(0.99999); math.Abs(q-99999) > 5 {
		t.Fatalf("q99.999 = %v want ~99999", q)
	}
	if tr.Max() != 99999 {
		t.Fatalf("max %v", tr.Max())
	}
}

func TestTailRecorderRunningMaxProperty(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		r := rng.New(uint64(seed))
		tr := NewTailRecorder(50, 50, r.Intn)
		max := math.Inf(-1)
		for i := 0; i < 500; i++ {
			v := r.LogNormal(0, 2)
			tr.Observe(v)
			if v > max {
				max = v
			}
		}
		return tr.Max() == max
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesMultiple(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got := Quantiles(xs, 0, 0.5, 1)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantiles = %v want %v", got, want)
		}
	}
}

func TestECDFSortedConsistency(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		r := rng.New(uint64(seed))
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = r.Normal(0, 5)
		}
		sort.Float64s(xs)
		// ECDF must be non-decreasing and hit 0 and 1 at extremes.
		prev := 0.0
		for x := -20.0; x <= 20; x += 0.5 {
			v := ECDF(xs, x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return ECDF(xs, -1e9) == 0 && ECDF(xs, 1e9) == 1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Quantile(xs, 0.999)
	}
}

// BenchmarkDistanceCorrelation scores 8 columns of 400 rows against one
// response, the shape feature selection sends.
func BenchmarkDistanceCorrelation(b *testing.B) {
	const n, k = 400, 8
	r := rng.New(2)
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = make([]float64, n)
		for i := range cols[c] {
			cols[c][i] = r.Float64()
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = r.Float64()
	}
	out := make([]float64, k)
	scratch := make([]float64, (k+2)*n+3*k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistanceCorrelations(out, cols, y, scratch)
	}
}

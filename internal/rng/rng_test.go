package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed generator has poor dispersion: %d unique of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const mu, sigma, n = 5.0, 2.0, 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(mu, sigma)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-mu) > 0.05 {
		t.Errorf("normal mean %v want %v", mean, mu)
	}
	if math.Abs(variance-sigma*sigma) > 0.2 {
		t.Errorf("normal variance %v want %v", variance, sigma*sigma)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("lognormal sample not positive: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(9)
	const rate, n = 0.5, 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05 {
		t.Errorf("exponential mean %v want %v", mean, 1/rate)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2, 1.5)
		if v < 2 {
			t.Fatalf("pareto sample below scale: %v", v)
		}
	}
}

func TestBoundedParetoCapped(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(1, 0.5, 100)
		if v < 1 || v > 100 {
			t.Fatalf("bounded pareto out of range: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(12)
	for _, lambda := range []float64{0.5, 3, 10, 50} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.1*lambda+0.05 {
			t.Errorf("poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(13)
	if r.Poisson(-1) != 0 {
		t.Fatal("negative lambda should yield 0")
	}
	for i := 0; i < 1000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative poisson sample")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(15)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}

func TestSubstreamDeterminism(t *testing.T) {
	a := Substream(42, 7)
	b := Substream(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) must yield identical sequences")
		}
	}
}

func TestSubstreamIndependence(t *testing.T) {
	// Distinct stream indices (including adjacent ones) must produce
	// different, decorrelated sequences; the derivation must not consume any
	// generator state (pure function of its inputs).
	seen := map[uint64]uint64{}
	for stream := uint64(0); stream < 1000; stream++ {
		s := SubstreamSeed(99, stream)
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d collide on seed %#x", prev, stream, s)
		}
		seen[s] = stream
	}
	a, b := Substream(1, 0), Substream(1, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent substreams agree on %d of 64 draws", same)
	}
}

func TestSubstreamSeedPure(t *testing.T) {
	if SubstreamSeed(5, 3) != SubstreamSeed(5, 3) {
		t.Fatal("SubstreamSeed must be a pure function")
	}
	if SubstreamSeed(5, 3) == SubstreamSeed(5, 4) || SubstreamSeed(5, 3) == SubstreamSeed(6, 3) {
		t.Fatal("SubstreamSeed must separate seeds and streams")
	}
}

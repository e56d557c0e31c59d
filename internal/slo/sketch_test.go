package slo

import (
	"math"
	"testing"

	"concordia/internal/rng"
	"concordia/internal/stats"
)

// accuracy quantiles chosen so q*(n-1) is (near-)integral at n=1001: the
// exact oracle then returns an order statistic, not an interpolation, and
// the sketch's relative-error bound is directly checkable against it.
var accQs = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

const accN = 1001

// checkAccuracy records vals into a fresh default sketch and asserts every
// tested quantile estimate is within the relative-error bound of the exact
// order statistic. slop widens the bound for values the zero bucket
// absorbs (|v| < minValue estimates as 0).
func checkAccuracy(t *testing.T, name string, vals []int64) {
	t.Helper()
	s := NewSketch()
	fs := make([]float64, len(vals))
	for i, v := range vals {
		s.Record(v)
		fs[i] = float64(v)
	}
	if s.Clamped() != 0 {
		t.Fatalf("%s: %d values clamped out of configured range; test must stay in range", name, s.Clamped())
	}
	for _, q := range accQs {
		exact := stats.Quantile(fs, q)
		got := s.Quantile(q)
		// The bound |est-x| <= alpha*|x| holds for |x| >= minValue; values
		// below it collapse into the exact-zero bucket, whose absolute
		// error is below minValue by construction.
		bound := alpha*math.Abs(exact) + 1e-9*math.Abs(exact)
		if math.Abs(exact) < minValue {
			bound += minValue
		}
		if math.Abs(got-exact) > bound {
			t.Errorf("%s q=%v: sketch %.6g vs exact %.6g (err %.3g > bound %.3g)",
				name, q, got, exact, math.Abs(got-exact), bound)
		}
	}
	if got, want := s.Quantile(0), float64(s.Min()); got != want {
		t.Errorf("%s: Quantile(0)=%v, want exact min %v", name, got, want)
	}
	if got, want := s.Quantile(1), float64(s.Max()); got != want {
		t.Errorf("%s: Quantile(1)=%v, want exact max %v", name, got, want)
	}
}

func TestSketchAccuracyUniform(t *testing.T) {
	r := rng.New(0x51e7c4)
	vals := make([]int64, accN)
	for i := range vals {
		vals[i] = int64(r.Uniform(1e3, 1e7)) // 1 µs .. 10 ms
	}
	checkAccuracy(t, "uniform", vals)
}

func TestSketchAccuracyLognormal(t *testing.T) {
	r := rng.New(0x10960)
	vals := make([]int64, accN)
	for i := range vals {
		v := r.LogNormal(math.Log(200e3), 1.0) // median 200 µs, heavy tail
		if v < 1e3 {
			v = 1e3
		}
		if v > 15e9 {
			v = 15e9
		}
		vals[i] = int64(v)
	}
	checkAccuracy(t, "lognormal", vals)
}

func TestSketchAccuracyAdversarial(t *testing.T) {
	// Adversarial for a log-linear sketch: values pinned to bucket
	// boundaries (powers of gamma), massive duplication at a single value,
	// and mixed signs straddling the zero bucket.
	var vals []int64
	v := 2e3
	for len(vals) < accN/3 {
		vals = append(vals, int64(v))
		v *= gamma * gamma // every other bucket boundary
		if v > 1e9 {
			v = 2e3
		}
	}
	for len(vals) < 2*accN/3 {
		vals = append(vals, 777_000) // one hot value
	}
	r := rng.New(0xadf)
	for len(vals) < accN {
		mag := r.Uniform(1e3, 1e6)
		if r.Bool(0.5) {
			mag = -mag
		}
		vals = append(vals, int64(mag))
	}
	checkAccuracy(t, "adversarial", vals)
}

func TestSketchAccuracySlack(t *testing.T) {
	// Deadline-slack shape: mostly positive slack, a tail of negative
	// (missed) values — exercises the mirrored store around the rank walk.
	r := rng.New(0x51acc)
	deadline := 2e6 // 2 ms
	vals := make([]int64, accN)
	for i := range vals {
		lat := r.LogNormal(math.Log(1.2e6), 0.5)
		vals[i] = int64(deadline - lat)
	}
	checkAccuracy(t, "slack", vals)
}

func sketchEqual(a, b *Sketch) bool {
	if a.zero != b.zero || a.count != b.count || a.sum != b.sum ||
		a.clamped != b.clamped || a.Min() != b.Min() || a.Max() != b.Max() {
		return false
	}
	for i := range a.pos {
		if a.pos[i] != b.pos[i] || a.neg[i] != b.neg[i] {
			return false
		}
	}
	return true
}

func TestSketchMergeAssociative(t *testing.T) {
	r := rng.New(0xa550c)
	parts := make([]*Sketch, 3)
	for p := range parts {
		parts[p] = NewSketch()
		for i := 0; i < 400; i++ {
			v := int64(r.Uniform(-1e6, 1e7))
			parts[p].Record(v)
		}
	}
	// (a+b)+c
	left := NewSketch()
	left.Merge(parts[0])
	left.Merge(parts[1])
	left.Merge(parts[2])
	// a+(b+c)
	bc := NewSketch()
	bc.Merge(parts[1])
	bc.Merge(parts[2])
	right := NewSketch()
	right.Merge(parts[0])
	right.Merge(bc)
	// c+b+a (commuted)
	rev := NewSketch()
	rev.Merge(parts[2])
	rev.Merge(parts[1])
	rev.Merge(parts[0])
	if !sketchEqual(left, right) {
		t.Error("merge is not associative: (a+b)+c != a+(b+c)")
	}
	if !sketchEqual(left, rev) {
		t.Error("merge is not commutative: a+b+c != c+b+a")
	}
	// And the merged sketch is identical to the concatenated stream.
	direct := NewSketch()
	r2 := rng.New(0xa550c)
	for p := 0; p < 3; p++ {
		for i := 0; i < 400; i++ {
			direct.Record(int64(r2.Uniform(-1e6, 1e7)))
		}
	}
	if !sketchEqual(left, direct) {
		t.Error("merged sketch differs from sketch of concatenated stream")
	}
}

func TestSketchClampCounted(t *testing.T) {
	s := NewSketch()
	s.Record(int64(32e9)) // above maxValue
	if s.Clamped() != 1 {
		t.Fatalf("Clamped=%d, want 1", s.Clamped())
	}
	if s.Quantile(0.5) <= 0 {
		t.Fatal("clamped value should still land in the outermost bucket")
	}
}

func TestSketchResetReuses(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 100; i++ {
		s.Record(int64(1e5 + float64(i)*1e4))
	}
	s.Reset()
	if s.Count() != 0 || s.Sum() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("Reset did not empty the sketch")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Record(2e5)
		s.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Record+Reset allocated %.1f/op, want 0", allocs)
	}
}

func TestSketchRecordZeroAlloc(t *testing.T) {
	s := NewSketch()
	v := int64(1e5)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Record(v)
		v += 997
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f/op, want 0", allocs)
	}
}

func BenchmarkSketchRecord(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	v := int64(1e5)
	for i := 0; i < b.N; i++ {
		s.Record(v)
		v = v*1103515245/1103515244 + 12345 // cheap deterministic walk
		if v > 15e9 {
			v = 1e5
		}
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	s := NewSketch()
	r := rng.New(7)
	for i := 0; i < 10000; i++ {
		s.Record(int64(r.Uniform(1e3, 1e9)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.999)
	}
}

func BenchmarkSketchMerge(b *testing.B) {
	a := NewSketch()
	c := NewSketch()
	r := rng.New(9)
	for i := 0; i < 10000; i++ {
		c.Record(int64(r.Uniform(1e3, 1e9)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}

package stats

import (
	"encoding/binary"
	"math"
	"testing"

	"concordia/internal/rng"
)

// refTailRecorder is the sorted-insertion tail recorder TailRecorder
// replaced, kept verbatim as the reference its min-heap must reproduce: the
// same kept multiset, so bit-equal quantiles, and the same reservoir calls.
type refTailRecorder struct {
	count     uint64
	keepTop   int
	top       []float64 // min-heap-free: kept sorted ascending, bounded
	reservoir *Reservoir
}

func newRefTailRecorder(keepTop, bodyCap int, randInt func(n int) int) *refTailRecorder {
	return &refTailRecorder{keepTop: keepTop, reservoir: NewReservoir(bodyCap, randInt)}
}

func (t *refTailRecorder) Observe(v float64) {
	t.count++
	t.reservoir.Observe(v)
	if len(t.top) < t.keepTop {
		t.insertTop(v)
		return
	}
	if v > t.top[0] {
		t.top[0] = v
		// restore sortedness: single insertion
		for i := 1; i < len(t.top) && t.top[i] < t.top[i-1]; i++ {
			t.top[i], t.top[i-1] = t.top[i-1], t.top[i]
		}
	}
}

func (t *refTailRecorder) insertTop(v float64) {
	i := 0
	for i < len(t.top) && t.top[i] < v {
		i++
	}
	t.top = append(t.top, 0)
	copy(t.top[i+1:], t.top[i:])
	t.top[i] = v
}

func (t *refTailRecorder) Count() uint64 { return t.count }

func (t *refTailRecorder) Quantile(q float64) float64 {
	n := t.count
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return t.Max()
	}
	if !(q > 0) { // clamps q < 0 and NaN
		q = 0
	}
	// rank counts how many samples are >= the answer.
	rank := float64(n) * (1 - q)
	if int(rank) < len(t.top) {
		idx := len(t.top) - 1 - int(rank)
		if idx < 0 {
			idx = 0
		}
		return t.top[idx]
	}
	return Quantile(t.reservoir.Samples(), q)
}

func (t *refTailRecorder) Max() float64 {
	if len(t.top) == 0 {
		return 0
	}
	return t.top[len(t.top)-1]
}

// refQuantiles are the q values every comparison reads, including the
// clamped ones (below 0, above 1 and NaN).
var refQuantiles = []float64{-1, 0, 0.5, 0.9, 0.999, 0.9999, 0.99999, 1, 2, math.NaN()}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstRef fails t unless got and ref agree bit for bit on Count,
// Max, the reservoir's samples and every refQuantiles value.
func checkAgainstRef(t *testing.T, got *TailRecorder, ref *refTailRecorder) {
	t.Helper()
	if got.Count() != ref.Count() {
		t.Fatalf("after %d samples: Count %d, reference %d", ref.Count(), got.Count(), ref.Count())
	}
	if !sameBits(got.Max(), ref.Max()) {
		t.Fatalf("after %d samples: Max %v, reference %v", ref.Count(), got.Max(), ref.Max())
	}
	gs, rs := got.reservoir.Samples(), ref.reservoir.Samples()
	if len(gs) != len(rs) {
		t.Fatalf("after %d samples: reservoir holds %d, reference %d", ref.Count(), len(gs), len(rs))
	}
	for i := range gs {
		if !sameBits(gs[i], rs[i]) {
			t.Fatalf("after %d samples: reservoir[%d] = %v, reference %v", ref.Count(), i, gs[i], rs[i])
		}
	}
	for _, q := range refQuantiles {
		if g, r := got.Quantile(q), ref.Quantile(q); !sameBits(g, r) {
			t.Fatalf("after %d samples: Quantile(%v) = %v, reference %v", ref.Count(), q, g, r)
		}
	}
}

func TestTailRecorderMatchesSortedReference(t *testing.T) {
	const seed = 99
	streams := []struct {
		name string
		gen  func(r *rng.Rand, i, n int) float64
	}{
		{"lognormal", func(r *rng.Rand, _, _ int) float64 { return r.LogNormal(math.Log(300), 0.6) }},
		{"rising", func(_ *rng.Rand, i, _ int) float64 { return float64(i) }},
		{"falling", func(_ *rng.Rand, i, n int) float64 { return float64(n - i) }},
		{"tied", func(r *rng.Rand, _, _ int) float64 { return float64(r.Intn(5)) / 4 }},
		{"constant", func(_ *rng.Rand, _, _ int) float64 { return 1.5 }},
	}
	for _, shape := range []struct{ keepTop, bodyCap int }{{1, 4}, {7, 16}, {4096, 8192}} {
		n := 5*shape.keepTop + 64
		// Prefixes below, at and far above keepTop.
		checkAt := map[int]bool{0: true, 1: true, shape.keepTop / 2: true, shape.keepTop - 1: true,
			shape.keepTop: true, shape.keepTop + 1: true, 2*shape.keepTop + 1: true, n: true}
		for _, s := range streams {
			gotRand, refRand := rng.New(seed), rng.New(seed)
			got := NewTailRecorder(shape.keepTop, shape.bodyCap, gotRand.Intn)
			ref := newRefTailRecorder(shape.keepTop, shape.bodyCap, refRand.Intn)
			vals := rng.New(seed + 1)
			for i := 0; i <= n; i++ {
				if checkAt[i] {
					checkAgainstRef(t, got, ref)
				}
				if i == n {
					break
				}
				v := s.gen(vals, i, n)
				got.Observe(v)
				ref.Observe(v)
			}
			if gotRand.Uint64() != refRand.Uint64() {
				t.Fatalf("keepTop %d, %s: the reservoirs drew different random streams", shape.keepTop, s.name)
			}
		}
	}
}

// fuzzValues decodes a stream of at most 1 024 samples as Report passes
// them: finite and at least +0. A control byte with its top bit set gives a
// small integer (so ties are common); otherwise the next 8 bytes are a
// float64, with its sign cleared and non-finite values replaced. The cap
// keeps one execution short.
func fuzzValues(data []byte) []float64 {
	var out []float64
	for len(data) > 0 && len(out) < 1024 {
		c := data[0]
		data = data[1:]
		if c&0x80 != 0 || len(data) < 8 {
			out = append(out, float64(c&0x7f))
			continue
		}
		v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(c)
		}
		out = append(out, v)
	}
	return out
}

func FuzzTailRecorder(f *testing.F) {
	r := rng.New(7)
	var mixed []byte
	for i := 0; i < 200; i++ {
		if r.Intn(3) == 0 {
			mixed = append(mixed, 0x80|byte(r.Intn(16)))
			continue
		}
		mixed = append(mixed, 0)
		mixed = binary.LittleEndian.AppendUint64(mixed, math.Float64bits(r.LogNormal(5, 1)))
	}
	var rising, falling []byte
	for i := 0; i < 100; i++ {
		rising = append(rising, 0x80|byte(i))
		falling = append(falling, 0x80|byte(100-i))
	}
	f.Add(uint8(6), uint8(15), mixed)
	f.Add(uint8(0), uint8(3), mixed)
	f.Add(uint8(6), uint8(15), rising)
	f.Add(uint8(6), uint8(15), falling)
	f.Fuzz(func(t *testing.T, keepTop, bodyCap uint8, data []byte) {
		k, b := int(keepTop%32)+1, int(bodyCap%64)+1
		got := NewTailRecorder(k, b, rng.New(1).Intn)
		ref := newRefTailRecorder(k, b, rng.New(1).Intn)
		checkAgainstRef(t, got, ref)
		vals := fuzzValues(data)
		for i, v := range vals {
			got.Observe(v)
			ref.Observe(v)
			// Check at every power of two, around the fill and at the end.
			if n := i + 1; n&(n-1) == 0 || n == k || n == k+1 || n == len(vals) {
				checkAgainstRef(t, got, ref)
			}
		}
	})
}

// BenchmarkTailRecorderObserve feeds one Report-sized recorder (4 096 kept,
// 8 192 in the body) the 30 380 DAG latencies steady's 5 s run retires at
// seed 42, drawn i.i.d. lognormal, and the same count as a rising stream,
// the sorted-insertion recorder's worst case.
func BenchmarkTailRecorderObserve(b *testing.B) {
	const n = 30380
	r := rng.New(42)
	lognormal := make([]float64, n)
	rising := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = r.LogNormal(math.Log(300), 0.6)
		rising[i] = float64(i)
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{{"lognormal", lognormal}, {"rising", rising}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := NewTailRecorder(4096, 8192, rng.New(42).Intn)
				for _, v := range c.vals {
					tr.Observe(v)
				}
				benchSinkFloat = tr.Max()
			}
		})
	}
}

var benchSinkFloat float64

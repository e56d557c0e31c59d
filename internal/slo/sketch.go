// Package slo is the streaming SLO plane: deterministic mergeable
// quantile sketches over task/DAG latency and deadline slack, a
// virtual-time windowed aggregation engine keyed by (cell, server, slice)
// with per-fault-class miss counters, and latency-quantile / error-budget
// objectives evaluated with multi-window burn-rate rules. Where the
// tracer and the autopsy explain a run after it ends, this package
// answers "are we burning the error budget right now?" while the run is
// still in flight — the data plane an SLO-driven closed-loop controller
// would consume (a deferred ROADMAP item).
//
// Everything follows the repo's determinism contract (DESIGN.md §5b): no
// host clock, virtual timestamps only, sorted iteration, and serial
// fleet-level reductions, so every export is byte-identical across runs and
// across -workers counts. The record path follows the §5f memory
// discipline: after a key's first observation, recording and window
// rotation allocate nothing.
package slo

import (
	"math"

	"concordia/internal/sim"
)

// The sketch resolution: 1% relative error (alpha) over magnitudes in
// [1 µs, 16 s] — six decades around the millisecond-scale slot deadlines,
// ~965 buckets per sign at ~7.7 KB per store (uint32 counts). Every sketch
// shares this layout, so any two sketches merge.
//
// A quantile estimate q̂ for a true value x in [minValue, maxValue]
// satisfies |q̂-x| <= alpha*x. Values in (-minValue, minValue) collapse
// into an exact zero bucket whose estimate is 0; magnitudes beyond maxValue
// clamp into the outermost bucket and are counted in Clamped.
//
// These are float64 variables, not constants: the layout is computed at run
// time in float64. The compiler evaluates a constant expression such as
// (1+alpha)/(1-alpha) exactly, which can move a bucket edge.
var (
	alpha    float64 = 0.01
	minValue float64 = 1e3  // 1 µs in ns
	maxValue float64 = 16e9 // 16 s in ns

	gamma   = (1 + alpha) / (1 - alpha)
	invLogG = 1 / math.Log(gamma)
	minIdx  = int(math.Ceil(math.Log(minValue) * invLogG)) // bucket holding minValue
	buckets = int(math.Ceil(math.Log(maxValue)*invLogG)) - minIdx + 1
)

// Sketch is a DDSketch-style log-linear quantile sketch over int64
// nanosecond values (sim.Time durations). Bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha); the bucket
// midpoint estimate 2*gamma^i/(gamma+1) is within alpha relative error of
// every value in the bucket. Negative values (deadline slack past the
// deadline) land in a mirrored store.
//
// Buckets are fixed flat arrays sized at construction, so Record touches
// only preallocated memory (§5f: zero steady-state allocations), bucket
// counts are integers (merging is exactly associative and commutative),
// and the index of a value is a pure function of the value — a merged
// sketch is byte-identical to the sketch of the concatenated streams.
type Sketch struct {
	pos, neg []uint32
	zero     uint64 // |v| < minValue, including exact zeros
	count    uint64
	sum      int64 // exact integer sum; associative under merge
	min, max int64 // exact extrema (valid when count > 0)
	// clamped counts records outside [minValue, maxValue] magnitude; they
	// still land in the outermost bucket so quantiles stay defined, but the
	// error bound does not cover them.
	clamped uint64
}

// NewSketch builds an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{pos: make([]uint32, buckets), neg: make([]uint32, buckets)}
}

// bucketOf maps a magnitude (>= minValue by construction of the callers)
// to its store slot, clamping out-of-range indices into the outermost
// buckets.
func (s *Sketch) bucketOf(mag float64) (slot int, clamped bool) {
	i := int(math.Ceil(math.Log(mag)*invLogG)) - minIdx
	if i < 0 {
		return 0, true
	}
	if i >= len(s.pos) {
		return len(s.pos) - 1, true
	}
	return i, false
}

// Record adds one value (nanoseconds; negative for slack past the
// deadline). The hot path is branch + log + array increment: no
// allocation, no map, no float accumulation.
func (s *Sketch) Record(v int64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	mag := float64(v)
	store := s.pos
	if v < 0 {
		mag = -mag
		store = s.neg
	}
	if mag < minValue {
		s.zero++
		return
	}
	slot, clamped := s.bucketOf(mag)
	store[slot]++
	if clamped {
		s.clamped++
	}
}

// RecordTime adds one sim.Time duration.
func (s *Sketch) RecordTime(d sim.Time) { s.Record(int64(d)) }

// Count returns the number of recorded values.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the exact integer sum of recorded values (ns).
func (s *Sketch) Sum() int64 { return s.sum }

// Min and Max return the exact extrema; zero when the sketch is empty.
func (s *Sketch) Min() int64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum recorded value.
func (s *Sketch) Max() int64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Clamped returns how many records fell outside [minValue, maxValue] in
// magnitude (the error bound does not cover them).
func (s *Sketch) Clamped() uint64 { return s.clamped }

// estimate returns the midpoint value of store slot i: within alpha
// relative error of every value the bucket covers.
func (s *Sketch) estimate(i int) float64 {
	return 2 * math.Pow(gamma, float64(i+minIdx)) / (gamma + 1)
}

// Quantile estimates the q-quantile (the 0-based floor(q*(count-1))-th
// order statistic) in nanoseconds. q is clamped to [0, 1]; an empty sketch
// returns 0. The estimate is within alpha relative error of the true order
// statistic whenever that value's magnitude lies in [minValue, maxValue];
// exact extrema sharpen the outermost answers.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.min)
	}
	if q >= 1 {
		return float64(s.max)
	}
	rank := uint64(q * float64(s.count-1)) // 0-based target order statistic
	// Walk ascending value order: most-negative first (neg store from the
	// top), then the zero bucket, then positives.
	var cum uint64
	for i := len(s.neg) - 1; i >= 0; i-- {
		cum += uint64(s.neg[i])
		if cum > rank {
			return -s.estimate(i)
		}
	}
	cum += s.zero
	if cum > rank {
		return 0
	}
	for i := 0; i < len(s.pos); i++ {
		cum += uint64(s.pos[i])
		if cum > rank {
			return s.estimate(i)
		}
	}
	return float64(s.max)
}

// QuantileUs estimates the q-quantile in microseconds.
func (s *Sketch) QuantileUs(q float64) float64 { return s.Quantile(q) / 1e3 }

// Merge folds o into s. Every sketch shares one bucket layout and all
// state is integer, so merging is exactly associative and commutative and
// a serial fleet reduction is byte-identical at any worker count.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.pos {
		s.pos[i] += c
	}
	for i, c := range o.neg {
		s.neg[i] += c
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.zero += o.zero
	s.count += o.count
	s.sum += o.sum
	s.clamped += o.clamped
}

// Reset empties the sketch in place, retaining its bucket arrays — the
// window-rotation path reuses sketches without allocating.
func (s *Sketch) Reset() {
	clear(s.pos)
	clear(s.neg)
	s.zero, s.count, s.clamped = 0, 0, 0
	s.sum, s.min, s.max = 0, 0, 0
}

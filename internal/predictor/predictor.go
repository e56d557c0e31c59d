// Package predictor implements the paper's central ML contribution: the
// parameterized worst-case-execution-time (WCET) predictor built on quantile
// decision trees (§4.2, Algorithms 1 and 2), plus the baseline predictors it
// is evaluated against in §6.3–6.4 — ordinary linear regression, gradient
// boosting, and the single-value EVT/pWCET approach from the probabilistic
// timing-analysis literature.
//
// All predictors implement the same contract: given a task's input-feature
// vector they return a WCET estimate, and they accept observed runtimes to
// adapt online (the interference-compensation mechanism of §4.2).
package predictor

import (
	"concordia/internal/ran"
	"concordia/internal/sim"
)

// Predictor estimates task WCETs from input features.
type Predictor interface {
	// Predict returns the WCET estimate for a task with the given features.
	Predict(f ran.FeatureVector) sim.Time
	// Observe feeds one measured runtime back into the model (online phase).
	Observe(f ran.FeatureVector, runtime sim.Time)
}

// Sample is one profiling observation: the vRAN state features of a TTI and
// the measured runtime of one task execution.
type Sample struct {
	Features ran.FeatureVector
	Runtime  sim.Time
}

// RingBuffer is the per-leaf store of Algorithm 2: the most recent runtime
// observations, whose maximum is the leaf's WCET prediction. The paper's
// implementation sizes these at 5000 entries.
//
// The capacity bounds how many observations the ring keeps; its storage
// grows on demand up to it, so a leaf that never fills its ring never pays
// for the whole of it. Push keeps the maximum current, so Max is O(1) and
// never writes: a frozen predictor set can be read from many goroutines at
// once.
type RingBuffer struct {
	buf      []sim.Time // the stored values; cap(buf) never exceeds capacity
	capacity int
	next     int
	max      sim.Time // largest stored value, floored at 0; written only by Push
}

// DefaultRingSize matches the paper's 5 K-entry leaf buffers.
const DefaultRingSize = 5000

// NewRingBuffer returns an empty buffer of the given capacity. It allocates
// no storage until the first Push.
func NewRingBuffer(capacity int) *RingBuffer { return newRingBuffer(capacity, 0) }

// newRingBuffer returns an empty buffer of the given capacity with storage
// for its first room values (at most capacity) allocated up front.
func newRingBuffer(capacity, room int) *RingBuffer {
	if capacity <= 0 {
		panic("predictor: ring buffer capacity must be positive")
	}
	return &RingBuffer{buf: make([]sim.Time, 0, min(room, capacity)), capacity: capacity}
}

// Push appends an observation, evicting the oldest once capacity values are
// stored. Until then it doubles the storage whenever it is full, never past
// the capacity. It rescans the ring only when it evicts the maximum for a
// smaller value.
func (r *RingBuffer) Push(v sim.Time) {
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			buf := make([]sim.Time, len(r.buf), min(max(2*cap(r.buf), 8), r.capacity))
			copy(buf, r.buf)
			r.buf = buf
		}
		r.buf = append(r.buf, v)
		if v > r.max {
			r.max = v
		}
		return
	}
	old := r.buf[r.next]
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	switch {
	case v >= r.max:
		r.max = v
	case old == r.max:
		r.max = 0
		for _, x := range r.buf {
			if x > r.max {
				r.max = x
			}
		}
	}
}

// Max returns the largest stored observation, or 0 when empty.
func (r *RingBuffer) Max() sim.Time { return r.max }

// Len returns the number of stored observations.
func (r *RingBuffer) Len() int { return len(r.buf) }

// Values returns the stored observations (not a copy; callers must not
// mutate).
func (r *RingBuffer) Values() []sim.Time { return r.buf }

// Quantile returns the q-quantile of the stored observations, or 0 when
// empty. Used by analysis tooling, not by the hot prediction path.
func (r *RingBuffer) Quantile(q float64) sim.Time {
	if len(r.buf) == 0 {
		return 0
	}
	xs := make([]float64, len(r.buf))
	for i, v := range r.buf {
		xs[i] = float64(v)
	}
	return sim.Time(quantileOf(xs, q))
}

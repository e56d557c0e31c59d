package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Log2Histogram buckets non-negative integer samples into power-of-two
// ranges: [0,1], [2,3], [4,7], [8,15], ... This is the presentation the BCC
// runqlat tool uses and Fig 10 of the paper reports.
type Log2Histogram struct {
	counts []uint64
	total  uint64
}

// NewLog2Histogram returns an empty histogram.
func NewLog2Histogram() *Log2Histogram { return &Log2Histogram{} }

// bucketOf maps a value to its bucket index: 0 → [0,1], 1 → [2,3], ...
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(v) - 1
}

// Observe records one sample.
func (h *Log2Histogram) Observe(v uint64) {
	b := bucketOf(v)
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.total++
}

// Total returns the number of observed samples.
func (h *Log2Histogram) Total() uint64 { return h.total }

// Bucket describes one populated histogram range.
type Bucket struct {
	Lo, Hi uint64
	Count  uint64
}

// Buckets returns the bucket ranges in increasing order, including empty
// interior buckets (so plots have a continuous x-axis).
func (h *Log2Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i := range h.counts {
		lo := uint64(0)
		if i > 0 {
			lo = 1 << uint(i)
		}
		hi := uint64(1)<<uint(i+1) - 1
		out[i] = Bucket{Lo: lo, Hi: hi, Count: h.counts[i]}
	}
	return out
}

// CountAbove returns the number of samples in buckets whose lower bound is
// >= threshold. Fig 10's ">63us tail events" uses this.
func (h *Log2Histogram) CountAbove(threshold uint64) uint64 {
	var n uint64
	for _, b := range h.Buckets() {
		if b.Lo >= threshold {
			n += b.Count
		}
	}
	return n
}

// String renders an ASCII histogram resembling runqlat output.
func (h *Log2Histogram) String() string {
	var sb strings.Builder
	var maxCount uint64
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for _, b := range h.Buckets() {
		bar := 0
		if maxCount > 0 {
			bar = int(40 * b.Count / maxCount)
		}
		fmt.Fprintf(&sb, "%8d -> %-8d : %-8d |%s\n", b.Lo, b.Hi, b.Count, strings.Repeat("*", bar))
	}
	return sb.String()
}

// Reservoir keeps a bounded uniform random sample of a stream using
// Algorithm R. It is used where full runtime logs would be too large (e.g.
// hours-long reliability runs).
type Reservoir struct {
	cap   int
	seen  uint64
	items []float64
	rand  func(n int) int // injected for determinism; returns [0,n)
}

// NewReservoir returns a reservoir holding at most capacity samples.
// randInt must return a uniform integer in [0, n).
func NewReservoir(capacity int, randInt func(n int) int) *Reservoir {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, rand: randInt}
}

// Observe offers one stream element to the reservoir.
func (r *Reservoir) Observe(v float64) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	// Replace a random element with probability cap/seen.
	j := r.rand(int(r.seen))
	if j < r.cap {
		r.items[j] = v
	}
}

// Reset empties the reservoir in place, keeping its storage, so it behaves
// as NewReservoir(capacity, randInt) would.
func (r *Reservoir) Reset(randInt func(n int) int) {
	r.seen = 0
	r.items = r.items[:0]
	r.rand = randInt
}

// Samples returns the retained sample (not a copy).
func (r *Reservoir) Samples() []float64 { return r.items }

// Seen returns how many elements were offered.
func (r *Reservoir) Seen() uint64 { return r.seen }

// TailRecorder records every sample above an adaptive threshold plus a
// reservoir of the body, so extreme quantiles (99.999%) remain exact while
// memory stays bounded. The paper's reliability requirement concerns exactly
// these tails.
type TailRecorder struct {
	count     uint64
	keepTop   int
	top       []float64 // min-heap of the keepTop largest samples; top[0] is the smallest
	max       float64
	reservoir *Reservoir
}

// NewTailRecorder keeps the keepTop largest samples exactly and a
// body reservoir of bodyCap samples.
func NewTailRecorder(keepTop, bodyCap int, randInt func(n int) int) *TailRecorder {
	return &TailRecorder{keepTop: keepTop, reservoir: NewReservoir(bodyCap, randInt)}
}

// Reset empties the recorder in place, keeping its storage, so it behaves
// as NewTailRecorder(keepTop, bodyCap, randInt) would.
func (t *TailRecorder) Reset(randInt func(n int) int) {
	t.count = 0
	t.top = t.top[:0]
	t.max = 0
	t.reservoir.Reset(randInt)
}

// Observe records a sample. Once keepTop samples are kept, a sample larger
// than the smallest kept one replaces it, so the kept multiset is always
// the keepTop largest samples seen.
func (t *TailRecorder) Observe(v float64) {
	t.count++
	t.reservoir.Observe(v)
	if t.count == 1 || v > t.max {
		t.max = v
	}
	if len(t.top) < t.keepTop {
		t.top = append(t.top, v)
		t.siftUp(len(t.top) - 1)
		return
	}
	if v > t.top[0] {
		t.top[0] = v
		t.siftDown(0)
	}
}

// siftUp moves top[i] towards the root until its parent is no larger.
func (t *TailRecorder) siftUp(i int) {
	h := t.top
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !(v < h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
}

// siftDown moves top[i] towards the leaves until no child is smaller.
func (t *TailRecorder) siftDown(i int) {
	h := t.top
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if !(h[c] < v) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// Count returns the number of observed samples.
func (t *TailRecorder) Count() uint64 { return t.count }

// Quantile returns the q-quantile. For q in the exactly-tracked tail region
// it is exact, read from a sorted copy of the kept samples; otherwise it
// falls back to the body reservoir. q is clamped to [0,1]; the quantile of
// an empty recorder is 0.
func (t *TailRecorder) Quantile(q float64) float64 {
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
		sorted := slices.Clone(t.top)
		slices.Sort(sorted)
		return sorted[len(sorted)-1-int(rank)]
	}
	return Quantile(t.reservoir.Samples(), q)
}

// Max returns the largest observed sample, or 0 when empty.
func (t *TailRecorder) Max() float64 { return t.max }

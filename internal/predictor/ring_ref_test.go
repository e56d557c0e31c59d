package predictor

import (
	"encoding/binary"
	"slices"
	"testing"

	"concordia/internal/rng"
	"concordia/internal/sim"
)

// refRing is RingBuffer as it was before its storage grew on demand: the
// whole capacity is allocated up front, so a full ring is one whose slice
// has no spare capacity. FuzzRingBuffer checks the on-demand ring against it.
type refRing struct {
	buf  []sim.Time
	next int
	max  sim.Time
}

func newRefRing(capacity int) *refRing {
	return &refRing{buf: make([]sim.Time, 0, capacity)}
}

func (r *refRing) Push(v sim.Time) {
	if len(r.buf) < cap(r.buf) {
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

// fuzzTimes decodes a stream of at most 512 runtimes. A control byte with
// its top bit set gives a small value (so ties, and evictions of the
// maximum, are common); otherwise the next 8 bytes are any int64,
// negatives included.
func fuzzTimes(data []byte) []sim.Time {
	var out []sim.Time
	for len(data) > 0 && len(out) < 512 {
		c := data[0]
		data = data[1:]
		if c&0x80 != 0 || len(data) < 8 {
			out = append(out, sim.Time(c&0x7f))
			continue
		}
		out = append(out, sim.Time(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// FuzzRingBuffer pushes the same stream into an on-demand ring, built with
// a fuzzed amount of room up front as fillLeaf builds leaf rings, and into
// the fixed-capacity reference. After every push the stored values, in
// order, the length and the maximum must match, and the storage must never
// exceed the capacity.
func FuzzRingBuffer(f *testing.F) {
	r := rng.New(11)
	var mixed []byte
	for i := 0; i < 300; i++ {
		if r.Intn(3) == 0 {
			mixed = append(mixed, 0x80|byte(r.Intn(16)))
			continue
		}
		mixed = append(mixed, 0)
		mixed = binary.LittleEndian.AppendUint64(mixed, uint64(r.LogNormal(10, 1)))
	}
	var falling []byte
	for i := 0; i < 120; i++ {
		falling = append(falling, 0x80|byte(120-i))
	}
	f.Add(uint8(4), uint8(0), mixed)
	f.Add(uint8(0), uint8(1), mixed)
	f.Add(uint8(99), uint8(20), mixed)
	f.Add(uint8(30), uint8(40), falling)
	f.Fuzz(func(t *testing.T, capacity, room uint8, data []byte) {
		c := int(capacity%48) + 1
		got := newRingBuffer(c, int(room))
		ref := newRefRing(c)
		for i, v := range fuzzTimes(data) {
			got.Push(v)
			ref.Push(v)
			if !slices.Equal(got.Values(), ref.buf) || got.Len() != len(ref.buf) || got.Max() != ref.max {
				t.Fatalf("capacity %d, room %d, after push %d (%d): values %v len %d max %d, reference %v len %d max %d",
					c, room, i, v, got.Values(), got.Len(), got.Max(), ref.buf, len(ref.buf), ref.max)
			}
			if n := cap(got.Values()); n > c {
				t.Fatalf("capacity %d, after push %d: storage holds %d values", c, i, n)
			}
		}
	})
}

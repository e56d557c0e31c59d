// Package rng provides a deterministic pseudo-random number generator and a
// collection of probability distributions used throughout the simulator.
//
// The generator is xoshiro256**, seeded through SplitMix64 so that any 64-bit
// seed (including 0) yields a well-mixed state. Determinism matters here:
// every experiment in the repository is reproducible bit-for-bit from its
// seed, which is how we make microsecond-scale scheduling experiments stable
// on a managed runtime.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; create one stream per simulated entity instead (see Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child stream from the current state. The
// parent advances, so successive Split calls return distinct streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SubstreamSeed deterministically derives the seed of substream `stream`
// within the family identified by seed. Unlike Split, the derivation is a
// pure function of (seed, stream) — no generator state is consumed — which
// is what parallel shards need: shard i always draws from the same stream
// regardless of how many workers execute the shards or in what order. The
// stream index is folded in with the golden-ratio increment and finalized
// with the SplitMix64 mixer, so adjacent indices yield decorrelated states.
func SubstreamSeed(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Substream returns a generator for substream `stream` of the family
// identified by seed. See SubstreamSeed for the determinism contract.
func Substream(seed, stream uint64) *Rand {
	return New(SubstreamSeed(seed, stream))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Int63n returns a uniform sample in [0, n) for 64-bit ranges.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int64(hi)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a sample from N(mu, sigma^2) using the Box-Muller transform.
func (r *Rand) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNormal returns a sample whose logarithm is N(mu, sigma^2).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns a sample from Exp(rate). The mean is 1/rate.
func (r *Rand) Exponential(rate float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Pareto returns a sample from a Pareto distribution with scale xm > 0 and
// shape alpha > 0. Heavy tails (alpha <= 2) model rare latency spikes.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto(xm, alpha) sample truncated to [xm, max].
func (r *Rand) BoundedPareto(xm, alpha, max float64) float64 {
	v := r.Pareto(xm, alpha)
	if v > max {
		return max
	}
	return v
}

// Poisson returns a sample from Poisson(lambda) using Knuth's method for
// small lambda and a normal approximation above 30.
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Uniform returns a uniform sample in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

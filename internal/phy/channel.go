package phy

import (
	"math"

	"concordia/internal/rng"
)

// AWGNChannel adds circularly-symmetric complex Gaussian noise. NoiseVar is
// the total complex noise variance (split equally across I and Q).
type AWGNChannel struct {
	NoiseVar float64
	rand     *rng.Rand
}

// NewAWGNChannel returns a channel with noise variance derived from the
// per-symbol SNR in dB, assuming unit average symbol energy.
func NewAWGNChannel(snrDB float64, r *rng.Rand) *AWGNChannel {
	return &AWGNChannel{NoiseVar: math.Pow(10, -snrDB/10), rand: r}
}

// Transmit returns symbols plus noise.
func (c *AWGNChannel) Transmit(symbols []complex128) []complex128 {
	out := make([]complex128, len(symbols))
	sigma := math.Sqrt(c.NoiseVar / 2)
	for i, s := range symbols {
		out[i] = s + complex(c.rand.Normal(0, sigma), c.rand.Normal(0, sigma))
	}
	return out
}

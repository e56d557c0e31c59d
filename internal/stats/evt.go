package stats

import (
	"errors"
	"math"
	"sort"
)

// GPD is a generalized Pareto distribution fitted to distribution
// exceedances over a threshold u: P(X - u > x | X > u) follows
// (1 + xi·x/sigma)^(-1/xi). It underpins the EVT/pWCET baseline predictor
// the paper compares against (Cucu-Grosjean-style measurement-based
// probabilistic timing analysis, [23]).
type GPD struct {
	Threshold float64 // u
	Xi        float64 // shape
	Sigma     float64 // scale
	TailProb  float64 // empirical P(X > u)
	NExceed   int
}

// FitGPDTail fits a GPD to the exceedances of xs above the empirical
// tailFrac quantile (e.g. 0.9 keeps the top 10% of samples) using the
// probability-weighted-moments estimator, which is robust for the modest
// exceedance counts measurement-based WCET analysis works with.
func FitGPDTail(xs []float64, tailFrac float64) (*GPD, error) {
	if len(xs) < 20 {
		return nil, errors.New("stats: too few samples for GPD tail fit")
	}
	if tailFrac <= 0 || tailFrac >= 1 {
		return nil, errors.New("stats: tailFrac must be in (0,1)")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	u := QuantileSorted(s, tailFrac)
	var exceed []float64
	for _, x := range s {
		if x > u {
			exceed = append(exceed, x-u)
		}
	}
	if len(exceed) < 10 {
		return nil, errors.New("stats: too few exceedances for GPD tail fit")
	}
	xi, sigma := fitGPDPWM(exceed)
	return &GPD{
		Threshold: u,
		Xi:        xi,
		Sigma:     sigma,
		TailProb:  float64(len(exceed)) / float64(len(s)),
		NExceed:   len(exceed),
	}, nil
}

// fitGPDPWM estimates GPD parameters via probability-weighted moments
// (Hosking & Wallis 1987). exceed must be the positive exceedances.
func fitGPDPWM(exceed []float64) (xi, sigma float64) {
	s := append([]float64(nil), exceed...)
	sort.Float64s(s)
	n := float64(len(s))
	// a0 = E[X], a1 = E[X·(1-F(X))], estimated with plotting positions.
	var a0, a1 float64
	for i, x := range s {
		a0 += x
		a1 += x * (n - 1 - float64(i)) / (n - 1)
	}
	a0 /= n
	a1 /= n
	if a0 == 0 {
		return 0, 1e-9
	}
	den := a0 - 2*a1
	if den <= 0 {
		// Extremely heavy tail; clamp to a conservative heavy shape.
		return 0.5, a0 / 2
	}
	// Hosking & Wallis PWM estimators.
	xi = 2 - a0/den
	sigma = 2 * a0 * a1 / den
	if sigma <= 0 {
		sigma = a0
	}
	// Clamp shape to a sane range for runtime distributions.
	if xi > 0.9 {
		xi = 0.9
	}
	if xi < -0.9 {
		xi = -0.9
	}
	return xi, sigma
}

// Quantile returns the value exceeded with probability (1 - q) under the
// fitted tail model; for q below the threshold's coverage it is not defined
// by the tail, and the threshold itself is returned.
func (g *GPD) Quantile(q float64) float64 {
	p := 1 - q // exceedance probability target
	if p >= g.TailProb {
		return g.Threshold
	}
	ratio := p / g.TailProb
	if math.Abs(g.Xi) < 1e-9 {
		return g.Threshold + g.Sigma*(-math.Log(ratio))
	}
	return g.Threshold + g.Sigma/g.Xi*(math.Pow(ratio, -g.Xi)-1)
}

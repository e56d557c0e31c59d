package analysis

import (
	"cmp"
	"math"
	"slices"

	"concordia/internal/sim"
)

// PredictSample is one predicted-vs-observed WCET pair (the payload of an
// EvPredictSample event, or a synthetic pair from the predcal experiment).
type PredictSample struct {
	Kind      int32
	Predicted sim.Time
	Observed  sim.Time
}

// KindCalibration is the calibration monitor's verdict for one task kind.
//
// A predictor targeting quantile q is calibrated when the observed runtime
// lands at or under the prediction a fraction q of the time (coverage), and
// well-calibrated predictions are additionally *sharp* — the headroom
// (prediction minus observation) is small, because every microsecond of
// pessimism is CPU the pool cannot reclaim. Drift watches coverage over
// sliding windows: a predictor that was calibrated offline but degrades
// under a workload shift shows windows drifting away from the overall rate
// long before the aggregate number moves.
type KindCalibration struct {
	Kind    int32
	Samples int

	// Coverage is the fraction of samples with observed <= predicted;
	// Target is the quantile the predictor aimed for.
	Coverage float64
	Target   float64

	// MeanHeadroomUs is the mean (predicted - observed) in µs (negative
	// when underprediction dominates); MeanHeadroomFrac normalizes by the
	// prediction.
	MeanHeadroomUs   float64
	MeanHeadroomFrac float64

	// Drift is the largest absolute deviation of any full window's coverage
	// from the overall coverage; Windows is how many full windows the trace
	// held.
	Drift   float64
	Windows int

	// Tolerance is the acceptance band below Target (3-sigma binomial,
	// floored at 3/n so tiny traces do not flag); Miscalibrated is
	// Coverage < Target - Tolerance.
	Tolerance     float64
	Miscalibrated bool
}

// CalibrateSamples runs the calibration monitor: per task kind coverage,
// sharpness and windowed drift against the target quantile. Samples must be
// in trace order (windows are temporal); output rows are sorted by kind so
// the bytes are deterministic.
func CalibrateSamples(samples []PredictSample, target float64, window int) []KindCalibration {
	if target == 0 {
		target = 0.99999
	}
	if window <= 0 {
		window = 512
	}
	c := newCalibrator(window)
	for _, s := range samples {
		c.add(s.Kind, s.Predicted, s.Observed)
	}
	return c.rows(target)
}

// calibrator is the calibration monitor's state: one accumulator per task
// kind, fed one sample at a time in trace order. Analyze streams a trace's
// EvPredictSample pairs into one; CalibrateSamples feeds it a slice.
type calibrator struct {
	window int
	index  map[int32]int
	kinds  []kindSamples
}

// kindSamples accumulates one kind's samples: the counts and headroom sums
// in trace order, and the covered count of every full drift window.
type kindSamples struct {
	kind             int32
	n, covered       int
	headUs, headFrac float64
	// inWindow and windowCovered count the window being filled; windows
	// lists the covered count of each full one.
	inWindow, windowCovered int
	windows                 []int
}

func newCalibrator(window int) *calibrator {
	return &calibrator{window: window, index: map[int32]int{}}
}

// add records one predicted-vs-observed pair of a kind.
func (c *calibrator) add(kind int32, predicted, observed sim.Time) {
	i, ok := c.index[kind]
	if !ok {
		i = len(c.kinds)
		c.index[kind] = i
		c.kinds = append(c.kinds, kindSamples{kind: kind})
	}
	k := &c.kinds[i]
	k.n++
	k.inWindow++
	if observed <= predicted {
		k.covered++
		k.windowCovered++
	}
	k.headUs += (predicted - observed).Us()
	if predicted > 0 {
		k.headFrac += float64(predicted-observed) / float64(predicted)
	}
	if k.inWindow == c.window {
		k.windows = append(k.windows, k.windowCovered)
		k.inWindow, k.windowCovered = 0, 0
	}
}

// rows renders the verdict per kind, sorted by kind.
func (c *calibrator) rows(target float64) []KindCalibration {
	slices.SortFunc(c.kinds, func(a, b kindSamples) int { return cmp.Compare(a.kind, b.kind) })
	out := make([]KindCalibration, 0, len(c.kinds))
	for i := range c.kinds {
		k := &c.kinds[i]
		n := float64(k.n)
		cal := KindCalibration{
			Kind: k.kind, Samples: k.n, Target: target,
			Coverage:         float64(k.covered) / n,
			MeanHeadroomUs:   k.headUs / n,
			MeanHeadroomFrac: k.headFrac / n,
			Windows:          len(k.windows),
		}
		for _, covered := range k.windows {
			if dev := math.Abs(float64(covered)/float64(c.window) - cal.Coverage); dev > cal.Drift {
				cal.Drift = dev
			}
		}

		// 3-sigma binomial band around the target, floored so that a run too
		// short to resolve the quantile cannot flag: with n samples the
		// smallest observable miss rate is 1/n.
		sigma := math.Sqrt(target * (1 - target) / n)
		cal.Tolerance = math.Max(3*sigma, 3/n)
		cal.Miscalibrated = cal.Coverage < cal.Target-cal.Tolerance
		out = append(out, cal)
	}
	return out
}

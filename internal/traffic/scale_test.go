package traffic

import (
	"math"
	"strings"
	"testing"
)

func TestScaleSpecDefaultsAndUEs(t *testing.T) {
	s := ScaleSpec{Cells: 200, Seed: 7}
	if got, want := s.TotalUEs(), int64(200*DefaultSubscribers); got != want {
		t.Fatalf("TotalUEs = %d, want %d", got, want)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cells != 200 {
		t.Fatalf("cells = %d", cfg.Cells)
	}
	if cfg.PeakSlotBytes != 10*lteReferencePeakBytes {
		t.Fatalf("peak = %d, want 10x the LTE reference", cfg.PeakSlotBytes)
	}
}

func TestScaleSpecValidation(t *testing.T) {
	cases := map[string]ScaleSpec{
		"no cells": {Cells: 0},
		"bad load": {Cells: 10, Load: 1.5},
		"NaN load": {Cells: 10, Load: math.NaN()},
	}
	for name, s := range cases {
		if _, err := s.Config(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// The scaled trace must keep the LTE reference's statistical character:
// individual cells mostly idle, the fleet aggregate almost never, and the
// volume ceiling scaled by the extrapolation factor.
func TestGenerateScaledTraceKeepsPoolingStructure(t *testing.T) {
	tr, err := GenerateScaledTrace(ScaleSpec{Cells: 120, Seed: 42}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cells != 120 || len(tr.Volumes) != 2000 {
		t.Fatalf("trace shape %d cells x %d slots", tr.Cells, len(tr.Volumes))
	}
	single := tr.IdleFraction(0)
	agg := tr.IdleFraction(-1)
	if single <= agg {
		t.Errorf("single-cell idle %.3f should exceed aggregate idle %.3f", single, agg)
	}
	if agg > 0.01 {
		t.Errorf("120-cell aggregate idle %.3f; the pooled fleet should almost never be idle", agg)
	}
	const peak int = DefaultVolumeScale * lteReferencePeakBytes
	for t0, row := range tr.Volumes {
		for c, v := range row {
			if v > peak {
				t.Fatalf("slot %d cell %d volume %d exceeds scaled peak %d", t0, c, v, peak)
			}
		}
	}
}

func TestScaleErrorMentionsPackage(t *testing.T) {
	_, err := GenerateScaledTrace(ScaleSpec{Cells: 5, Load: math.NaN()}, 10)
	if err == nil || !strings.Contains(err.Error(), "traffic:") {
		t.Fatalf("err = %v", err)
	}
}

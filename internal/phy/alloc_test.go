package phy

import (
	"testing"

	"concordia/internal/rng"
)

// Zero-alloc gate for the decoder's scratch reuse (DESIGN.md §5f): a warmed
// DecodeInto must stop allocating once its result capacity and pooled
// scratch exist. This pins the contract so a refactor that quietly
// reintroduces per-call garbage fails loudly instead of showing up as GC
// pressure in the calibration experiment. The contract holds outside -race
// only: the race detector makes sync.Pool drop a random share of Puts on
// purpose, so the pooled scratch is sometimes reallocated.

func TestLDPCDecodeIntoZeroAlloc(t *testing.T) {
	code, err := NewLDPCCode(256, 132, 7)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := code.Encode(randomBits(rng.New(11), code.K))
	if err != nil {
		t.Fatal(err)
	}
	llr := make([]float64, code.N())
	for i, b := range cw {
		llr[i] = 4 * (1 - 2*float64(b))
	}
	var res DecodeResult
	if err := code.DecodeInto(&res, llr); err != nil { // warm scratch + Info
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a random share of Puts, so the pooled decoder scratch is reallocated")
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := code.DecodeInto(&res, llr); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Errorf("warmed LDPC DecodeInto allocated %.1f per run, want 0", a)
	}
}

package phy

import (
	"testing"

	"concordia/internal/rng"
)

// Zero-alloc gates for the RX-path scratch reuse (DESIGN.md §5f): every
// *Into/*Append stage must stop allocating once its destination capacity and
// pooled scratch exist. These pin the contract so a refactor that quietly
// reintroduces per-call garbage fails loudly instead of showing up as GC
// pressure in the calibration experiment. The decoders' contract holds
// outside -race only: the race detector makes sync.Pool drop a random share
// of Puts on purpose, so their pooled scratch is sometimes reallocated.

func TestLDPCDecodeIntoZeroAlloc(t *testing.T) {
	code, err := NewLDPCCode(256, 132, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	info := make([]byte, code.K)
	for i := range info {
		info[i] = byte(r.Intn(2))
	}
	cw, err := code.Encode(info)
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

func TestPolarDecodeIntoZeroAlloc(t *testing.T) {
	code, err := NewPolarCode(256, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	info := make([]byte, code.K)
	for i := range info {
		info[i] = byte(r.Intn(2))
	}
	cw, err := code.Encode(info)
	if err != nil {
		t.Fatal(err)
	}
	llr := make([]float64, code.N)
	for i, b := range cw {
		llr[i] = 3 * (1 - 2*float64(b))
	}
	dst, err := code.Decode(llr) // warm scratch, size dst
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a random share of Puts, so the pooled decoder scratch is reallocated")
	}
	if a := testing.AllocsPerRun(100, func() {
		var derr error
		dst, derr = code.DecodeInto(dst, llr)
		if derr != nil {
			t.Error(derr)
		}
	}); a != 0 {
		t.Errorf("warmed polar DecodeInto allocated %.1f per run, want 0", a)
	}
}

func TestRxStagesZeroAlloc(t *testing.T) {
	// Demodulate → descramble → dematch, each into reused storage.
	mod := QAM64
	r := rng.New(17)
	bits := make([]byte, 600*mod.BitsPerSymbol())
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	syms, err := mod.Modulate(bits)
	if err != nil {
		t.Fatal(err)
	}
	var llr []float64
	if llr, err = mod.DemodulateLLRInto(llr, syms, 0.1); err != nil {
		t.Fatal(err)
	}
	sc := NewScrambler(0xBEEF)
	rm, err := NewRateMatcher(900, len(llr))
	if err != nil {
		t.Fatal(err)
	}
	var acc []float64
	if a := testing.AllocsPerRun(100, func() {
		var serr error
		llr, serr = mod.DemodulateLLRInto(llr, syms, 0.1)
		if serr != nil {
			t.Error(serr)
		}
		llr = sc.ScrambleLLRInto(llr, llr) // in place
		acc, serr = rm.DematchInto(acc, llr)
		if serr != nil {
			t.Error(serr)
		}
	}); a != 0 {
		t.Errorf("warmed demod/descramble/dematch chain allocated %.1f per run, want 0", a)
	}
}

func TestOFDMAppendZeroAlloc(t *testing.T) {
	o, err := NewOFDM(256, 18, 120)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]complex128, 120)
	for i := range grid {
		grid[i] = complex(1, -1)
	}
	td := make([]complex128, 0, o.SymbolLength())
	fd := make([]complex128, 0, 120)
	if td, err = o.ModulateAppend(td[:0], grid); err != nil { // warm scratch
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		var aerr error
		td, aerr = o.ModulateAppend(td[:0], grid)
		if aerr != nil {
			t.Error(aerr)
		}
		fd, aerr = o.DemodulateAppend(fd[:0], td)
		if aerr != nil {
			t.Error(aerr)
		}
	}); a != 0 {
		t.Errorf("warmed OFDM Append round trip allocated %.1f per run, want 0", a)
	}
}

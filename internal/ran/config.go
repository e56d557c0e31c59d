// Package ran models the 5G NR radio access network structures the
// scheduler operates on: numerologies and slot timing, cell configurations
// (the paper's Table 1/2 deployments), MCS and transport-block sizing, and —
// centrally — the per-slot signal-processing task DAGs of Fig 1 (uplink) and
// Fig 16 (downlink) whose deadlines Concordia must meet.
package ran

import (
	"fmt"

	"concordia/internal/sim"
)

// Numerology is the NR subcarrier-spacing index µ (38.211): SCS = 15·2^µ kHz
// and slot duration 1 ms / 2^µ.
type Numerology int

// Supported numerologies.
const (
	Mu0 Numerology = 0 // 15 kHz, 1 ms slots (the paper's 20 MHz cells)
	Mu1 Numerology = 1 // 30 kHz, 0.5 ms slots (the paper's 100 MHz cells)
	Mu2 Numerology = 2 // 60 kHz, 0.25 ms slots
	Mu3 Numerology = 3 // 120 kHz, 62.5 µs slots
)

// SlotDuration returns the TTI length for the numerology.
func (n Numerology) SlotDuration() sim.Time {
	return sim.Millisecond >> uint(n)
}

// SlotsPerSecond returns the number of TTIs per second.
func (n Numerology) SlotsPerSecond() int { return 1000 << uint(n) }

// Generation selects the RAT generation: it picks the coding path of the
// data channels (4G turbo vs 5G LDPC, §A.1).
type Generation int

// RAT generations.
const (
	NR  Generation = iota // 5G: LDPC data coding (the default)
	LTE                   // 4G: turbo data coding
)

// Duplex selects the duplexing scheme of a cell.
type Duplex int

// Duplexing schemes.
const (
	FDD Duplex = iota // every slot carries both uplink and downlink
	TDD               // slots alternate per the cell's TDD pattern
)

// SlotDir is the direction a TDD slot is assigned to.
type SlotDir int

// Slot directions. Special slots carry both (guard-dominated, reduced data).
const (
	Downlink SlotDir = iota
	Uplink
	Special
)

// String implements fmt.Stringer.
func (d SlotDir) String() string {
	switch d {
	case Downlink:
		return "D"
	case Uplink:
		return "U"
	case Special:
		return "S"
	default:
		return "?"
	}
}

// DefaultTDDPattern is the common 5-slot DDDSU frame the paper's TDD cells
// use: three downlink slots, one special, one uplink.
var DefaultTDDPattern = []SlotDir{Downlink, Downlink, Downlink, Special, Uplink}

// CellConfig describes one cell of a vRAN pool.
type CellConfig struct {
	ID           int
	BandwidthMHz int
	Numerology   Numerology
	Generation   Generation
	Duplex       Duplex
	TDDPattern   []SlotDir // used when Duplex == TDD; nil selects the default
	Antennas     int       // gNB antenna ports
	MaxLayers    int       // spatial layers per UE
	MaxUEs       int       // maximum simultaneously scheduled UEs per slot
}

// Validate reports configuration errors.
func (c CellConfig) Validate() error {
	if c.BandwidthMHz <= 0 {
		return fmt.Errorf("ran: cell %d has non-positive bandwidth", c.ID)
	}
	if c.Numerology < Mu0 || c.Numerology > Mu3 {
		return fmt.Errorf("ran: cell %d has unsupported numerology %d", c.ID, c.Numerology)
	}
	if c.Antennas <= 0 || c.MaxLayers <= 0 || c.MaxLayers > c.Antennas {
		return fmt.Errorf("ran: cell %d has invalid antenna/layer config", c.ID)
	}
	if c.MaxUEs <= 0 {
		return fmt.Errorf("ran: cell %d has non-positive MaxUEs", c.ID)
	}
	return nil
}

// PRBs approximates the NR transmission-bandwidth table (38.101-1): usable
// physical resource blocks for the bandwidth and numerology.
func (c CellConfig) PRBs() int {
	scsKHz := 15 << uint(c.Numerology)
	// Guard band consumes roughly 2% + fixed edge; the 38.101 tables are
	// within a few PRBs of bandwidth*1000*0.95/(12*scs).
	prb := int(float64(c.BandwidthMHz) * 1000 * 0.95 / float64(12*scsKHz))
	if prb < 1 {
		prb = 1
	}
	return prb
}

// SlotDir returns the direction of the given absolute slot index.
func (c CellConfig) SlotDir(slot int) SlotDir {
	if c.Duplex == FDD {
		// FDD carries both; callers treat FDD specially. Report Downlink for
		// pattern-indexed uses.
		return Downlink
	}
	pat := c.TDDPattern
	if len(pat) == 0 {
		pat = DefaultTDDPattern
	}
	return pat[slot%len(pat)]
}

// Preset cell configurations matching the paper's Table 1/Table 2.
//
// Cells100MHz returns n 100 MHz TDD cells (µ=1, 0.5 ms slots, 4 antennas),
// none for n ≤ 0.
func Cells100MHz(n int) []CellConfig {
	out := make([]CellConfig, max(n, 0))
	for i := range out {
		out[i] = CellConfig{
			ID:           i,
			BandwidthMHz: 100,
			Numerology:   Mu1,
			Duplex:       TDD,
			Antennas:     4,
			MaxLayers:    4,
			MaxUEs:       16,
		}
	}
	return out
}

// CellsLTE returns n 20 MHz LTE FDD cells (1 ms TTIs, turbo coding), none
// for n ≤ 0: the cell class behind the §2.2 trace measurements.
func CellsLTE(n int) []CellConfig {
	out := Cells20MHz(n)
	for i := range out {
		out[i].Generation = LTE
	}
	return out
}

// Cells20MHz returns n 20 MHz FDD cells (µ=0, 1 ms slots, 2 antennas), none
// for n ≤ 0.
func Cells20MHz(n int) []CellConfig {
	out := make([]CellConfig, max(n, 0))
	for i := range out {
		out[i] = CellConfig{
			ID:           i,
			BandwidthMHz: 20,
			Numerology:   Mu0,
			Duplex:       FDD,
			Antennas:     2,
			MaxLayers:    2,
			MaxUEs:       8,
		}
	}
	return out
}

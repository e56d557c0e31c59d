// Package traffic generates per-TTI cell traffic with the statistical
// character of the paper's measured LTE traces (§2.2): most single-cell
// slots idle, small median transfers with a heavy tail an order of
// magnitude above the median, and millisecond-scale burstiness. The 5G
// evaluation traces are the same fluctuation patterns volume-scaled, as the
// paper itself did.
package traffic

import (
	"errors"
	"math"

	"concordia/internal/rng"
)

// Config parameterizes a generator.
type Config struct {
	Cells int
	// Load is the cell traffic load as a fraction of the maximum allowed
	// average load (the x-axis of Fig 8a): 0.05–1.0.
	Load float64
	// PeakSlotBytes is the per-cell per-slot payload ceiling (the
	// provisioned peak). The maximum *average* equals half the peak,
	// mirroring Table 1 vs Table 2 (avg 750 Mbps vs peak 1.5 Gbps).
	PeakSlotBytes int
	Seed          uint64
}

// LTEReference returns the configuration that mirrors the measured 3-cell
// LTE uplink traces of Fig 3: ~5 KB peak slots, lightly loaded (rush-hour
// uplink averages are far below provisioned peak).
func LTEReference(cells int, seed uint64) Config {
	return Config{Cells: cells, Load: 0.1, PeakSlotBytes: 5 * 1024, Seed: seed}
}

// Generator produces correlated bursty per-cell slot volumes.
//
// The busy/quiet structure is a rotating-hotspot model: in every epoch
// (epochTTIs slots) a load-dependent subset of cells is "busy" (users are
// concentrated there), and the busy set rotates across cells. This is what
// makes single cells mostly idle while the pooled aggregate rarely is —
// users roam between cells, the §2.2 observation pooling exploits.
type Generator struct {
	cfg   Config
	slot  int
	cells []cellState
	// out is the NextSlot buffer, reused every TTI (see Source contract).
	out []int
}

type cellState struct {
	rand *rng.Rand
	// log-volume AR(1) state for millisecond-scale correlation.
	logVol float64
	hasAR  bool
}

// epochTTIs is the hotspot rotation period.
const epochTTIs = 250

// Activity probabilities inside and outside a hotspot epoch.
func activity(load float64) (pBusy, pQuiet float64) {
	return 0.5 + 0.45*load, 0.02 + 0.05*load
}

// busyCellCount returns how many cells are hotspots simultaneously.
func busyCellCount(cells int, load float64) int {
	n := int(float64(cells)*load + 0.5)
	if n < 1 {
		n = 1
	}
	if n > cells {
		n = cells
	}
	return n
}

// NewGenerator validates the configuration and seeds per-cell streams.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Cells <= 0 {
		return nil, errors.New("traffic: need at least one cell")
	}
	if !(cfg.Load > 0 && cfg.Load <= 1) { // NaN fails too
		return nil, errors.New("traffic: load must be in (0, 1]")
	}
	if cfg.PeakSlotBytes <= 0 {
		return nil, errors.New("traffic: peak slot bytes must be positive")
	}
	g := &Generator{cfg: cfg, out: make([]int, cfg.Cells)}
	root := rng.New(cfg.Seed)
	g.cells = make([]cellState, cfg.Cells)
	for i := range g.cells {
		g.cells[i].rand = root.Split()
	}
	return g, nil
}

// Cells returns the number of cells.
func (g *Generator) Cells() int { return g.cfg.Cells }

// NextSlot returns the per-cell payload bytes for the next TTI. The slice
// is reused on the following call; callers that retain it must copy.
func (g *Generator) NextSlot() []int {
	cfg := g.cfg
	epoch := g.slot / epochTTIs
	busy := busyCellCount(cfg.Cells, cfg.Load)
	out := g.out
	for i := range g.cells {
		// Cell i is a hotspot when it falls inside the rotating busy window.
		isBusy := (i+epoch)%cfg.Cells < busy
		out[i] = g.cells[i].next(cfg, isBusy)
	}
	g.slot++
	return out
}

func (c *cellState) next(cfg Config, busy bool) int {
	pBusy, pQuiet := activity(cfg.Load)
	p := pQuiet
	if busy {
		p = pBusy
	}
	if !c.rand.Bool(p) {
		c.hasAR = false
		return 0
	}
	// Active-slot volume: lognormal body with AR(1) temporal correlation
	// and a ceiling at the provisioned peak.
	median := medianActiveVolume(cfg)
	innov := c.rand.Normal(0, 0.9)
	if !c.hasAR {
		c.logVol = innov
		c.hasAR = true
	} else {
		c.logVol = 0.6*c.logVol + 0.8*innov
	}
	v := median * exp(c.logVol)
	if v < 32 {
		v = 32
	}
	if v > float64(cfg.PeakSlotBytes) {
		v = float64(cfg.PeakSlotBytes)
	}
	return int(v)
}

// medianActiveVolume calibrates the active-slot volume so the long-run mean
// over all slots approaches Load × Peak/2 (the maximum allowed average is
// half the provisioned peak, mirroring Table 1 vs Table 2). The median is
// capped at Peak/3 so the lognormal tail survives the peak clip.
func medianActiveVolume(cfg Config) float64 {
	pBusy, pQuiet := activity(cfg.Load)
	duty := float64(busyCellCount(cfg.Cells, cfg.Load)) / float64(cfg.Cells)
	pa := duty*pBusy + (1-duty)*pQuiet
	want := cfg.Load * float64(cfg.PeakSlotBytes) / 2
	// Lognormal mean factor for sigma≈0.9 is exp(0.9²/2)≈1.5.
	m := want / (pa * 1.5)
	if cap := float64(cfg.PeakSlotBytes) / 3; m > cap {
		m = cap
	}
	return m
}

func exp(x float64) float64 {
	// Clamp to avoid overflow in pathological AR states.
	if x > 6 {
		x = 6
	}
	if x < -6 {
		x = -6
	}
	return math.Exp(x)
}

// Trace is a fully materialized multi-cell trace.
type Trace struct {
	Cells int
	// Volumes[t][c] is the payload bytes of cell c in TTI t.
	Volumes [][]int
}

// GenerateTrace materializes slots TTIs.
func GenerateTrace(cfg Config, slots int) (*Trace, error) {
	if slots < 0 {
		return nil, errors.New("traffic: negative slot count")
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Cells: cfg.Cells, Volumes: make([][]int, slots)}
	for t := 0; t < slots; t++ {
		// NextSlot reuses its buffer; a materialized trace needs its own row.
		tr.Volumes[t] = append([]int(nil), g.NextSlot()...)
	}
	return tr, nil
}

// AggregateSlot returns the summed volume across cells for TTI t.
func (tr *Trace) AggregateSlot(t int) int {
	var s int
	for _, v := range tr.Volumes[t] {
		s += v
	}
	return s
}

// IdleFraction returns the fraction of TTIs in which cell c was idle;
// c == -1 evaluates the aggregate across all cells.
func (tr *Trace) IdleFraction(c int) float64 {
	if len(tr.Volumes) == 0 {
		return 0
	}
	idle := 0
	for t := range tr.Volumes {
		v := 0
		if c >= 0 {
			v = tr.Volumes[t][c]
		} else {
			v = tr.AggregateSlot(t)
		}
		if v == 0 {
			idle++
		}
	}
	return float64(idle) / float64(len(tr.Volumes))
}

// NonIdleVolumes returns the aggregate volumes of non-idle TTIs, in bytes.
func (tr *Trace) NonIdleVolumes() []float64 {
	var out []float64
	for t := range tr.Volumes {
		if v := tr.AggregateSlot(t); v > 0 {
			out = append(out, float64(v))
		}
	}
	return out
}

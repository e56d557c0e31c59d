package traffic

import "errors"

// ScaleSpec scales the measured 3-cell LTE reference statistics (§2.2) to
// fleet-sized deployments: hundreds of cells serving a modeled subscriber
// population in the millions. The paper itself built its 5G evaluation
// traces by volume-scaling the captured LTE fluctuation patterns >10×; this
// layer applies the same extrapolation while keeping the busy/quiet hotspot
// structure pooling exploits, so a 200-cell fleet trace has the same
// statistical character per cell as the Fig 3 captures — just more of them,
// carrying more bytes.
type ScaleSpec struct {
	// Cells is the fleet-wide cell count (the LTE reference measured 3).
	Cells int
	// Load is the per-cell traffic load fraction (0.05–1.0); 0 selects the
	// LTE reference's lightly loaded 0.1.
	Load float64
	Seed uint64
}

// Scaling constants.
const (
	// DefaultSubscribers is the modeled UE population attached per cell: a
	// metro macro cell, accounting for the "millions of users" scale target.
	DefaultSubscribers = 10000
	// DefaultVolumeScale multiplies the LTE reference per-slot payload
	// ceiling: the paper's ">10×" LTE→5G volume extrapolation.
	DefaultVolumeScale = 10.0
	// lteReferencePeakBytes is the Fig 3 per-slot payload ceiling (~5 KB).
	lteReferencePeakBytes = 5 * 1024
)

func (s ScaleSpec) withDefaults() ScaleSpec {
	if s.Load == 0 {
		s.Load = 0.1
	}
	return s
}

// Validate reports specification errors.
func (s ScaleSpec) Validate() error {
	s = s.withDefaults()
	if s.Cells <= 0 {
		return errors.New("traffic: scale spec needs at least one cell")
	}
	if !(s.Load > 0 && s.Load <= 1) { // NaN fails too
		return errors.New("traffic: load must be in (0, 1]")
	}
	return nil
}

// TotalUEs returns the modeled fleet-wide subscriber population.
func (s ScaleSpec) TotalUEs() int64 {
	return int64(s.Cells) * DefaultSubscribers
}

// Config derives the generator configuration: the LTE reference statistics
// volume-scaled per the spec, one cell stream per fleet cell.
func (s ScaleSpec) Config() (Config, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	return Config{
		Cells:         s.Cells,
		Load:          s.Load,
		PeakSlotBytes: lteReferencePeakBytes * DefaultVolumeScale,
		Seed:          s.Seed,
	}, nil
}

// GenerateScaledTrace materializes a fleet-scale trace of `slots` TTIs.
func GenerateScaledTrace(s ScaleSpec, slots int) (*Trace, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return GenerateTrace(cfg, slots)
}

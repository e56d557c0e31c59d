package fleet

import (
	"math"

	"concordia/internal/rng"
	"concordia/internal/sim"
)

// Topology is the deterministic geography of one C-RAN deployment: cell
// sites and pool servers placed in a metro-scale square, with the one-way
// fronthaul latency from every cell to every server derived from fiber
// distance. Placement feasibility is a pure function of this matrix and the
// budget: a cell may only ever be served by a server whose fronthaul latency
// fits inside the slot-processing deadline's fronthaul allowance.
type Topology struct {
	Cells   int
	Servers int
	// Budget is the maximum tolerable one-way fronthaul latency; servers
	// above it are infeasible for the cell no matter how idle they are.
	Budget sim.Time
	// Latency[c][s] is the one-way fronthaul latency from cell c to server s.
	Latency [][]sim.Time

	feasible []int // per-cell count of servers within Budget
}

// Fronthaul latency model: switching/encapsulation floor plus fiber
// propagation (~5 µs/km), over a metro area sized so a multi-server fleet
// keeps every cell in range of its nearest servers while distant servers
// fall outside typical eCPRI budgets.
const (
	areaKm           = 30.0
	fronthaulBaseUs  = 25.0
	fronthaulPerKmUs = 5.0
	serverGridJitter = 0.2 // fraction of grid spacing
	// DefaultFronthaulBudget is the eCPRI-class one-way latency budget.
	DefaultFronthaulBudget = 150 * sim.Microsecond
)

// NewTopology places cells uniformly and servers on a jittered grid, both
// drawn from substreams of seed, and precomputes the fronthaul matrix for
// the given budget.
func NewTopology(cells, servers int, budget sim.Time, seed uint64) *Topology {
	t := &Topology{
		Cells:    cells,
		Servers:  servers,
		Budget:   budget,
		Latency:  make([][]sim.Time, cells),
		feasible: make([]int, cells),
	}
	// Servers sit on a jittered sqrt-grid so coverage is even; cells scatter
	// uniformly. Separate substreams keep the layouts independent of each
	// other and of every other consumer of the fleet seed.
	sr := rng.Substream(seed, 0x70b0)
	side := int(math.Ceil(math.Sqrt(float64(servers))))
	spacing := areaKm / float64(side)
	sx := make([]float64, servers)
	sy := make([]float64, servers)
	for s := 0; s < servers; s++ {
		gx := float64(s%side) + 0.5
		gy := float64(s/side) + 0.5
		sx[s] = spacing * (gx + sr.Uniform(-serverGridJitter, serverGridJitter))
		sy[s] = spacing * (gy + sr.Uniform(-serverGridJitter, serverGridJitter))
	}
	cr := rng.Substream(seed, 0x70b1)
	for c := 0; c < cells; c++ {
		cx := cr.Uniform(0, areaKm)
		cy := cr.Uniform(0, areaKm)
		t.Latency[c] = make([]sim.Time, servers)
		for s := 0; s < servers; s++ {
			km := math.Hypot(cx-sx[s], cy-sy[s])
			us := fronthaulBaseUs + fronthaulPerKmUs*km
			t.Latency[c][s] = sim.Time(us * float64(sim.Microsecond))
			if t.Latency[c][s] <= budget {
				t.feasible[c]++
			}
		}
	}
	return t
}

// Feasible reports whether server s is within cell c's fronthaul budget.
func (t *Topology) Feasible(c, s int) bool { return t.Latency[c][s] <= t.Budget }

// FeasibleCount returns how many servers are within cell c's budget.
func (t *Topology) FeasibleCount(c int) int { return t.feasible[c] }

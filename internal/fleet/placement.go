package fleet

import "sort"

// The migration policy's thresholds (DESIGN.md §5h).
const (
	// highWater is the eviction threshold as a multiple of the fleet-mean
	// smoothed pressure (pressure = busy utilization + miss rate): a server
	// sustained above highWater × mean starts shedding cells. Relative
	// thresholds trigger on imbalance — the thing migration can fix — rather
	// than on absolute saturation.
	highWater = 1.2
	// lowWater is the destination filter, also a multiple of the mean:
	// cells only migrate onto servers below lowWater × mean, so a migration
	// cannot trade one hot server for another (the hysteresis band is
	// [lowWater, highWater] × mean).
	lowWater = 1.05
	// sustainEpochs is how many consecutive epochs a server must exceed
	// highWater before its cells become migration candidates — one noisy
	// epoch never triggers a move.
	sustainEpochs = 2
	// cooldownEpochs pins a migrated cell to its new server for this many
	// epochs, preventing ping-pong.
	cooldownEpochs = 2
	// maxMigrationsPerEpoch bounds churn per placement round.
	maxMigrationsPerEpoch = 8
)

// Migration is one placement decision: move Cell from server From to To.
type Migration struct {
	Cell, From, To int
}

// Placement tracks the cell→server assignment and runs the admission and
// hysteresis-migration policy. All decisions are pure functions of the
// topology, the demand estimates, and the observed pressures, with
// deterministic tie-breaks (lowest index wins), so the fleet's placement
// history is byte-identical across runs and worker counts.
type Placement struct {
	topo *Topology

	// Assign maps cell → server; -1 marks a rejected cell (no server within
	// its fronthaul budget).
	Assign []int

	ema      []float64 // per-server smoothed pressure
	meanEma  float64   // fleet-mean smoothed pressure over occupied servers
	hot      []int     // consecutive epochs above highWater
	cooldown []int     // per-cell epochs until it may migrate again
	load     []float64 // per-server sum of assigned cell demand
	demand   []float64 // latest per-cell demand estimate (bytes/slot)
}

// pressureFloor is the absolute smoothed-pressure minimum below which a
// server is never considered hot: relative thresholds alone would otherwise
// chase meaningless imbalance in a near-idle fleet.
const pressureFloor = 0.05

// NewPlacement returns an empty placement over the topology.
func NewPlacement(topo *Topology) *Placement {
	return &Placement{
		topo:     topo,
		Assign:   make([]int, topo.Cells),
		ema:      make([]float64, topo.Servers),
		hot:      make([]int, topo.Servers),
		cooldown: make([]int, topo.Cells),
		load:     make([]float64, topo.Servers),
		demand:   make([]float64, topo.Cells),
	}
}

// AdmitAll performs initial placement: cells in ID order, each onto its
// nearest server within the fronthaul budget — how an operator statically
// partitions cells across DUs by region. The imbalance this leaves (cell
// density and hotspot activity do not follow the server grid) is exactly
// what the migration engine later corrects, and what the static baseline is
// stuck with. Returns the admitted and rejected counts.
func (p *Placement) AdmitAll(demand []float64) (admitted, rejected int) {
	copy(p.demand, demand)
	for c := range p.Assign {
		s := p.nearestFeasible(c)
		p.Assign[c] = s
		if s < 0 {
			rejected++
			continue
		}
		p.load[s] += p.demand[c]
		admitted++
	}
	return admitted, rejected
}

// nearestFeasible returns the lowest-latency server within cell c's budget
// (ties break to the lowest index), or -1 when none qualifies.
func (p *Placement) nearestFeasible(c int) int {
	best := -1
	for s := 0; s < p.topo.Servers; s++ {
		if !p.topo.Feasible(c, s) {
			continue
		}
		if best < 0 || p.topo.Latency[c][s] < p.topo.Latency[c][best] {
			best = s
		}
	}
	return best
}

// bestServer returns the least-loaded feasible server for cell c, excluding
// `exclude`; with lowOnly set, only servers whose smoothed pressure is below
// lowWater × the fleet mean qualify. Ties break to the lowest server index.
// Returns -1 when no server qualifies.
func (p *Placement) bestServer(c, exclude int, lowOnly bool) int {
	best := -1
	for s := 0; s < p.topo.Servers; s++ {
		if s == exclude || !p.topo.Feasible(c, s) {
			continue
		}
		if lowOnly && p.ema[s] >= lowWater*p.meanEma {
			continue
		}
		if best < 0 || p.load[s] < p.load[best] {
			best = s
		}
	}
	return best
}

// ObserveEpoch folds one epoch's per-server pressure observations and
// per-cell demand into the hysteresis state and returns the migrations to
// apply before the next epoch. Pressure is busy utilization plus miss rate;
// the EMA halves the weight of history so two sustained hot epochs are
// enough to act on, while a single spike is not. A server is hot when its
// smoothed pressure exceeds highWater × the fleet mean (over occupied
// servers) and the absolute pressureFloor.
func (p *Placement) ObserveEpoch(pressure, epochDemand []float64) []Migration {
	copy(p.demand, epochDemand)
	p.reloads()
	for c := range p.cooldown {
		if p.cooldown[c] > 0 {
			p.cooldown[c]--
		}
	}
	occupied := 0
	p.meanEma = 0
	for s := range p.ema {
		p.ema[s] = 0.5*p.ema[s] + 0.5*pressure[s]
		if p.serverCells(s) > 0 {
			p.meanEma += p.ema[s]
			occupied++
		}
	}
	if occupied > 0 {
		p.meanEma /= float64(occupied)
	}
	for s := range p.ema {
		if p.ema[s] > highWater*p.meanEma && p.ema[s] > pressureFloor {
			p.hot[s]++
		} else {
			p.hot[s] = 0
		}
	}
	// Hottest servers shed first; stable sort keeps index order on ties.
	order := make([]int, p.topo.Servers)
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(i, j int) bool { return p.ema[order[i]] > p.ema[order[j]] })
	meanLoad := 0.0
	if occupied > 0 {
		for _, l := range p.load {
			meanLoad += l
		}
		meanLoad /= float64(occupied)
	}
	var out []Migration
	for _, s := range order {
		if p.hot[s] < sustainEpochs {
			continue
		}
		// A hot server sheds cells until its demand load reaches the fleet
		// mean (or it runs out of movable cells, destinations, or budget) —
		// one move per epoch rebalances far too slowly to matter within a
		// run's worth of epochs.
		for len(out) < maxMigrationsPerEpoch && p.load[s] > meanLoad {
			cell := p.evictionCandidate(s)
			if cell < 0 {
				break
			}
			to := p.bestServer(cell, s, true)
			if to < 0 {
				break
			}
			out = append(out, p.move(cell, s, to))
		}
		if len(out) >= maxMigrationsPerEpoch {
			break
		}
	}
	return out
}

// serverCells counts the cells currently assigned to server s.
func (p *Placement) serverCells(s int) int {
	n := 0
	for _, assigned := range p.Assign {
		if assigned == s {
			n++
		}
	}
	return n
}

// evictionCandidate picks the hot server's highest-demand movable cell:
// not cooling down, with at least one alternative feasible server. Ties
// break to the lowest cell ID.
func (p *Placement) evictionCandidate(s int) int {
	best := -1
	for c, assigned := range p.Assign {
		if assigned != s || p.cooldown[c] > 0 || p.topo.FeasibleCount(c) < 2 {
			continue
		}
		if best < 0 || p.demand[c] > p.demand[best] {
			best = c
		}
	}
	return best
}

// ForceMigrate moves the most-loaded server's highest-demand movable cell to
// its least-loaded feasible alternative, regardless of pressure — the demo
// and test hook for exercising the migration machinery deterministically.
func (p *Placement) ForceMigrate() (Migration, bool) {
	src := 0
	for s := 1; s < p.topo.Servers; s++ {
		if p.load[s] > p.load[src] {
			src = s
		}
	}
	cell := p.evictionCandidate(src)
	if cell < 0 {
		return Migration{}, false
	}
	to := p.bestServer(cell, src, false)
	if to < 0 {
		return Migration{}, false
	}
	return p.move(cell, src, to), true
}

// move applies one migration to the assignment and bookkeeping.
func (p *Placement) move(cell, from, to int) Migration {
	p.Assign[cell] = to
	p.load[from] -= p.demand[cell]
	p.load[to] += p.demand[cell]
	p.cooldown[cell] = cooldownEpochs
	p.hot[from] = 0
	return Migration{Cell: cell, From: from, To: to}
}

// reloads recomputes per-server load from the current demand estimates and
// assignment (demand drifts between epochs; incremental updates would mix
// epochs' estimates).
func (p *Placement) reloads() {
	for s := range p.load {
		p.load[s] = 0
	}
	for c, s := range p.Assign {
		if s >= 0 {
			p.load[s] += p.demand[c]
		}
	}
}

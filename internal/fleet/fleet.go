// Package fleet scales Concordia from one server to a pooled C-RAN
// cluster: N independent Concordia pool+sim instances ("servers"), hundreds
// of cells with per-cell fronthaul latencies to every server, and a
// placement engine that admits cells only onto servers within their
// fronthaul budget and migrates them between servers when sustained
// load/miss pressure crosses hysteresis thresholds (DESIGN.md §5h).
//
// Time is split into placement epochs. Within an epoch every server runs
// its current cell subset as a full Concordia simulation over a slice of
// one global fleet-scale traffic trace; between epochs the coordinator
// observes per-server pressure and re-places cells. Servers fan out across
// internal/parallel workers with per-(epoch, server) RNG substreams, and
// every cross-server reduction happens serially in server order, so fleet
// results and merged telemetry are byte-identical at any -workers count.
package fleet

import (
	"errors"
	"fmt"
	"strings"

	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/parallel"
	"concordia/internal/pool"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/traffic"
)

// Servers build their per-epoch cell lists by ascending global cell ID, so
// the local→global remapping of telemetry events is stable by construction.

// Config describes one fleet run.
type Config struct {
	// Cells is the fleet-wide cell count; Servers the Concordia server count.
	Cells, Servers int
	// CoresPerServer sizes each server's pool (0 selects 12).
	CoresPerServer int
	// Load is the per-cell traffic load fraction (0 selects 0.3).
	Load float64
	// Horizon is total simulated time (0 selects 2 s); it divides into
	// Epochs placement epochs (0 selects 8).
	Horizon sim.Time
	Epochs  int
	// FronthaulBudget caps the one-way cell→server fronthaul latency a
	// placement may use (0 selects DefaultFronthaulBudget). Only tests set
	// it; it stays because a budget no server meets is the one way to reach
	// Run's admission error (TestAllCellsOutOfBudget).
	FronthaulBudget sim.Time
	// Static freezes the initial placement — the partitioned baseline the
	// pooling gain is measured against.
	Static bool
	// ForceMigrateEpoch, when >= 1, forces one migration at the start of
	// that epoch regardless of pressure (examples and tests exercise the
	// migration path deterministically with it). Ignored under Static.
	ForceMigrateEpoch int
	// Seed drives every stochastic input; TrainingSlots bounds offline
	// predictor training (0 selects the core default); Workers bounds the
	// per-epoch server fan-out (0 = NumCPU, 1 = serial — results identical).
	Seed          uint64
	TrainingSlots int
	Workers       int
	// Predictors, when non-nil, skips training and shares the set across
	// every server (all servers run identical 20 MHz cells, so one trained
	// set is valid fleet-wide; experiments train once per sweep).
	Predictors pool.PredictorSet
	// Telemetry, when non-nil, receives the merged fleet trace: placement
	// events (cell_admit/cell_migrate/cell_reject) plus every server's
	// deadline misses remapped to global cell IDs, epoch-offset timestamps,
	// and fleet-unique DAG sequences. Task-level events stay per-server, so
	// the merged trace is DAG-level — cmd/autopsy's migration rule is built
	// for exactly that.
	Telemetry *telemetry.Recorder
	// SLO, when non-nil, attaches a streaming SLO tracker to every server
	// (slice assignment evaluated on fleet-global cell IDs) and merges the
	// per-server sketches into Result.SLO at each epoch barrier — a serial
	// reduction in (epoch, server) order, byte-identical at any Workers.
	// Per-server EvSLOWindow/EvSLOAlert events are remapped into the merged
	// fleet trace when Telemetry is also set.
	SLO *slo.Options
}

func (c Config) withDefaults() Config {
	if c.CoresPerServer == 0 {
		c.CoresPerServer = 12
	}
	if c.Load == 0 {
		c.Load = 0.3
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * sim.Second
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	if c.FronthaulBudget == 0 {
		c.FronthaulBudget = DefaultFronthaulBudget
	}
	if c.TrainingSlots == 0 {
		c.TrainingSlots = core.DefaultTrainingSlots
	}
	return c
}

// validate checks the defaulted config before any trace is generated or
// predictor trained.
func (c Config) validate() error {
	if c.Cells <= 0 || c.Servers <= 0 {
		return errors.New("fleet: need at least one cell and one server")
	}
	if c.CoresPerServer < 1 {
		return fmt.Errorf("fleet: %d cores per server, need at least one", c.CoresPerServer)
	}
	if !(c.Load > 0 && c.Load <= 1) { // NaN fails too
		return errors.New("fleet: load must be in (0, 1]")
	}
	if c.Epochs < 1 {
		return errors.New("fleet: need at least one epoch")
	}
	if c.FronthaulBudget < 0 {
		return fmt.Errorf("fleet: negative fronthaul budget %v", c.FronthaulBudget)
	}
	if c.TrainingSlots < 0 {
		return fmt.Errorf("fleet: negative training slot count %d", c.TrainingSlots)
	}
	if c.ForceMigrateEpoch >= c.Epochs {
		return fmt.Errorf("fleet: force-migrate epoch %d outside run of %d epochs", c.ForceMigrateEpoch, c.Epochs)
	}
	return nil
}

// EpochStats summarizes one placement epoch.
type EpochStats struct {
	Migrations int
	DAGs       uint64
	Misses     uint64
	// RequiredCores is the epoch's fleet-wide core requirement at the run's
	// calibrated efficiency.
	RequiredCores int
	// MaxPressure is the epoch's hottest raw server pressure (busy
	// utilization + miss rate).
	MaxPressure float64
}

// Result is the outcome of one fleet run.
type Result struct {
	Cells, Servers, CoresPerServer int

	Admitted, Rejected, Migrations int

	DAGs, Misses, Dropped uint64

	// BusyCoreSeconds and TotalBytes calibrate Kappa, the measured busy
	// core-seconds per offered byte.
	BusyCoreSeconds float64
	TotalBytes      float64
	Kappa           float64

	// RequiredDemand and IdealDemand are the kappa-free peak demand rates
	// (bytes/s) underlying the core requirements: cross-run comparisons (the
	// pooling gain vs the static partition) evaluate both runs' demand at one
	// common kappa through these.
	RequiredDemand float64
	IdealDemand    float64

	// RequiredCores is the time-averaged fleet core requirement at this run's
	// own calibration (Kappa × RequiredDemand); IdealCores the
	// single-global-pool bound; TotalCores the provisioned fleet size. Both
	// requirements are fractional by design: whole-core rounding rewards
	// concentrating demand and would mask the balance migration buys; the
	// epochs' RequiredCores keep the integer provisioning view.
	RequiredCores float64
	IdealCores    float64
	TotalCores    int

	Epochs []EpochStats
	// Assign is the final cell→server placement (-1 = rejected).
	Assign []int

	// SLO is the fleet-merged SLO tracker (nil unless Config.SLO was set):
	// per-cell run-total sketches keyed by global cell ID, the union of all
	// servers' window rows and alert timelines, and the fleet health report.
	SLO *slo.Tracker
}

// MissRate returns the fleet-wide deadline-miss fraction.
func (r *Result) MissRate() float64 {
	if r.DAGs == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.DAGs)
}

// serverEpoch is one server's contribution to one epoch, produced inside
// the parallel fan-out and reduced serially in server order.
type serverEpoch struct {
	report *pool.Report
	misses []telemetry.Event // remapped to fleet-global identifiers
	slo    *slo.Tracker      // flushed per-server tracker (keys are local cells)
}

// Run executes one fleet simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cellTemplate := ran.Cells20MHz(1)[0]
	slotDur := cellTemplate.Numerology.SlotDuration()
	totalSlots := int(cfg.Horizon / slotDur)
	epochSlots := totalSlots / cfg.Epochs
	if epochSlots < 1 {
		return nil, fmt.Errorf("fleet: horizon %v too short for %d epochs", cfg.Horizon, cfg.Epochs)
	}
	totalSlots = epochSlots * cfg.Epochs

	// One global UL and one global DL trace drive the whole run; servers
	// replay per-epoch column slices, so a migrated cell's traffic continues
	// seamlessly on its new server.
	spec := traffic.ScaleSpec{Cells: cfg.Cells, Load: cfg.Load}
	ulSpec, dlSpec := spec, spec
	ulSpec.Seed = rng.SubstreamSeed(cfg.Seed, 0xf1ee)
	dlSpec.Seed = rng.SubstreamSeed(cfg.Seed, 0xf1ef)
	ul, err := traffic.GenerateScaledTrace(ulSpec, totalSlots)
	if err != nil {
		return nil, err
	}
	dl, err := traffic.GenerateScaledTrace(dlSpec, totalSlots)
	if err != nil {
		return nil, err
	}

	preds := cfg.Predictors
	if preds == nil {
		// All servers host identical 20 MHz cells, so one predictor set
		// trained offline serves the whole fleet; per-server systems inject
		// it and skip their own profiling.
		model := costmodel.New(cfg.Seed ^ 0xc0de)
		data := core.Profile(ran.Cells20MHz(1), cfg.TrainingSlots, model, cfg.CoresPerServer, cfg.Seed^0x0ff1)
		preds, err = core.TrainPredictorsWorkers(data, 1.0, cfg.Workers)
		if err != nil {
			return nil, err
		}
	}

	topo := NewTopology(cfg.Cells, cfg.Servers, cfg.FronthaulBudget, cfg.Seed)
	place := NewPlacement(topo)

	// Initial admission uses whole-trace mean demand — the projected load a
	// real operator would plan partitions from.
	demand := make([]float64, cfg.Cells)
	tracker := NewDemandTracker(cfg.Servers)
	scratch := NewDemandTracker(cfg.Servers)
	AccumulateEpoch(scratch, ul, dl, 0, totalSlots, initialAssign(cfg.Cells), demand)
	admitted, rejected := place.AdmitAll(demand)
	if admitted == 0 {
		return nil, errors.New("fleet: no cell is within fronthaul budget of any server")
	}
	for c := 0; c < cfg.Cells; c++ {
		if place.Assign[c] >= 0 {
			emitPlacement(cfg.Telemetry, telemetry.EvCellAdmit, c, 0, 0,
				int64(place.Assign[c]), int64(topo.FeasibleCount(c)), topo.Latency[c][place.Assign[c]])
		} else {
			emitPlacement(cfg.Telemetry, telemetry.EvCellReject, c, 0, 0, -1, 0, 0)
		}
	}

	res := &Result{
		Cells: cfg.Cells, Servers: cfg.Servers, CoresPerServer: cfg.CoresPerServer,
		Admitted: admitted, Rejected: rejected,
		TotalCores: cfg.Servers * cfg.CoresPerServer,
		Epochs:     make([]EpochStats, cfg.Epochs),
	}
	if cfg.SLO != nil {
		opts := *cfg.SLO
		if opts.Deadline <= 0 {
			// Match the per-server Scenario20MHz deadline so fleet-level
			// summaries report slack against the same budget the servers ran.
			opts.Deadline = sim.FromMs(2)
		}
		// The fleet tracker is an aggregation sink: per-server trackers do
		// the windowing and event emission; this one accumulates their
		// merged totals, rows and alerts.
		res.SLO = slo.New(opts, nil)
	}
	pressure := make([]float64, cfg.Servers)
	epochDemand := make([]float64, cfg.Cells)
	epochDur := sim.Time(epochSlots) * slotDur
	// Server s runs on arenas[s] in every epoch, whichever worker simulates
	// it, so its pools reuse one run table, freelist and report storage. An
	// epoch's reports are read in the serial reduction below, before the
	// next epoch's New resets them.
	arenas := make([]pool.Arena, cfg.Servers)

	for e := 0; e < cfg.Epochs; e++ {
		epochStart := sim.Time(e*epochSlots) * slotDur
		if !cfg.Static && cfg.ForceMigrateEpoch >= 1 && e == cfg.ForceMigrateEpoch {
			if mig, ok := place.ForceMigrate(); ok {
				res.Migrations++
				res.Epochs[e].Migrations++
				emitPlacement(cfg.Telemetry, telemetry.EvCellMigrate, mig.Cell, e, epochStart,
					int64(mig.From), int64(mig.To), topo.Latency[mig.Cell][mig.To])
			}
		}
		// Snapshot the epoch's assignment and per-server cell lists.
		assign := append([]int(nil), place.Assign...)
		cellsOf := make([][]int, cfg.Servers)
		for c, s := range assign {
			if s >= 0 {
				cellsOf[s] = append(cellsOf[s], c)
			}
		}
		lo, hi := e*epochSlots, (e+1)*epochSlots

		// Fan the servers across workers. Each server's simulation depends
		// only on its own substream seed and trace slice; results reduce in
		// index order, so -workers changes wall-clock time and nothing else.
		epoch := e
		runs, err := parallel.Map(cfg.Workers, cfg.Servers, func(s int) (serverEpoch, error) {
			if len(cellsOf[s]) == 0 {
				return serverEpoch{}, nil
			}
			return runServerEpoch(cfg, preds, &arenas[s], s, epoch, epochStart, cellsOf[s], ul, dl, lo, hi, epochDur)
		})
		if err != nil {
			return nil, err
		}

		// Serial reduction in server order.
		tracker.BeginEpoch()
		AccumulateEpoch(tracker, ul, dl, lo, hi, assign, epochDemand)
		tracker.EndEpoch()
		es := &res.Epochs[e]
		for s, run := range runs {
			pressure[s] = 0
			if run.report == nil {
				continue
			}
			rep := run.report
			dags := rep.DAGsCompleted
			es.DAGs += dags
			es.Misses += rep.Misses
			res.DAGs += dags
			res.Misses += rep.Misses
			res.Dropped += rep.DAGsDropped
			res.BusyCoreSeconds += rep.BusyCoreSeconds
			busyUtil := rep.BusyCoreSeconds / (epochDur.Seconds() * float64(cfg.CoresPerServer))
			missRate := 0.0
			if dags > 0 {
				missRate = float64(rep.Misses) / float64(dags)
			}
			pressure[s] = busyUtil + missRate
			if pressure[s] > es.MaxPressure {
				es.MaxPressure = pressure[s]
			}
			for _, ev := range run.misses {
				if cfg.Telemetry != nil {
					cfg.Telemetry.Trace.Emit(ev)
				}
			}
			res.SLO.MergeRemapped(run.slo, epochStart)
		}

		// The partitioned baseline never consults the placement engine after
		// admission: its assignment is frozen for the whole run. And a
		// decision after the final epoch would never take effect, so the
		// observer only runs while a next epoch exists.
		if !cfg.Static && e+1 < cfg.Epochs {
			migs := place.ObserveEpoch(pressure, epochDemand)
			res.Migrations += len(migs)
			res.Epochs[e+1].Migrations += len(migs)
			epochEnd := sim.Time(hi) * slotDur
			for _, mig := range migs {
				emitPlacement(cfg.Telemetry, telemetry.EvCellMigrate, mig.Cell, e+1, epochEnd,
					int64(mig.From), int64(mig.To), topo.Latency[mig.Cell][mig.To])
			}
		}
	}

	res.TotalBytes = tracker.Total()
	if res.TotalBytes > 0 {
		res.Kappa = res.BusyCoreSeconds / res.TotalBytes
	}
	slotSec := slotDur.Seconds()
	res.RequiredDemand = tracker.RequiredDemand(slotSec)
	res.IdealDemand = tracker.IdealDemand(slotSec)
	res.RequiredCores = res.Kappa * res.RequiredDemand
	res.IdealCores = res.Kappa * res.IdealDemand
	for e := range res.Epochs {
		res.Epochs[e].RequiredCores = tracker.EpochCores(e, res.Kappa, slotSec)
	}
	res.Assign = append([]int(nil), place.Assign...)
	return res, nil
}

// runServerEpoch simulates one server for one epoch: a fresh Concordia
// system on the server's arena over its current cell subset, replaying the
// global traces' column slice, seeded from the (epoch, server) substream.
func runServerEpoch(cfg Config, preds pool.PredictorSet, arena *pool.Arena, s, epoch int, epochStart sim.Time,
	cells []int, ul, dl *traffic.Trace, lo, hi int, epochDur sim.Time) (serverEpoch, error) {
	subUL := sliceTrace(ul, cells, lo, hi)
	subDL := sliceTrace(dl, cells, lo, hi)
	cc := core.Scenario20MHz(len(cells), cfg.CoresPerServer)
	cc.Load = cfg.Load
	cc.Seed = rng.SubstreamSeed(cfg.Seed, uint64(epoch*cfg.Servers+s))
	cc.Predictor = preds
	// One predictor set is shared by every server in the fleet, and servers
	// simulate concurrently: freeze it. Online adaptation would mutate the
	// shared trees, racing across workers and contaminating later runs in
	// whatever order the scheduler interleaved them.
	cc.Ablation.NoOnlineAdaptation = true
	cc.ULTrace, cc.DLTrace = subUL, subDL
	// Abandon a DAG once its deadline passes so one overloaded slot cannot
	// cascade across the epoch boundary; drops still count as misses.
	cc.DropLateDAGs = true
	cc.Arena = arena
	var rec *telemetry.Recorder
	if cfg.Telemetry != nil {
		rec = telemetry.New(telemetry.Options{TraceCapacity: serverTraceCapacity(len(cells), hi-lo)})
		cc.Telemetry = rec
	}
	if cfg.SLO != nil {
		opts := *cfg.SLO
		opts.Server = int32(s)
		// A stream belongs to the fleet-global cell, not to wherever it
		// happens to be placed this epoch.
		opts.Cells = make([]int32, len(cells))
		for i, c := range cells {
			opts.Cells[i] = int32(c)
		}
		cc.SLO = &opts
	}
	sys, err := core.NewSystem(cc)
	if err != nil {
		return serverEpoch{}, fmt.Errorf("fleet: server %d epoch %d: %w", s, epoch, err)
	}
	rep := sys.Run(epochDur)
	out := serverEpoch{report: rep, slo: sys.SLO()}
	if rec != nil {
		// Fleet-unique DAG sequences: the merged trace must never collide
		// two servers' (or two epochs') local sequence counters.
		seqBase := int64(epoch*cfg.Servers+s+1) << 32
		for _, ev := range rec.Trace.Events() {
			switch ev.Kind {
			case telemetry.EvDeadlineMiss:
				ev.Cell = int32(cells[ev.Cell])
				ev.Slot += int32(lo)
				ev.At += epochStart
				ev.A += seqBase
			case telemetry.EvSLOWindow, telemetry.EvSLOAlert:
				// Slice-level events carry no cell or DAG sequence; the Core
				// field already holds the server index. Only time shifts.
				ev.At += epochStart
			default:
				continue
			}
			out.misses = append(out.misses, ev)
		}
	}
	return out, nil
}

// serverTraceCapacity sizes a server's per-epoch ring: generous enough that
// deadline-miss events survive the task-level stream at example scales,
// capped so fleet-wide telemetry runs stay in bounded memory (the ring
// keeps the most recent window when it wraps, same as single-pool runs).
func serverTraceCapacity(cells, slots int) int {
	capacity := 64 * 2 * cells * slots
	if capacity < 4096 {
		capacity = 4096
	}
	if capacity > telemetry.DefaultTraceCapacity {
		capacity = telemetry.DefaultTraceCapacity
	}
	return capacity
}

// sliceTrace extracts rows [lo, hi) of the given cell columns.
func sliceTrace(tr *traffic.Trace, cells []int, lo, hi int) *traffic.Trace {
	out := &traffic.Trace{Cells: len(cells), Volumes: make([][]int, hi-lo)}
	for t := lo; t < hi; t++ {
		row := make([]int, len(cells))
		for i, c := range cells {
			row[i] = tr.Volumes[t][c]
		}
		out.Volumes[t-lo] = row
	}
	return out
}

// initialAssign maps every cell to server 0 — the identity assignment the
// whole-trace demand scan runs under (only per-cell sums matter there).
func initialAssign(cells int) []int {
	assign := make([]int, cells)
	return assign
}

// emitPlacement records one placement event into the fleet trace.
func emitPlacement(rec *telemetry.Recorder, kind telemetry.EventKind, cell, epoch int, at sim.Time, a, b int64, dur sim.Time) {
	if rec == nil {
		return
	}
	rec.Trace.Emit(telemetry.Event{
		At: at, Dur: dur, A: a, B: b,
		Core: -1, Cell: int32(cell), Slot: int32(epoch), Task: -1,
		Kind: kind,
	})
}

// String renders a short human-readable fleet summary.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet           %d cells over %d servers (%d cores each)\n",
		r.Cells, r.Servers, r.CoresPerServer)
	fmt.Fprintf(&sb, "placement       %d admitted, %d rejected, %d migrations\n",
		r.Admitted, r.Rejected, r.Migrations)
	fmt.Fprintf(&sb, "dags            %d completed, %d missed (%.5f%% miss), %d dropped\n",
		r.DAGs, r.Misses, 100*r.MissRate(), r.Dropped)
	fmt.Fprintf(&sb, "pooling         %.1f cores required (ideal %.1f, provisioned %d), kappa %.3g cs/byte\n",
		r.RequiredCores, r.IdealCores, r.TotalCores, r.Kappa)
	return sb.String()
}

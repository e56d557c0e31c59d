package main

import (
	"fmt"
	"runtime"

	"concordia/internal/analysis"
	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/faults"
	"concordia/internal/fleet"
	"concordia/internal/pool"
	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// defaultSeed is the seed the reference digests are recorded for.
// Provision runs at seed+2, so the default reproduces the seed of
// EXPERIMENTS.md's Fig 4a "TDD (2 cells)" row (44).
const defaultSeed = 42

// workers pins every Workers knob to the host's CPU count.
var workers = runtime.NumCPU()

// workload is one named input set. run builds the ready system, runs the
// timed operation once and checks its outputs; probe, when non-nil,
// decorates the predictor map the system uses.
type workload struct {
	name string
	run  func(seed uint64, probe *predProbe) (*rep, error)
}

// The workloads, and why each is here (BENCHMARK.json repeats the why):
//
//   - steady: the paper's headline deployment, the simulator's steady-state
//     hot loop with every observability hook on its nil path.
//   - provision: the paper's provisioning search (Fig 4a's hardest row); every
//     probe rebuilds and retrains a System, which steady never does. It runs
//     by name only and is not in BENCHMARK.json: its work varies by about
//     ±20 % between seeds and a repetition takes about 10 s, so a run holds
//     too few repetitions for a seed-to-seed spread within any allowed
//     bound (NOTES.md).
//   - observed: the chaos testbed with telemetry, SLO plane, faults, the
//     accelerator fleet and the autopsy all doing real work.
//   - fleet: 200 cells over 12 servers, the only workload with parallel
//     fan-out, trace replay, migration and many cells per server.
var workloadList = []*workload{
	{"steady", runSteady},
	{"provision", runProvision},
	{"observed", runObserved},
	{"fleet", runFleet},
}

var workloadByName = func() map[string]*workload {
	m := map[string]*workload{}
	for _, w := range workloadList {
		m[w.name] = w
	}
	return m
}()

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// Run lengths. They are sized so that one repetition takes 1 to 2.5 s on a
// 2-core host, and a 20 s run holds about ten of them.
const (
	steadyDuration = 5 * sim.Second

	provisionMaxCores    = 16
	provisionReliability = 0.99999
	provisionProbe       = 5 * sim.Second
	provisionTraining    = 500

	observedDuration = 4 * sim.Second
	// observedTraceCapacity holds every event of the run (about 800 k), so
	// the autopsy sees the whole trace; the default ring wraps after about
	// 1.3 simulated seconds.
	observedTraceCapacity = 1 << 20
	observedFaults        = "storm=20,overrun=0.1,factor=50"
	observedWindow        = 5 * sim.Millisecond

	fleetCells   = 200
	fleetServers = 12
	fleetCores   = 12
	fleetEpochs  = 8
	fleetHorizon = 250 * sim.Millisecond
)

// steady: Scenario20MHz(7, 8), Concordia, Redis collocated, load 0.5,
// default profiling, telemetry/SLO/faults off, one System.Run.
func runSteady(seed uint64, probe *predProbe) (*rep, error) {
	r := newRep()
	cfg := core.Scenario20MHz(7, 8)
	cfg.Workload = workloads.Redis
	cfg.Load = 0.5
	cfg.Seed = seed
	cfg.Workers = workers
	sys, err := r.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	probe.wrap(sys.Predictors)
	var rp *pool.Report
	r.op, _ = measure(func() error { rp = sys.Run(steadyDuration); return nil })
	r.poolLayer(rp, r.op, len(cfg.Cells))
	r.checkReport(rp, cfg)
	r.addRANReport(rp)
	r.addRAN("reclaimed_frac", "frac", "Report.ReclaimedFraction", rp.ReclaimedFraction())
	d := newDigester()
	d.add(rp.String())
	d.add(rp.PerCellString())
	r.digest = d.sum()
	return r, nil
}

// provision: MinimumCores on Scenario100MHz(2, ·) at load 1.0, then one
// confirming run at the answer, as RunFig4Utilization does. The confirming
// system's NewSystem is the set-up; the search plus the confirming run is
// the timed operation.
func runProvision(seed uint64, probe *predProbe) (*rep, error) {
	r := newRep()
	cfg := core.Scenario100MHz(2, 0)
	cfg.Load = 1.0
	cfg.Seed = seed + 2
	cfg.TrainingSlots = provisionTraining
	cfg.Workers = workers
	var cores int
	search, err := measure(func() (err error) {
		cores, err = core.MinimumCores(cfg, provisionMaxCores, provisionReliability, provisionProbe)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg.PoolCores = cores
	sys, err := r.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	probe.wrap(sys.Predictors)
	var rp *pool.Report
	confirm, _ := measure(func() error { rp = sys.Run(provisionProbe); return nil })
	r.op = search.add(confirm)
	r.poolLayer(rp, confirm, len(cfg.Cells))
	r.checkReport(rp, cfg)
	r.expect(cores >= 1 && cores <= provisionMaxCores, "min_cores %d outside [1, %d]", cores, provisionMaxCores)
	// The confirming run repeats the search's probe at the answer, so it
	// must meet the reliability the search accepted.
	r.expect(rp.Reliability() >= provisionReliability,
		"confirming run at %d cores has reliability %.7f < %.5f", cores, rp.Reliability(), provisionReliability)
	r.addRAN("min_cores", "cores", "EXPERIMENTS.md Fig 4a TDD (2 cells): 3; paper: 12", float64(cores))
	r.addRANReport(rp)
	d := newDigester()
	d.add(fmt.Sprintf("min_cores %d\n", cores))
	d.add(rp.String())
	d.add(rp.PerCellString())
	r.digest = d.sum()
	return r, nil
}

// observed: the slosweep chaos testbed (4 cells, 6 cores, 2 cards × 2 VFs,
// queue depth 16, late DAGs dropped) under storms and overruns, with
// telemetry and the SLO plane on; the timed operation is the run, every
// export and the autopsy.
func runObserved(seed uint64, probe *predProbe) (*rep, error) {
	r := newRep()
	fc, err := faults.Parse(observedFaults)
	if err != nil {
		return nil, err
	}
	cfg := core.Scenario20MHz(4, 6)
	cfg.UseAccel = true
	cfg.AccelDevices, cfg.AccelVFs, cfg.AccelQueueDepth = 2, 2, 16
	cfg.DropLateDAGs = true
	cfg.Load = 0.6
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Faults = &fc
	cfg.SLO = &slo.Options{Window: observedWindow}
	var sys *core.System
	var rec *telemetry.Recorder
	r.setup, err = measure(func() (err error) {
		rec = telemetry.New(telemetry.Options{TraceCapacity: observedTraceCapacity})
		cfg.Telemetry = rec
		sys, err = core.NewSystem(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	probe.wrap(sys.Predictors)

	var rp *pool.Report
	run, _ := measure(func() error { rp = sys.Run(observedDuration); return nil })
	d := newDigester()
	tel, err := measure(func() error {
		if err := sys.WriteChromeTrace(d); err != nil {
			return err
		}
		return sys.WriteMetricsCSV(d)
	})
	if err != nil {
		return nil, err
	}
	telBytes := d.n
	sloExport, err := measure(func() error {
		if err := sys.WriteSLOCSV(d); err != nil {
			return err
		}
		return sys.WriteSLOReport(d)
	})
	if err != nil {
		return nil, err
	}
	var a *analysis.Autopsy
	autopsy, _ := measure(func() error {
		a = analysis.Analyze(rec.Trace.Events(), analysis.Options{PoolCores: cfg.PoolCores, Deadline: cfg.Deadline})
		return nil
	})
	r.op = run.add(tel).add(sloExport).add(autopsy)

	tracker := sys.SLO()
	var sloAttempts, sloMisses uint64
	for _, s := range tracker.SliceSummaries() {
		sloAttempts += s.Attempts
		sloMisses += s.Misses
	}
	r.poolLayer(rp, run, len(cfg.Cells))
	r.checkReport(rp, cfg)
	r.expect(rp.Misses == uint64(a.TotalMisses()), "Report.Misses %d != autopsy total %d", rp.Misses, a.TotalMisses())
	r.expect(sloMisses == rp.Misses, "SLO slice misses %d != Report.Misses %d", sloMisses, rp.Misses)
	r.expect(sloAttempts == rp.DAGsCompleted, "SLO attempts %d != DAGsCompleted %d", sloAttempts, rp.DAGsCompleted)
	r.expect(a.PartitionHolds(), "autopsy cause partition does not sum to its miss total")
	r.expect(rec.Trace.Dropped() == 0, "trace ring overwrote %d events", rec.Trace.Dropped())

	r.layer["telemetry.events_kept"] = float64(rec.Trace.Len())
	r.layer["telemetry.events_overwritten"] = float64(rec.Trace.Dropped())
	r.layer["telemetry.export_s"] = tel.wall.Seconds()
	r.layer["telemetry.export_mb"] = float64(telBytes) / 1e6
	r.layer["slo.window_rows"] = float64(len(tracker.Rows()))
	r.layer["slo.alerts_fired"] = float64(tracker.AlertsFired())
	r.layer["slo.export_s"] = sloExport.wall.Seconds()
	r.layer["analysis.analyze_s"] = autopsy.wall.Seconds()
	r.layer["analysis.misses_attributed"] = float64(a.TotalMisses())
	r.layer["analysis.alloc_mb"] = autopsy.allocMB
	// Read after the exports: Counter creates a missing name.
	r.layer["scheduler.decisions"] = float64(rec.Metrics.Counter("sched_decisions").Value())

	r.addRANReport(rp)
	fmt.Fprintf(d, "autopsy misses %d causes %v dags %d/%d/%d\n",
		a.TotalMisses(), a.CauseCounts, a.DAGsSeen, a.DAGsCompleted, a.DAGsDropped)
	d.add(rp.String())
	d.add(rp.PerCellString())
	r.digest = d.sum()
	return r, nil
}

// fleet: fleet.Run at the fleet sweep's stress point, pooled placement.
// The predictor set is trained once in set-up, as experiments.RunFleet
// does, from the same profile fleet.Run would otherwise build itself.
func runFleet(seed uint64, probe *predProbe) (*rep, error) {
	r := newRep()
	var preds pool.PredictorSet
	var err error
	r.setup, err = measure(func() (err error) {
		model := costmodel.New(seed ^ 0xc0de)
		data := core.Profile(ran.Cells20MHz(1), core.DefaultTrainingSlots, model, fleetCores, seed^0x0ff1)
		preds, err = core.TrainPredictorsWorkers(data, 1.0, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	probe.wrap(preds)
	cfg := fleet.Config{
		Cells: fleetCells, Servers: fleetServers, CoresPerServer: fleetCores,
		Load: 0.8, Horizon: fleetHorizon, Epochs: fleetEpochs,
		Seed: seed, Workers: workers, Predictors: preds,
	}
	var res *fleet.Result
	r.op, err = measure(func() (err error) {
		res, err = fleet.Run(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}

	var dags, misses uint64
	migrations := 0
	for _, e := range res.Epochs {
		dags += e.DAGs
		misses += e.Misses
		migrations += e.Migrations
	}
	r.expect(res.DAGs > 0, "fleet completed no DAGs")
	r.expect(dags == res.DAGs && misses == res.Misses, "epoch DAGs/misses %d/%d != totals %d/%d", dags, misses, res.DAGs, res.Misses)
	r.expect(migrations == res.Migrations, "epoch migrations %d != total %d", migrations, res.Migrations)
	r.expect(res.Admitted+res.Rejected == fleetCells, "admitted %d + rejected %d != %d cells", res.Admitted, res.Rejected, fleetCells)
	r.expect(res.Dropped <= res.Misses, "dropped %d > misses %d", res.Dropped, res.Misses)

	slot := ran.Cells20MHz(1)[0].Numerology.SlotDuration()
	slots := int(fleetHorizon/slot) / fleetEpochs * fleetEpochs
	r.layer["pool.run_s"] = r.op.wall.Seconds()
	r.layer["pool.run_alloc_mb"] = r.op.allocMB
	r.layer["pool.ns_per_cell_slot"] = float64(r.op.wall.Nanoseconds()) / float64(fleetCells*slots)
	r.layer["pool.dags_released"] = float64(res.DAGs) // Result exposes completed DAGs only
	r.layer["pool.dags_dropped"] = float64(res.Dropped)
	r.layer["fleet.server_epochs"] = float64(fleetServers * fleetEpochs)
	r.layer["fleet.migrations"] = float64(res.Migrations)
	r.layer["fleet.rejected_cells"] = float64(res.Rejected)
	r.layer["parallel.core_utilization"] = coreUtilization(r.op)

	r.addRAN("dag_miss_rate", "frac", fmt.Sprintf("Result.MissRate, %d of %d DAGs", res.Misses, res.DAGs), res.MissRate())
	r.addRAN("migrations", "count", "Result.Migrations", float64(res.Migrations))
	d := newDigester()
	d.add(res.String())
	fmt.Fprintf(d, "epochs %v\nassign %v\n", res.Epochs, res.Assign)
	r.digest = d.sum()
	return r, nil
}

// newSystem builds the ready system and records the set-up span.
func (r *rep) newSystem(cfg core.Config) (*core.System, error) {
	var sys *core.System
	var err error
	r.setup, err = measure(func() (err error) {
		sys, err = core.NewSystem(cfg)
		return err
	})
	return sys, err
}

// checkReport checks the identities every pool report must satisfy.
func (r *rep) checkReport(rp *pool.Report, cfg core.Config) {
	slot := cfg.Cells[0].Numerology.SlotDuration()
	// Every released DAG completes within its deadline or is counted as a
	// miss once it does, so at the horizon at most one deadline's worth of
	// slots (UL and DL per cell) can still be in flight.
	inFlight := uint64(len(cfg.Cells)) * 2 * uint64((cfg.Deadline+slot-1)/slot)
	r.expect(rp.DAGsCompleted > 0, "no DAG completed")
	r.expect(rp.DAGsReleased >= rp.DAGsCompleted && rp.DAGsReleased-rp.DAGsCompleted <= inFlight,
		"released %d - completed %d exceeds %d in-flight DAGs", rp.DAGsReleased, rp.DAGsCompleted, inFlight)
	r.expect(rp.Misses <= rp.DAGsCompleted, "misses %d > completed %d", rp.Misses, rp.DAGsCompleted)
}

// addRANReport adds the simulated metrics every pool report carries.
func (r *rep) addRANReport(rp *pool.Report) {
	r.addRAN("dag_miss_rate", "frac", fmt.Sprintf("1 - Report.Reliability, %d of %d DAGs", rp.Misses, rp.DAGsCompleted), 1-rp.Reliability())
	n := rp.Latency.Count()
	r.addPercentile("latency_p50_us", 0.5, n, rp.TailLatencyUs)
	r.addPercentile("latency_p999_us", 0.999, n, rp.TailLatencyUs)
	r.addPercentile("latency_p9999_us", 0.9999, n, rp.TailLatencyUs)
}

// poolLayer records the pool-level counts of one report and the span of
// the Run call that produced it.
func (r *rep) poolLayer(rp *pool.Report, run span, cells int) {
	var qObs uint64
	var qSum float64
	for _, c := range rp.PerCell {
		qObs += c.QueueDelayObs
		qSum += c.QueueDelaySumUs
	}
	qAvg := 0.0
	if qObs > 0 {
		qAvg = qSum / float64(qObs)
	}
	for k, v := range map[string]float64{
		"pool.run_s":                 run.wall.Seconds(),
		"pool.run_alloc_mb":          run.allocMB,
		"pool.ns_per_cell_slot":      float64(run.wall.Nanoseconds()) / float64(uint64(cells)*rp.Slots),
		"pool.dags_released":         float64(rp.DAGsReleased),
		"pool.tasks_executed":        float64(rp.TasksExecuted),
		"pool.dags_dropped":          float64(rp.DAGsDropped),
		"pool.queue_delay_avg_us":    qAvg,
		"scheduler.core_transitions": float64(rp.SchedulingEvents),
		"accel.offload_batches":      float64(rp.OffloadBatches),
		"accel.batched_tasks":        float64(rp.BatchedTasks),
		"accel.queue_full":           float64(rp.OffloadQueueFull),
		"faults.injected":            float64(rp.Faults.Injected()),
		"faults.recoveries":          float64(rp.Faults.Recoveries()),
		"faults.abandoned_dags":      float64(rp.Faults.AbandonedDAGs),
		"parallel.core_utilization":  coreUtilization(run),
	} {
		r.layer[k] = v
	}
}

// coreUtilization is the process CPU time of a span over its wall time on
// every core.
func coreUtilization(s span) float64 {
	if s.wall <= 0 {
		return 0
	}
	return s.cpu.Seconds() / (s.wall.Seconds() * float64(workers))
}

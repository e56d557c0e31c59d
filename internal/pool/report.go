package pool

import (
	"fmt"
	"strings"

	"concordia/internal/faults"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/sim"
	"concordia/internal/stats"
	"concordia/internal/workloads"
)

// Report accumulates everything the §6 experiments read out of a run.
type Report struct {
	Duration sim.Time

	Slots         uint64
	DAGsReleased  uint64
	DAGsCompleted uint64
	TasksExecuted uint64
	Misses        uint64
	DAGsDropped   uint64

	// Slot-processing latency distributions (µs), uplink and downlink.
	LatencyUL *stats.TailRecorder
	LatencyDL *stats.TailRecorder
	// Latency across both directions.
	Latency *stats.TailRecorder

	// Scheduling events (yield/acquire transitions) and wakeup latencies.
	SchedulingEvents uint64
	Preemptions      uint64
	Rotations        uint64
	WakeupHistUs     *stats.Log2Histogram

	// Core-time integrals (core-seconds).
	RANCoreSeconds        float64
	BusyCoreSeconds       float64
	BestEffortCoreSeconds float64

	// Per-task-kind runtime reservoirs (ns), for predictor analysis.
	TaskRuntimes map[ran.TaskKind]*stats.Reservoir

	// Per-direction execution-time splits for the Table 4 analysis.
	CPUTimeUL, CPUTimeDL         sim.Time
	OffloadTimeUL, OffloadTimeDL sim.Time
	MakespanUL, MakespanDL       sim.Time
	CountUL, CountDL             uint64

	// PerCell breaks deadline misses and queueing delay down by cell — the
	// view that shows whether one overloaded cell is starving its neighbours
	// (Fig 4b's failure mode) or the pool is spreading the pain evenly.
	PerCell []CellStats

	// Offload batching and VF-queue accounting (all zero — and absent from
	// String — unless batching or a bounded queue depth is configured).
	// OffloadBatches counts coalesced DMA transfers (≥2 requests);
	// BatchedTasks counts the follower tasks that skipped their own submit
	// window; SubmitSaved integrates the CPU submit time amortized away;
	// OffloadQueueFull counts submissions rejected by VF backpressure.
	OffloadBatches   uint64
	BatchedTasks     uint64
	SubmitSaved      sim.Time
	OffloadQueueFull uint64

	// Faults aggregates chaos-run accounting: injected faults per class plus
	// the recovery actions the pool took. All-zero when no injector is
	// attached; FaultsEnabled gates the report section so fault-free output
	// stays byte-identical to a build without fault injection.
	Faults        FaultStats
	FaultsEnabled bool

	workloadCoreSeconds map[workloads.Kind]float64

	// runtimes holds every kind's reservoir storage, kept across the runs
	// of one Arena; TaskRuntimes lists the kinds this run has observed.
	runtimes [ran.NumTaskKinds]*stats.Reservoir

	poolCores int
}

// FaultStats counts injected faults and the pool's recovery actions during a
// chaos run (internal/faults). Injection counts come from the injector at
// the end of the run; recovery counts accumulate at the recovery sites.
type FaultStats struct {
	// Injected faults, per class.
	faults.Stats
	// Recovery actions.
	OffloadTimeouts uint64 // stuck-offload watchdog firings
	OffloadRetries  uint64 // offload re-submissions after a timeout
	CPUFallbacks    uint64 // offloadable tasks recovered on a CPU core
	StormYields     uint64 // cores yanked by yield storms
	AbandonedDAGs   uint64 // DAGs abandoned after exhausted retries past deadline
}

// Injected sums all injected faults.
func (f FaultStats) Injected() uint64 { return f.Total() }

// Recoveries sums all recovery actions.
func (f FaultStats) Recoveries() uint64 {
	return f.OffloadTimeouts + f.OffloadRetries + f.CPUFallbacks +
		f.StormYields + f.AbandonedDAGs
}

// CellStats is the per-cell reliability and queueing-delay breakdown.
type CellStats struct {
	Cell int
	// DAGs counts completed (or dropped) DAG instances for the cell; Misses
	// and Dropped are the subsets past deadline and abandoned respectively.
	DAGs    uint64
	Misses  uint64
	Dropped uint64
	// Queueing delay of the cell's tasks (ready-to-dispatch), microseconds.
	// Populated only when telemetry is enabled — the per-dispatch observation
	// rides the instrumented path so the disabled hot loop stays untouched.
	// The sum is deterministic: the simulation loop observes tasks in virtual
	// event order regardless of -workers.
	QueueDelayObs   uint64
	QueueDelaySumUs float64
	QueueDelayMaxUs float64
}

// MissRate returns the cell's deadline-miss fraction.
func (c CellStats) MissRate() float64 {
	if c.DAGs == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.DAGs)
}

// AvgQueueDelayUs returns the cell's mean task queueing delay in µs.
func (c CellStats) AvgQueueDelayUs() float64 {
	if c.QueueDelayObs == 0 {
		return 0
	}
	return c.QueueDelaySumUs / float64(c.QueueDelayObs)
}

// newReport returns the empty report of a run of cfg. When prev, the
// report of the arena's previous run, is non-nil, its sample storage (the
// three latency recorders and the per-kind runtime reservoirs) is reused,
// reset in place with the seeds a fresh report draws from; prev is invalid
// from then on.
func newReport(cfg Config, prev *Report) *Report {
	var old Report
	if prev != nil {
		old = *prev
	}
	r := rng.New(cfg.Seed ^ 0x5ee0)
	perCell := make([]CellStats, len(cfg.Cells))
	for i := range perCell {
		perCell[i].Cell = i
	}
	return &Report{
		PerCell:             perCell,
		LatencyUL:           resetTail(old.LatencyUL, r.Intn),
		LatencyDL:           resetTail(old.LatencyDL, r.Intn),
		Latency:             resetTail(old.Latency, r.Intn),
		WakeupHistUs:        stats.NewLog2Histogram(),
		TaskRuntimes:        map[ran.TaskKind]*stats.Reservoir{},
		workloadCoreSeconds: map[workloads.Kind]float64{},
		runtimes:            old.runtimes,
		poolCores:           cfg.PoolCores,
	}
}

// resetTail returns t emptied, or a new latency recorder when t is nil.
func resetTail(t *stats.TailRecorder, randInt func(n int) int) *stats.TailRecorder {
	if t == nil {
		return stats.NewTailRecorder(4096, 8192, randInt)
	}
	t.Reset(randInt)
	return t
}

func (r *Report) observeDAG(dir ran.SlotDir, latency sim.Time, missed bool) {
	r.DAGsCompleted++
	if missed {
		r.Misses++
	}
	us := latency.Us()
	r.Latency.Observe(us)
	if dir == ran.Uplink {
		r.LatencyUL.Observe(us)
	} else {
		r.LatencyDL.Observe(us)
	}
}

// observeCellDAG records one finished or dropped DAG against its cell.
func (r *Report) observeCellDAG(cell int, missed, dropped bool) {
	if cell < 0 || cell >= len(r.PerCell) {
		return
	}
	c := &r.PerCell[cell]
	c.DAGs++
	if missed {
		c.Misses++
	}
	if dropped {
		c.Dropped++
	}
}

// observeQueueDelay records one task's ready-to-dispatch delay against its
// cell.
func (r *Report) observeQueueDelay(cell int, delay sim.Time) {
	if cell < 0 || cell >= len(r.PerCell) {
		return
	}
	c := &r.PerCell[cell]
	us := delay.Us()
	c.QueueDelayObs++
	c.QueueDelaySumUs += us
	if us > c.QueueDelayMaxUs {
		c.QueueDelayMaxUs = us
	}
}

// observeDAGTimes records the per-direction CPU/offload/makespan split.
func (r *Report) observeDAGTimes(dir ran.SlotDir, cpu, offload, makespan sim.Time) {
	if dir == ran.Uplink {
		r.CPUTimeUL += cpu
		r.OffloadTimeUL += offload
		r.MakespanUL += makespan
		r.CountUL++
	} else {
		r.CPUTimeDL += cpu
		r.OffloadTimeDL += offload
		r.MakespanDL += makespan
		r.CountDL++
	}
}

// AvgCPUPerDAG returns the mean CPU (non-offloaded) processing time per DAG
// in the given direction — Table 4's "non-offloaded tasks" column.
func (r *Report) AvgCPUPerDAG(dir ran.SlotDir) sim.Time {
	if dir == ran.Uplink {
		if r.CountUL == 0 {
			return 0
		}
		return r.CPUTimeUL / sim.Time(r.CountUL)
	}
	if r.CountDL == 0 {
		return 0
	}
	return r.CPUTimeDL / sim.Time(r.CountDL)
}

// AvgMakespanPerDAG returns the mean wall-clock slot processing time per DAG
// in the given direction — Table 4's "total processing" column.
func (r *Report) AvgMakespanPerDAG(dir ran.SlotDir) sim.Time {
	if dir == ran.Uplink {
		if r.CountUL == 0 {
			return 0
		}
		return r.MakespanUL / sim.Time(r.CountUL)
	}
	if r.CountDL == 0 {
		return 0
	}
	return r.MakespanDL / sim.Time(r.CountDL)
}

func (r *Report) observeWakeup(lat sim.Time) {
	r.WakeupHistUs.Observe(uint64(lat.Us()))
}

// observeTask records one task runtime. A kind's reservoir is reset when
// the run first observes the kind, so TaskRuntimes lists only observed kinds.
func (r *Report) observeTask(kind ran.TaskKind, runtime sim.Time) {
	res, ok := r.TaskRuntimes[kind]
	if !ok {
		randInt := rng.New(uint64(kind) + 77).Intn
		if res = r.runtimes[kind]; res == nil {
			res = stats.NewReservoir(4096, randInt)
			r.runtimes[kind] = res
		} else {
			res.Reset(randInt)
		}
		r.TaskRuntimes[kind] = res
	}
	res.Observe(float64(runtime))
}

// Reliability returns the fraction of completed DAGs that met the deadline.
func (r *Report) Reliability() float64 {
	if r.DAGsCompleted == 0 {
		return 1
	}
	return 1 - float64(r.Misses)/float64(r.DAGsCompleted)
}

// ReclaimedFraction is the share of pool core-time handed to best-effort
// workloads — the y-axis of Fig 8a.
func (r *Report) ReclaimedFraction() float64 {
	total := r.Duration.Seconds() * float64(r.poolCores)
	if total == 0 {
		return 0
	}
	return r.BestEffortCoreSeconds / total
}

// RANUtilization is busy core-time over total pool core-time (the Fig 4a
// metric uses busy over owned; both are exposed).
func (r *Report) RANUtilization() float64 {
	total := r.Duration.Seconds() * float64(r.poolCores)
	if total == 0 {
		return 0
	}
	return r.BusyCoreSeconds / total
}

// OwnedUtilization is busy core-time over RAN-owned core-time.
func (r *Report) OwnedUtilization() float64 {
	if r.RANCoreSeconds == 0 {
		return 0
	}
	return r.BusyCoreSeconds / r.RANCoreSeconds
}

// IdealReclaimable is the upper bound of Fig 8a: every core-second not spent
// actually executing RAN tasks.
func (r *Report) IdealReclaimable() float64 {
	total := r.Duration.Seconds() * float64(r.poolCores)
	if total == 0 {
		return 0
	}
	return (total - r.BusyCoreSeconds) / total
}

// CoreChurnPerMs is the scheduling-event rate, the driver of the cache
// counters in Fig 9.
func (r *Report) CoreChurnPerMs() float64 {
	ms := r.Duration.Ms()
	if ms == 0 {
		return 0
	}
	return float64(r.SchedulingEvents) / ms
}

// TailLatencyUs returns the q-quantile of slot-processing latency in µs
// across both directions.
func (r *Report) TailLatencyUs(q float64) float64 { return r.Latency.Quantile(q) }

// WorkloadThroughput returns achieved ops for the given workload over the
// run, using the granted core-time and the preemption-driven disruption
// index.
func (r *Report) WorkloadThroughput(k workloads.Kind) float64 {
	p, ok := workloads.ProfileOf(k)
	if !ok {
		return 0
	}
	cs := r.workloadCoreSeconds[k]
	if cs <= 0 {
		return 0
	}
	// Guard the preemption-rate division: a run that granted no best-effort
	// core-time (or an empty report) would otherwise produce NaN here and
	// propagate it into CSV/metrics exports.
	preemptRate := 0.0
	if r.BestEffortCoreSeconds > 0 {
		preemptRate = float64(r.Preemptions) / r.BestEffortCoreSeconds
	}
	return p.Throughput(cs, workloads.Disruption(preemptRate))
}

// WorkloadCoreSeconds returns the core-time granted to workload k.
func (r *Report) WorkloadCoreSeconds(k workloads.Kind) float64 {
	return r.workloadCoreSeconds[k]
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "duration        %v\n", r.Duration)
	fmt.Fprintf(&sb, "slots           %d\n", r.Slots)
	fmt.Fprintf(&sb, "dags            %d completed, %d missed (reliability %.5f%%)\n",
		r.DAGsCompleted, r.Misses, 100*r.Reliability())
	fmt.Fprintf(&sb, "tasks           %d\n", r.TasksExecuted)
	fmt.Fprintf(&sb, "latency p99.99  %.0f us, p99.999 %.0f us, max %.0f us\n",
		r.TailLatencyUs(0.9999), r.TailLatencyUs(0.99999), r.Latency.Max())
	fmt.Fprintf(&sb, "reclaimed       %.1f%% (ideal bound %.1f%%)\n",
		100*r.ReclaimedFraction(), 100*r.IdealReclaimable())
	fmt.Fprintf(&sb, "ran util        %.1f%% of pool, %.1f%% of owned\n",
		100*r.RANUtilization(), 100*r.OwnedUtilization())
	fmt.Fprintf(&sb, "sched events    %d (%.2f per ms), %d preemptions, %d rotations\n",
		r.SchedulingEvents, r.CoreChurnPerMs(), r.Preemptions, r.Rotations)
	if r.OffloadBatches > 0 || r.OffloadQueueFull > 0 {
		fmt.Fprintf(&sb, "offload batch   %d batches, %d coalesced, %v submit saved, %d queue-full rejections\n",
			r.OffloadBatches, r.BatchedTasks, r.SubmitSaved, r.OffloadQueueFull)
	}
	if r.FaultsEnabled {
		f := r.Faults
		fmt.Fprintf(&sb, "faults          %d injected (%d lane, %d stuck, %d overrun, %d burst, %d storm, %d late, %d dropped-fh, %d reset)\n",
			f.Injected(), f.LaneFailures, f.StuckOffloads, f.Overruns,
			f.Bursts, f.Storms, f.FronthaulLate, f.FronthaulDropped, f.DeviceResets)
		fmt.Fprintf(&sb, "recovery        %d timeouts, %d retries, %d cpu fallbacks, %d storm yields, %d dags abandoned\n",
			f.OffloadTimeouts, f.OffloadRetries, f.CPUFallbacks, f.StormYields, f.AbandonedDAGs)
	}
	return sb.String()
}

// PerCellString renders the per-cell deadline and queueing-delay table.
func (r *Report) PerCellString() string {
	var sb strings.Builder
	sb.WriteString("cell   dags     misses  dropped  miss%     qdelay avg/max us\n")
	for _, c := range r.PerCell {
		fmt.Fprintf(&sb, "%-6d %-8d %-7d %-8d %-9.5f %.1f / %.1f\n",
			c.Cell, c.DAGs, c.Misses, c.Dropped, 100*c.MissRate(),
			c.AvgQueueDelayUs(), c.QueueDelayMaxUs)
	}
	return sb.String()
}

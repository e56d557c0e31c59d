// Package analysis is the deterministic post-hoc analysis engine: it
// consumes the telemetry event stream (internal/telemetry) and explains it.
// Three products, all pure functions of the event slice so output bytes are
// identical across runs and -workers counts:
//
//   - per-DAG timeline reconstruction with critical-path extraction — which
//     task chain actually determined completion time, decomposed into
//     fronthaul / queueing / execution / offload / stall / blocked segments;
//   - miss-cause attribution — every EvDeadlineMiss is classified into
//     exactly one Cause, so the per-cause counts partition the total miss
//     count (the invariant CI asserts);
//   - a predictor calibration monitor — per task kind, empirical coverage
//     of the predicted WCET quantile vs the target, sharpness (mean
//     headroom) and windowed drift, from EvPredictSample pairs.
//
// The cause taxonomy and the attribution rules are documented in
// DESIGN.md §5e.
package analysis

import (
	"concordia/internal/faults"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// Options tunes an Analyze pass. The zero value infers everything from the
// trace itself.
type Options struct {
	// PoolCores is the pool's physical core count, used by the
	// insufficient-cores rule. 0 infers max observed core index + 1.
	PoolCores int
	// Deadline is the slot-processing deadline. 0 infers the tightest upper
	// bound visible in the trace: the minimum deadline-miss latency.
	Deadline sim.Time
}

const (
	// targetQuantile is the predictors' target coverage: the paper's
	// five-nines quantile.
	targetQuantile = 0.99999
	// driftWindow is the calibration monitor's window length in samples.
	driftWindow = 512
	// migrationWindow is how long after an EvCellMigrate a miss on the
	// migrated cell is attributed to the migration itself (ramp-up on the
	// destination server: cold predictors' pool state, scheduler re-learning
	// the cell's demand). Only fleet-level traces carry migrate events, so
	// the rule is inert on single-pool traces.
	migrationWindow = 10 * sim.Millisecond
)

// Cause is one miss-cause bucket. Every deadline miss maps to exactly one.
type Cause int

// The taxonomy, in attribution priority order (first matching rule wins; see
// attribute). CauseQueueing is the residual bucket, so the causes always
// partition the miss count; CauseUnattributed is reserved for misses whose
// timeline was lost to ring-buffer wraparound.
const (
	// CauseMigration: the cell migrated between fleet servers within
	// migrationWindow (10 ms) before the miss — destination-server ramp-up
	// disturbance, not a steady-state scheduling failure. This is a
	// coordination-level rule: it is checked first and needs no task
	// timeline, so it still fires on merged fleet traces that carry only
	// DAG-level events.
	CauseMigration Cause = iota
	// CauseUnattributed: the DAG's release or task events were overwritten
	// by ring wraparound; nothing can be said about why it missed.
	CauseUnattributed
	// CauseFronthaulLate: admission was delayed past the nominal release
	// and the DAG would have met its deadline without that delay.
	CauseFronthaulLate
	// CauseAccelFault: an injected lane failure, stuck offload, or device
	// reset hit this DAG, or its critical path lost time to offload retry
	// stalls.
	CauseAccelFault
	// CauseYieldStorm: a core-yield storm forced cores away while this DAG
	// was in flight.
	CauseYieldStorm
	// CauseWCETUnderprediction: a critical-path task ran longer than its
	// predicted WCET quantile (including injected overruns).
	CauseWCETUnderprediction
	// CauseInsufficientCores: queueing dominated the critical path while the
	// pool already owned every physical core — no scheduling policy could
	// have helped.
	CauseInsufficientCores
	// CauseQueueing: residual queueing delay — ready tasks waited for cores
	// the scheduler had yielded (or was still acquiring).
	CauseQueueing
	// NumCauses sizes per-cause count arrays.
	NumCauses
)

var causeNames = [NumCauses]string{
	"migration", "unattributed", "fronthaul_late", "accel_fault",
	"yield_storm", "wcet_underprediction", "insufficient_cores", "queueing",
}

// String implements fmt.Stringer.
func (c Cause) String() string {
	if c < 0 || c >= NumCauses {
		return "cause(?)"
	}
	return causeNames[c]
}

// Miss is one attributed deadline miss.
type Miss struct {
	Seq     int64
	Cell    int32
	Slot    int32
	At      sim.Time
	Latency sim.Time
	Dropped bool
	Cause   Cause
	// Detail is a one-line human-readable justification of the cause.
	Detail string
}

// Autopsy is the full analysis of one trace.
type Autopsy struct {
	Opts   Options // resolved (inferred PoolCores/Deadline filled in)
	Events int

	Timelines []Timeline // every reconstructed DAG, ordered by sequence
	Misses    []Miss     // every EvDeadlineMiss in event order, attributed

	// CauseCounts[c] is the number of misses attributed to cause c;
	// the counts sum to len(Misses) by construction.
	CauseCounts [NumCauses]int

	DAGsSeen      int
	DAGsCompleted int
	DAGsDropped   int

	Calibration []KindCalibration // per task kind, sorted by kind
}

// TotalMisses returns the number of deadline misses in the trace.
func (a *Autopsy) TotalMisses() int { return len(a.Misses) }

// PartitionHolds reports the attribution invariant: per-cause counts sum
// exactly to the total miss count.
func (a *Autopsy) PartitionHolds() bool {
	sum := 0
	for _, n := range a.CauseCounts {
		sum += n
	}
	return sum == len(a.Misses)
}

// Analyze reconstructs timelines, attributes every deadline miss, and runs
// the calibration monitor over one trace's events (telemetry.Tracer.Events
// order). It is a pure function of its inputs, and it neither modifies nor
// keeps events, so the ring Tracer.Events returns is read where it lies.
func Analyze(events []telemetry.Event, opts Options) *Autopsy {
	if opts.PoolCores == 0 {
		opts.PoolCores = inferPoolCores(events)
	}
	if opts.Deadline == 0 {
		opts.Deadline = inferDeadline(events)
	}
	a := &Autopsy{Opts: opts, Events: len(events)}

	ts := buildTimelines(events)
	a.Timelines = ts.tls
	crit := make([]int32, 0, len(ts.arena))
	for i := range a.Timelines {
		tl := &a.Timelines[i]
		crit = tl.extractCriticalPath(crit)
		a.DAGsSeen++
		if tl.Dropped {
			a.DAGsDropped++
		} else if tl.Completed {
			a.DAGsCompleted++
		}
	}

	ctx := newAttributionContext(events, opts)
	cal := newCalibrator(driftWindow)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case telemetry.EvDeadlineMiss:
			// The miss made its DAG's timeline.
			tl := ts.timeline(ev.A)
			m := Miss{
				Seq: ev.A, Cell: ev.Cell, Slot: ev.Slot,
				At: ev.At, Latency: ev.Dur, Dropped: tl.Dropped,
			}
			m.Cause, m.Detail = ctx.attribute(tl, m)
			a.CauseCounts[m.Cause]++
			a.Misses = append(a.Misses, m)
		case telemetry.EvPredictSample:
			cal.add(ev.Task, sim.Time(ev.A), ev.Dur)
		}
	}
	a.Calibration = cal.rows(targetQuantile)
	return a
}

// inferPoolCores returns max observed physical core index + 1. EvPredictSample
// reuses the Core field for the DAG-local task ID and is excluded.
func inferPoolCores(events []telemetry.Event) int {
	max := int32(-1)
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EvTaskDispatch, telemetry.EvTaskComplete,
			telemetry.EvCoreAcquire, telemetry.EvCoreAwake,
			telemetry.EvCoreYield, telemetry.EvCoreRotate:
			if ev.Core > max {
				max = ev.Core
			}
			if ev.Kind == telemetry.EvCoreRotate && int32(ev.A) > max {
				max = int32(ev.A)
			}
		}
	}
	return int(max) + 1
}

// inferDeadline returns the tightest deadline upper bound the trace reveals:
// every miss has latency strictly above the deadline, so the minimum miss
// latency bounds it from above. Zero when the trace has no misses (the value
// is then never used).
func inferDeadline(events []telemetry.Event) sim.Time {
	var min sim.Time
	for _, ev := range events {
		if ev.Kind != telemetry.EvDeadlineMiss {
			continue
		}
		if min == 0 || ev.Dur < min {
			min = ev.Dur
		}
	}
	return min
}

// faults re-exported locally so attribution.go reads naturally.
const (
	classLaneFailure  = int64(faults.LaneFailure)
	classStuckOffload = int64(faults.StuckOffload)
	classYieldStorm   = int64(faults.YieldStorm)
	classFronthaul    = int64(faults.FronthaulLate)
	classDeviceReset  = int64(faults.DeviceReset)
)

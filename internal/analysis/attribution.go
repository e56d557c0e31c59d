package analysis

import (
	"fmt"
	"sort"

	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// attributionContext holds the trace-wide indexes the per-miss rules consult:
// which DAGs were hit by accelerator faults, when storm yields fired, and
// how many cores the pool owned over time.
type attributionContext struct {
	opts Options

	// accelFault maps DAG sequence -> injected lane-failure, stuck-offload,
	// or device-reset fallback.
	accelFault map[int64]bool
	// stormYields is the sorted list of storm-yield recovery times.
	stormYields []sim.Time
	// owned is the (time, RAN-owned cores) step series from core
	// acquire/yield events, in time order.
	owned []ownedPoint
	// migrations maps global cell ID -> sorted times the fleet placement
	// engine migrated the cell (EvCellMigrate).
	migrations map[int32][]sim.Time
}

type ownedPoint struct {
	at sim.Time
	n  int64
}

func newAttributionContext(events []telemetry.Event, opts Options) *attributionContext {
	ctx := &attributionContext{
		opts:       opts,
		accelFault: map[int64]bool{},
		migrations: map[int32][]sim.Time{},
	}
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EvCellMigrate:
			ctx.migrations[ev.Cell] = append(ctx.migrations[ev.Cell], ev.At)
		case telemetry.EvFaultInject:
			if (ev.A == classLaneFailure || ev.A == classStuckOffload ||
				ev.A == classDeviceReset) && ev.B >= 0 {
				ctx.accelFault[ev.B] = true
			}
		case telemetry.EvFaultRecover:
			if ev.A == classYieldStorm {
				ctx.stormYields = append(ctx.stormYields, ev.At)
			}
		case telemetry.EvCoreAcquire, telemetry.EvCoreYield:
			ctx.owned = append(ctx.owned, ownedPoint{at: ev.At, n: ev.A})
		}
	}
	sort.Slice(ctx.stormYields, func(i, j int) bool { return ctx.stormYields[i] < ctx.stormYields[j] })
	for _, ts := range ctx.migrations {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	return ctx
}

// migratedIn reports whether cell migrated inside [from, to].
func (ctx *attributionContext) migratedIn(cell int32, from, to sim.Time) bool {
	ts := ctx.migrations[cell]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= from })
	return i < len(ts) && ts[i] <= to
}

// stormIn reports whether any storm yield fired inside [from, to].
func (ctx *attributionContext) stormIn(from, to sim.Time) bool {
	i := sort.Search(len(ctx.stormYields), func(i int) bool { return ctx.stormYields[i] >= from })
	return i < len(ctx.stormYields) && ctx.stormYields[i] <= to
}

// minOwnedIn returns the minimum RAN-owned core count over [from, to], or
// -1 when the trace has no ownership data before `to` (static schedulers
// emit no acquire/yield events).
func (ctx *attributionContext) minOwnedIn(from, to sim.Time) int64 {
	// Value entering the window: last change at or before `from`.
	i := sort.Search(len(ctx.owned), func(i int) bool { return ctx.owned[i].at > from })
	min := int64(-1)
	if i > 0 {
		min = ctx.owned[i-1].n
	}
	for ; i < len(ctx.owned) && ctx.owned[i].at <= to; i++ {
		if min < 0 || ctx.owned[i].n < min {
			min = ctx.owned[i].n
		}
	}
	return min
}

// attribute classifies one deadline miss. The rules run in a fixed priority
// order and the last rule always matches, so every miss receives exactly one
// cause — the partition invariant is by construction, not by bookkeeping.
func (ctx *attributionContext) attribute(tl *Timeline, m Miss) (Cause, string) {
	// Rule -1: fleet migration in flight. A coordination-level rule, checked
	// before the timeline rules: EvCellMigrate is emitted by the fleet
	// placement engine, so it is trustworthy even when the merged fleet
	// trace carries no task-level events for this DAG. A miss on a cell that
	// just changed servers is ramp-up disturbance, not a steady-state
	// scheduling failure.
	if len(ctx.migrations) > 0 {
		from := m.At - migrationWindow
		if from < 0 {
			from = 0
		}
		if ctx.migratedIn(m.Cell, from, m.At) {
			return CauseMigration, fmt.Sprintf(
				"cell %d migrated between servers within %.1fms of the miss",
				m.Cell, migrationWindow.Ms())
		}
	}

	// Rule 0: ring wraparound ate the DAG's admission (or the whole DAG);
	// nothing below can be trusted.
	if tl == nil || tl.Truncated || len(tl.Tasks) == 0 {
		return CauseUnattributed, "timeline lost to trace-ring wraparound"
	}

	// Rule 1: fronthaul late-release — admission was delayed and the slot
	// would have made its deadline on the remaining latency alone.
	if tl.Fronthaul > 0 && m.Latency-tl.Fronthaul <= ctx.opts.Deadline {
		return CauseFronthaulLate, fmt.Sprintf(
			"admitted %.1fus after nominal release; %.1fus of work fits the deadline",
			tl.Fronthaul.Us(), (m.Latency - tl.Fronthaul).Us())
	}

	// Rule 2: accelerator stall or fault — an injected lane failure, stuck
	// offload, or device reset hit this DAG, or its critical path lost time
	// between offload attempts (watchdog + backoff stalls).
	if ctx.accelFault[m.Seq] {
		return CauseAccelFault, "lane/stuck/device-reset fault injected into this DAG"
	}
	for _, node := range tl.Critical {
		if s := tl.CriticalSpan(node); s != nil && s.Stall > 0 {
			return CauseAccelFault, fmt.Sprintf(
				"critical-path task %d stalled %.1fus between attempts (%d dispatches)",
				s.Node, s.Stall.Us(), s.Dispatches)
		}
	}

	// Rule 3: core-yield storm in flight.
	if ctx.stormIn(tl.Release, m.At) {
		return CauseYieldStorm, "core-yield storm fired while the DAG was in flight"
	}

	// Rule 4: WCET underprediction — a critical-path task overran its
	// predicted quantile (injected overruns land here too: the injector
	// models a mispredicted input).
	for _, node := range tl.Critical {
		s := tl.CriticalSpan(node)
		if s != nil && s.HasSample && s.Observed > s.Predicted {
			return CauseWCETUnderprediction, fmt.Sprintf(
				"critical-path task %d observed %.1fus > predicted %.1fus",
				s.Node, s.Observed.Us(), s.Predicted.Us())
		}
	}

	// Rules 5/6 split queueing-dominated misses by whether more cores were
	// even available: if the pool held every physical core for the whole
	// flight and queueing still dominated the critical path, the platform —
	// not the scheduler — was short.
	queueing := tl.Queue + tl.Stall + tl.Blocked
	work := tl.Exec + tl.Offload
	if queueing >= work && ctx.opts.PoolCores > 0 {
		if min := ctx.minOwnedIn(tl.Release, m.At); min >= int64(ctx.opts.PoolCores) {
			return CauseInsufficientCores, fmt.Sprintf(
				"all %d cores RAN-owned throughout; queueing %.1fus >= work %.1fus",
				ctx.opts.PoolCores, queueing.Us(), work.Us())
		}
	}

	// Rule 6: residual — queueing delay while the scheduler held back cores
	// (ramp-up lag, yielded cores, wakeup latency).
	return CauseQueueing, fmt.Sprintf(
		"queueing %.1fus vs work %.1fus with cores available", queueing.Us(), work.Us())
}

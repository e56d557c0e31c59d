package pool

import (
	"concordia/internal/accel"
	"concordia/internal/faults"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// telemetryHooks pre-resolves every metric handle the pool's hot paths touch
// so an instrumentation site is one nil check plus direct field increments —
// no map lookups inside the simulation loop. A nil *telemetryHooks (the
// default) disables telemetry entirely.
type telemetryHooks struct {
	rec *telemetry.Recorder
	trc *telemetry.Tracer

	cSimEvents    *telemetry.Counter
	cTasks        *telemetry.Counter
	cDAGsReleased *telemetry.Counter
	cDAGsDone     *telemetry.Counter
	cMisses       *telemetry.Counter
	cDrops        *telemetry.Counter
	cAcquires     *telemetry.Counter
	cYields       *telemetry.Counter
	cRotations    *telemetry.Counter
	cOffloads     *telemetry.Counter

	// Fault counters exist only when the injector is enabled, so fault-free
	// runs export byte-identical metrics CSVs (columns are registry-driven).
	cFaults   *telemetry.Counter
	cRecovers *telemetry.Counter

	gRANCores    *telemetry.Gauge
	gBusyCores   *telemetry.Gauge
	gReady       *telemetry.Gauge
	gInflight    *telemetry.Gauge
	gInterf      *telemetry.Gauge
	gPendingPeak *telemetry.Gauge

	// lastTarget dedups scheduler-decision events: the 20 µs tick emits only
	// when the core target changes, not 50 000 times per second.
	lastTarget int
	// pendingPeak is the engine event-queue high-water mark since the last
	// metrics sample (fed by the sim.Engine probe).
	pendingPeak int
}

func newTelemetryHooks(rec *telemetry.Recorder, faultsEnabled bool) *telemetryHooks {
	m := rec.Metrics
	t := &telemetryHooks{
		rec: rec,
		trc: rec.Trace,

		cSimEvents:    m.Counter("sim_events"),
		cTasks:        m.Counter("tasks_completed"),
		cDAGsReleased: m.Counter("dags_released"),
		cDAGsDone:     m.Counter("dags_completed"),
		cMisses:       m.Counter("deadline_misses"),
		cDrops:        m.Counter("dags_dropped"),
		cAcquires:     m.Counter("core_acquires"),
		cYields:       m.Counter("core_yields"),
		cRotations:    m.Counter("rotations"),
		cOffloads:     m.Counter("offloads"),

		gRANCores:    m.Gauge("ran_cores"),
		gBusyCores:   m.Gauge("busy_cores"),
		gReady:       m.Gauge("ready_tasks"),
		gInflight:    m.Gauge("inflight_dags"),
		gInterf:      m.Gauge("interference"),
		gPendingPeak: m.Gauge("sim_pending_peak"),

		lastTarget: -1,
	}
	if faultsEnabled {
		t.cFaults = m.Counter("faults_injected")
		t.cRecovers = m.Counter("fault_recoveries")
	}
	return t
}

// Recovery actions carried in the B field of EvFaultRecover events.
const (
	recoverCPUFallback = iota
	recoverOffloadRetry
	recoverAbandon
	recoverStormYield
)

// faultTrace emits one fault-injection event; a no-op when telemetry is off.
// Only called from fault paths, so the counters are always registered.
func (p *Pool) faultTrace(now sim.Time, class faults.Class, cell, slot, taskKind int32, seq int64, detail sim.Time) {
	// The SLO tracker's online miss attribution wants fault sightings even
	// when the event tracer is off (both methods are nil-safe).
	p.cfg.SLO.NoteFault(now, cell, class)
	if p.tel == nil {
		return
	}
	p.tel.cFaults.Inc()
	p.tel.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvFaultInject,
		Core: -1, Cell: cell, Slot: slot, Task: taskKind,
		Dur: detail, A: int64(class), B: seq,
	})
}

// recoverTrace emits one fault-recovery event; a no-op when telemetry is off.
func (p *Pool) recoverTrace(now sim.Time, class faults.Class, action int64, cell, slot, taskKind int32) {
	if p.tel == nil {
		return
	}
	p.tel.cRecovers.Inc()
	p.tel.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvFaultRecover,
		Core: -1, Cell: cell, Slot: slot, Task: taskKind,
		A: int64(class), B: action,
	})
}

// predictSample emits one predicted-vs-observed runtime pair at task
// completion. Per the EvPredictSample contract the Core field carries the
// DAG-local task ID (the node, not a core) so analysis can join the sample
// to its timeline; A is the prediction fixed at release time.
func (t *telemetryHooks) predictSample(now sim.Time, tk *task, observed sim.Time) {
	t.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvPredictSample,
		Core: int32(tk.node.ID), Cell: int32(tk.node.CellID), Slot: int32(tk.dag.dag.Slot),
		Task: int32(tk.node.Kind), Dur: observed, A: int64(tk.predicted), B: tk.dag.seq,
	})
}

func (p *Pool) taskFault(now sim.Time, class faults.Class, t *task, detail sim.Time) {
	p.faultTrace(now, class, int32(t.node.CellID), int32(t.dag.dag.Slot), int32(t.node.Kind), t.dag.seq, detail)
}

func (p *Pool) taskRecover(now sim.Time, class faults.Class, action int64, t *task) {
	p.recoverTrace(now, class, action, int32(t.node.CellID), int32(t.dag.dag.Slot), int32(t.node.Kind))
}

// attach installs the accelerator probe; the engine probe is the pool's
// onEvent. Called once from New when telemetry is enabled.
func (t *telemetryHooks) attach(p *Pool) {
	if p.cfg.Accel != nil {
		p.cfg.Accel.Probe = func(r accel.OffloadRecord) {
			t.cOffloads.Inc()
			t.trc.Emit(telemetry.Event{
				At: r.Start, Kind: telemetry.EvOffloadSpan,
				Core: -1, Cell: -1, Slot: -1, Task: int32(r.Kind),
				Dur: r.Done - r.Start, A: int64(r.Lane), B: int64(r.Codeblocks),
			})
		}
	}
}

// onSample records one metrics time-series row and the interference counter
// event. Driven by a per-slot sim ticker.
func (p *Pool) onSample(now sim.Time) {
	t := p.tel
	t.gRANCores.Set(float64(p.ranCores))
	t.gBusyCores.Set(float64(p.busyCores()))
	t.gReady.Set(float64(p.readyTotal()))
	t.gInflight.Set(float64(len(p.dags)))
	interf := p.interferenceBase()
	t.gInterf.Set(interf)
	t.gPendingPeak.Set(float64(t.pendingPeak))
	t.pendingPeak = 0
	t.rec.Metrics.Sample(now)
	t.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvInterference,
		Core: -1, Cell: -1, Slot: -1, Task: -1,
		A: int64(interf*1000 + 0.5),
	})
}

package pool

import (
	"concordia/internal/accel"
	"concordia/internal/faults"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// traceCount is a metrics column that counts one kind of trace event.
// onSample sets it from Tracer.Emitted just before each sample, so the
// column cannot disagree with the trace.
type traceCount struct {
	name string
	kind telemetry.EventKind
}

var traceCounts = [...]traceCount{
	{"tasks_completed", telemetry.EvTaskComplete},
	{"dags_released", telemetry.EvDAGRelease},
	{"dags_completed", telemetry.EvDAGComplete},
	{"deadline_misses", telemetry.EvDeadlineMiss},
	{"dags_dropped", telemetry.EvDAGDrop},
	{"core_acquires", telemetry.EvCoreAcquire},
	{"core_yields", telemetry.EvCoreYield},
	{"rotations", telemetry.EvCoreRotate},
	{"offloads", telemetry.EvOffloadSpan},
}

// faultCounts are sampled only when the injector is on, so fault-free runs
// keep their metrics CSV columns.
var faultCounts = [...]traceCount{
	{"faults_injected", telemetry.EvFaultInject},
	{"fault_recoveries", telemetry.EvFaultRecover},
}

// Recovery actions carried in the B field of EvFaultRecover events.
const (
	recoverCPUFallback = iota
	recoverOffloadRetry
	recoverAbandon
	recoverStormYield
)

// faultTrace emits one fault-injection event; a no-op when telemetry is off.
func (p *Pool) faultTrace(now sim.Time, class faults.Class, cell, slot, taskKind int32, seq int64, detail sim.Time) {
	// The SLO tracker's online miss attribution wants fault sightings even
	// when the event tracer is off (both methods are nil-safe).
	p.cfg.SLO.NoteFault(now, cell, class)
	p.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvFaultInject,
		Core: -1, Cell: cell, Slot: slot, Task: taskKind,
		Dur: detail, A: int64(class), B: seq,
	})
}

// recoverTrace emits one fault-recovery event; a no-op when telemetry is off.
func (p *Pool) recoverTrace(now sim.Time, class faults.Class, action int64, cell, slot, taskKind int32) {
	p.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvFaultRecover,
		Core: -1, Cell: cell, Slot: slot, Task: taskKind,
		A: int64(class), B: action,
	})
}

// predictSample emits one predicted-vs-observed runtime pair at task
// completion. Per the EvPredictSample contract the Core field carries the
// DAG-local task ID (the node, not a core) so analysis can join the sample
// to its timeline; A is the prediction fixed at release time.
func (p *Pool) predictSample(now sim.Time, tk *task, observed sim.Time) {
	p.trc.Emit(telemetry.Event{
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
func (p *Pool) attach() {
	if p.cfg.Accel != nil {
		p.cfg.Accel.Probe = func(r accel.OffloadRecord) {
			p.trc.Emit(telemetry.Event{
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
	m := p.cfg.Telemetry.Metrics
	for _, c := range traceCounts {
		m.Gauge(c.name).Set(float64(p.trc.Emitted(c.kind)))
	}
	if p.flt != nil {
		for _, c := range faultCounts {
			m.Gauge(c.name).Set(float64(p.trc.Emitted(c.kind)))
		}
	}
	m.Gauge("sim_events").Set(float64(p.eng.Fired()))
	m.Gauge("ran_cores").Set(float64(p.ranCores))
	m.Gauge("busy_cores").Set(float64(p.busyCores()))
	m.Gauge("ready_tasks").Set(float64(p.readyTotal()))
	m.Gauge("inflight_dags").Set(float64(len(p.dags)))
	interf := p.interferenceBase()
	m.Gauge("interference").Set(interf)
	m.Gauge("sim_pending_peak").Set(float64(p.pendingPeak))
	p.pendingPeak = 0
	m.Sample(now)
	p.trc.Emit(telemetry.Event{
		At: now, Kind: telemetry.EvInterference,
		Core: -1, Cell: -1, Slot: -1, Task: -1,
		A: int64(interf*1000 + 0.5),
	})
}

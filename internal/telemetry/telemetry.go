// Package telemetry is the deterministic observability subsystem: a
// structured event tracer recorded into a bounded ring buffer stamped with
// virtual sim.Time, a metrics registry (counters and gauges sampled into a
// time series) with sorted stable iteration, and exporters — Chrome
// trace-event JSON (loadable in Perfetto) and CSV time series for plotting.
//
// Everything the paper's §6 evaluation argues from is a distribution:
// per-task runtimes, queueing delays, scheduler core-count decisions,
// deadline-miss tails. The end-of-run pool.Report collapses those into
// summary numbers; this package preserves the event stream so a single
// missed deadline can be traced back to the dispatch decisions around it.
//
// Determinism contract (DESIGN.md §5b): the subsystem never reads the host
// clock or spawns goroutines, every timestamp is virtual, and every exporter
// iterates in sorted order — so for a fixed seed the exported bytes are
// identical across runs and across -workers counts. The disabled path is a
// nil check: a nil *Recorder (and nil *Tracer / *Registry) is valid and
// makes every record call a no-op, so the simulation hot loop pays one
// predictable branch when telemetry is off.
package telemetry

import (
	"fmt"

	"concordia/internal/sim"
)

// EventKind classifies one timeline record.
type EventKind uint8

// The event taxonomy. The Core/Cell/Slot/Task/Dur/A/B fields of Event carry
// kind-specific payloads documented per constant.
const (
	// EvDAGRelease marks a slot DAG admitted to the pool.
	// Cell, Slot, A=dag sequence, B=direction (ran.SlotDir).
	EvDAGRelease EventKind = iota
	// EvTaskEnqueue marks a task becoming ready (dependencies met).
	// Cell, Slot, Task=kind, A=dag sequence, B=DAG-local task ID.
	EvTaskEnqueue
	// EvTaskDispatch marks a task starting on a core.
	// Core, Cell, Slot, Task=kind, Dur=queueing delay, A=dag sequence,
	// B=DAG-local task ID.
	EvTaskDispatch
	// EvTaskComplete marks a task finishing on a core (Core>=0) or on the
	// accelerator (Core=-1). Core, Cell, Slot, Task=kind, Dur=measured
	// runtime, A=dag sequence, B=DAG-local task ID.
	EvTaskComplete
	// EvOffloadSpan records one accelerator request (emitted at submission;
	// At is the device start time). Task=kind, Dur=device processing time,
	// A=lane, B=codeblocks.
	EvOffloadSpan
	// EvDAGComplete marks a DAG finishing all tasks.
	// Cell, Slot, Dur=slot-processing latency, A=dag sequence, B=direction.
	EvDAGComplete
	// EvDeadlineMiss marks a DAG completing (or being dropped) past its
	// deadline. Cell, Slot, Dur=latency, A=dag sequence, B=direction.
	EvDeadlineMiss
	// EvDAGDrop marks a DAG abandoned at its deadline (DropLateDAGs).
	// Cell, Slot, Dur=age at drop, A=dag sequence, B=direction.
	EvDAGDrop
	// EvCoreAcquire marks a core preempted from best-effort work.
	// Core, A=RAN-owned cores after the acquire, B=active workload count.
	EvCoreAcquire
	// EvCoreAwake marks the RAN worker becoming runnable on a core.
	// Core, Dur=wakeup latency.
	EvCoreAwake
	// EvCoreYield marks a core returned to best-effort workloads.
	// Core, A=RAN-owned cores after the yield.
	EvCoreYield
	// EvCoreRotate marks one 2 ms core-rotation swap.
	// Core=yielded core, A=acquired core.
	EvCoreRotate
	// EvSchedDecision records a scheduler tick whose core target differs
	// from the previous tick's. A=previous target, B=new target; Core=
	// currently RAN-owned cores.
	EvSchedDecision
	// EvInterference samples the workload cache-pressure index.
	// A=index in milli-units (0..1000).
	EvInterference
	// EvFaultInject marks one injected fault (internal/faults).
	// A=fault class (faults.Class), Cell/Slot/Task where applicable,
	// Dur=class-specific detail (overrun extra time, fronthaul delay,
	// stuck-offload watchdog timeout).
	EvFaultInject
	// EvFaultRecover marks one recovery action after an injected fault.
	// A=fault class, B=action (0=cpu-fallback, 1=offload-retry, 2=abandon,
	// 3=storm-yield), Cell/Slot/Task where applicable.
	EvFaultRecover
	// EvPredictSample carries one predicted-vs-observed WCET pair, emitted
	// when a task's runtime becomes known (completion on a core or on the
	// accelerator). Core carries the DAG-local task ID — not a core number —
	// so the calibration monitor and the miss-cause attributor can join the
	// sample back to its timeline. Cell, Slot, Task=kind, Dur=observed
	// runtime, A=predicted WCET (ns), B=dag sequence.
	EvPredictSample
	// EvCellAdmit marks the fleet placement engine admitting a cell onto a
	// server (initial placement or re-admission after a reject retry).
	// Cell=global cell ID, Slot=fleet epoch, A=server, B=feasible-server
	// count within the cell's fronthaul budget.
	EvCellAdmit
	// EvCellMigrate marks the fleet placement engine moving a cell between
	// servers at an epoch boundary (load/miss pressure crossed the
	// hysteresis thresholds, or a forced demo migration). Cell=global cell
	// ID, Slot=fleet epoch, A=source server, B=destination server,
	// Dur=fronthaul latency to the destination.
	EvCellMigrate
	// EvCellReject marks a cell the placement engine could not admit: no
	// server lies within its fronthaul-latency budget. Cell=global cell ID,
	// Slot=fleet epoch, A=-1, B=feasible-server count (0).
	EvCellReject
	// EvDeviceReset marks an accelerator device entering (B=1) or leaving
	// (B=0) an injected whole-device reset. A=device ID.
	EvDeviceReset
	// EvReconcile marks the pool's reconciliation loop re-partitioning VF
	// queue depths after fleet membership changed. A=devices serving
	// traffic, B=total devices.
	EvReconcile
	// EvBatchSubmit marks one coalesced offload DMA transfer: A=requests in
	// the batch, B=total codeblocks, Dur=CPU submit time amortized away
	// versus per-task submission.
	EvBatchSubmit
	// EvSLOWindow marks one closed SLO aggregation window for a slice:
	// Task=slice, Slot=window sequence, Core=server, A=attempts, B=misses,
	// Dur=the slice objective's quantile latency over the window.
	EvSLOWindow
	// EvSLOAlert marks a multi-window burn-rate alert transition for a
	// slice: Task=slice, Slot=window sequence, Core=server, A=fast-window
	// burn rate in milli-units (1000 = burning exactly at budget),
	// B=1 firing / 0 cleared.
	EvSLOAlert
	numEventKinds
)

// NumEventKinds is the number of defined event kinds, exported for
// exhaustiveness checks in tests and analysis tooling.
const NumEventKinds = int(numEventKinds)

var eventKindNames = [numEventKinds]string{
	"dag_release", "task_enqueue", "task_dispatch", "task_complete",
	"offload_span", "dag_complete", "deadline_miss", "dag_drop",
	"core_acquire", "core_awake", "core_yield", "core_rotate",
	"sched_decision", "interference", "fault_inject", "fault_recover",
	"predict_sample", "cell_admit", "cell_migrate", "cell_reject",
	"device_reset", "reconcile", "batch_submit", "slo_window", "slo_alert",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k >= numEventKinds {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventKindNames[k]
}

// kindByName is the reverse of eventKindNames, built once on first use by
// ParseEventKind (the CSV reader's hot path is still a map lookup).
var kindByName = func() map[string]EventKind {
	m := make(map[string]EventKind, numEventKinds)
	for k := EventKind(0); k < numEventKinds; k++ {
		m[eventKindNames[k]] = k
	}
	return m
}()

// ParseEventKind maps an event-kind name (the String form, as written by
// WriteEventsCSV) back to its EventKind.
func ParseEventKind(s string) (EventKind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// Event is one timeline record. Unused fields hold -1 (Core, Cell, Slot,
// Task) or 0 (Dur, A, B); the field meaning per kind is documented on the
// EventKind constants. The struct is a compact value type so the ring buffer
// is a single flat allocation.
type Event struct {
	At   sim.Time
	Dur  sim.Time
	A, B int64
	Core int32
	Cell int32
	Slot int32
	Task int32
	Kind EventKind
}

// Tracer records events into a bounded ring buffer. When the buffer is full
// the oldest events are overwritten (the dropped count is kept), so memory
// stays bounded on arbitrarily long runs while the most recent window — the
// part that explains a late deadline miss — survives.
//
// Every Emit is also counted by kind, overwritten events included, so the
// metrics time series reads its counter columns off the trace (Emitted).
//
// A nil *Tracer is valid: Emit is a no-op and accessors return zero values.
type Tracer struct {
	buf     []Event
	next    int // next write position
	full    bool
	dropped uint64
	// emitted is indexed by the raw kind byte, so a kind outside the
	// taxonomy is counted too and never indexes out of range.
	emitted [256]uint64
}

// DefaultTraceCapacity bounds the ring when Options does not: 2^18 events
// (~14 MiB at 56 bytes each), roughly the last 0.8 simulated seconds of a
// 7-cell 20 MHz pool's task-level stream.
const DefaultTraceCapacity = 1 << 18

// NewTracer returns a tracer with the given ring capacity (<=0 selects
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit appends one event, overwriting the oldest when the ring is full.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.emitted[ev.Kind]++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		t.next = len(t.buf) % cap(t.buf)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
	t.full = true
	t.dropped++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Emitted returns how many events of kind k were emitted, overwritten ones
// included.
func (t *Tracer) Emitted(k EventKind) uint64 {
	if t == nil {
		return 0
	}
	return t.emitted[k]
}

// Events returns a copy of the retained events in emission order (oldest
// first). The simulation emits in virtual-time order with one exception:
// offload spans are recorded at submission with a future device start time,
// so their At may exceed a neighbour's by the queueing delay.
func (t *Tracer) Events() []Event {
	older, newer := t.ring()
	if len(older)+len(newer) == 0 {
		return nil
	}
	out := make([]Event, 0, len(older)+len(newer))
	out = append(out, older...)
	return append(out, newer...)
}

// ring returns the retained events in place, in emission order: every event
// of older, then every event of newer. The exporters walk it without
// copying; the slices alias the ring, so they are valid only until the next
// Emit.
func (t *Tracer) ring() (older, newer []Event) {
	if t == nil {
		return nil, nil
	}
	if !t.full {
		return t.buf, nil
	}
	return t.buf[t.next:], t.buf[:t.next]
}

// Options configures a Recorder.
type Options struct {
	// TraceCapacity bounds the event ring buffer (<=0 selects
	// DefaultTraceCapacity).
	TraceCapacity int
}

// Recorder bundles the event tracer and the metrics registry that one
// simulation writes into. A nil *Recorder disables telemetry: components
// guard instrumentation sites with a single nil check. The pool samples
// the metrics time series once per slot.
type Recorder struct {
	Trace   *Tracer
	Metrics *Registry
}

// New returns an enabled recorder.
func New(opts Options) *Recorder {
	return &Recorder{Trace: NewTracer(opts.TraceCapacity), Metrics: NewRegistry()}
}

package slo

import (
	"slices"
	"sort"

	"concordia/internal/faults"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// Key identifies one aggregation stream: a cell on a server, mapped to a
// slice. The fault-class dimension is a fixed per-key counter table rather
// than a key component — the taxonomy is small and fixed, so folding it
// into the key would only multiply the key space by a constant.
type Key struct {
	Cell   int32
	Server int32
	Slice  int32
}

func keyLess(a, b Key) bool {
	if a.Cell != b.Cell {
		return a.Cell < b.Cell
	}
	if a.Server != b.Server {
		return a.Server < b.Server
	}
	return a.Slice < b.Slice
}

// keyState holds one key's current tumbling-window sketches/counters plus
// its run totals. Allocated once on the key's first observation; every
// later record and rotation touches only this preallocated state.
type keyState struct {
	key Key

	// Current tumbling window.
	lat      *Sketch // DAG latency
	slack    *Sketch // deadline slack (negative past the deadline)
	attempts uint64
	misses   uint64

	// Run totals (survive rotation; merged at the fleet barrier). The worst
	// slack is Deadline − totLat.Max().
	totLat      *Sketch
	totTask     *Sketch // per-task runtime
	totAttempts uint64
	totMisses   uint64
	totTasks    uint64
	// faultMisses attributes misses to the fault class most recently
	// injected on the cell (within faultHorizon); index
	// faults.NumClasses counts misses with no recent fault.
	faultMisses [faults.NumClasses + 1]uint64
}

// winCounts is one closed sub-window's miss/attempt counters. The sliding
// burn-rate windows are sums over a ring of these, so sliding state is a
// few words per slice rather than a sketch per offset.
type winCounts struct {
	attempts uint64
	misses   uint64
}

// sliceState aggregates a slice (an objective) across all its cells.
type sliceState struct {
	obj objective

	// Current tumbling window, slice-wide.
	lat      *Sketch
	attempts uint64
	misses   uint64

	// Ring of the last slowWindows closed sub-windows (index ringNext is
	// the next write slot; unfilled entries are zero-attempt windows).
	ring     [slowWindows]winCounts
	ringNext int

	firing      bool
	alertsFired int

	// Run totals.
	totLat      *Sketch
	totAttempts uint64
	totMisses   uint64
	violations  int // windows whose objective-quantile latency exceeded target
	windows     int // closed windows with at least one attempt
}

// burnPoint is rotation scratch: the just-closed window's burn state per
// slice, stamped into that window's key rows.
type burnPoint struct {
	fast, slow float64
	firing     bool
}

// Tracker is the streaming SLO engine: it consumes per-DAG and per-task
// observations in virtual-time order, rolls them through tumbling windows,
// maintains sliding burn-rate state per slice, and emits EvSLOWindow /
// EvSLOAlert telemetry events at window boundaries. A nil *Tracker is
// valid and every method on it is a no-op — the disabled fast path mirrors
// the telemetry tracer's nil-check discipline.
type Tracker struct {
	opts Options
	trc  *telemetry.Tracer

	index  map[Key]*keyState
	keys   []*keyState // sorted by keyLess; rotation iterates this, not the map
	slices []*sliceState

	winStart sim.Time // start of the current (open) window
	boundary sim.Time // end of the current window
	winSeq   int32    // closed windows so far

	rows        []WindowRow // ring: oldest overwritten first past rowCapacity
	rowNext     int
	rowFull     bool
	rowsEvicted uint64

	alerts        []AlertRow
	alertsDropped uint64

	// Per-cell most recent fault injection, for online miss attribution.
	lastFaultClass []int8
	lastFaultAt    []sim.Time

	burns [len(objectives)]burnPoint // rotation scratch, one per slice
}

// New builds a Tracker. trc may be nil (events are then dropped but the
// CSV/report surfaces still work).
func New(opts Options, trc *telemetry.Tracer) *Tracker {
	opts = opts.withDefaults()
	t := &Tracker{
		opts:     opts,
		trc:      trc,
		index:    make(map[Key]*keyState),
		boundary: opts.Window,
		rows:     make([]WindowRow, 0, rowCapacity),
		alerts:   make([]AlertRow, 0, alertCapacity),
	}
	for _, obj := range objectives {
		t.slices = append(t.slices, &sliceState{
			obj:    obj,
			lat:    NewSketch(),
			totLat: NewSketch(),
		})
	}
	return t
}

// keyFor returns (creating on first sight) the state for a cell's stream:
// keyed by the cell's global ID, in the slice of that ID's parity.
func (t *Tracker) keyFor(cell int32) *keyState {
	if t.opts.Cells != nil {
		cell = t.opts.Cells[cell]
	}
	return t.key(Key{Cell: cell, Server: t.opts.Server, Slice: cell & 1})
}

// key returns k's state, creating it on first sight and inserting it into
// the sorted key list.
func (t *Tracker) key(k Key) *keyState {
	if ks, ok := t.index[k]; ok {
		return ks
	}
	ks := &keyState{
		key:     k,
		lat:     NewSketch(),
		slack:   NewSketch(),
		totLat:  NewSketch(),
		totTask: NewSketch(),
	}
	t.index[k] = ks
	i := sort.Search(len(t.keys), func(i int) bool { return !keyLess(t.keys[i].key, k) })
	t.keys = slices.Insert(t.keys, i, ks)
	return ks
}

// advance rotates every window boundary crossed by now. Records arrive in
// virtual-time order (the simulator is single-clocked), so rotation is a
// simple while-loop over boundaries.
func (t *Tracker) advance(now sim.Time) {
	for now >= t.boundary {
		t.rotate(t.boundary)
		t.winStart = t.boundary
		t.boundary += t.opts.Window
	}
}

// NoteFault records a fault injection on a cell for online miss
// attribution. Nil-safe.
func (t *Tracker) NoteFault(now sim.Time, cell int32, class faults.Class) {
	if t == nil || cell < 0 || int(class) >= faults.NumClasses {
		return
	}
	for int(cell) >= len(t.lastFaultAt) {
		t.lastFaultAt = append(t.lastFaultAt, 0)
		t.lastFaultClass = append(t.lastFaultClass, -1)
	}
	t.lastFaultAt[cell] = now
	t.lastFaultClass[cell] = int8(class)
}

// recentFault returns the attribution bucket for a miss on cell at now:
// the class of the most recent fault within faultHorizon, or
// faults.NumClasses when none is recent.
func (t *Tracker) recentFault(now sim.Time, cell int32) int {
	if cell >= 0 && int(cell) < len(t.lastFaultAt) && t.lastFaultClass[cell] >= 0 &&
		now-t.lastFaultAt[cell] <= faultHorizon {
		return int(t.lastFaultClass[cell])
	}
	return faults.NumClasses
}

// RecordDAG observes one completed (or dropped) DAG: its end-to-end
// latency and whether it missed the deadline. Slack is derived as
// Deadline - latency (negative past the deadline). Nil-safe; zero-alloc
// after the cell's first observation.
func (t *Tracker) RecordDAG(now sim.Time, cell int32, latency sim.Time, missed bool) {
	if t == nil {
		return
	}
	t.advance(now)
	lat := int64(latency)
	slack := int64(t.opts.Deadline - latency)
	ks := t.keyFor(cell)
	ks.lat.Record(lat)
	ks.slack.Record(slack)
	ks.totLat.Record(lat)
	ks.attempts++
	ks.totAttempts++
	ss := t.slices[ks.key.Slice]
	ss.lat.Record(lat)
	ss.totLat.Record(lat)
	ss.attempts++
	ss.totAttempts++
	if missed {
		ks.misses++
		ks.totMisses++
		ks.faultMisses[t.recentFault(now, cell)]++
		ss.misses++
		ss.totMisses++
	}
}

// RecordTask observes one task completion's runtime. Task runtimes feed
// the per-key run-total sketch (for the health report's task-latency
// column); they do not roll through windows — the burn-rate rules are
// defined over DAG deadlines.
func (t *Tracker) RecordTask(now sim.Time, cell int32, runtime sim.Time) {
	if t == nil {
		return
	}
	t.advance(now)
	ks := t.keyFor(cell)
	ks.totTask.Record(int64(runtime))
	ks.totTasks++
}

// burnRate converts windowed counters into a budget-relative burn:
// 1.0 means missing at exactly the error budget. Empty windows burn 0.
func burnRate(w winCounts, budget float64) float64 {
	if w.attempts == 0 {
		return 0
	}
	return float64(w.misses) / float64(w.attempts) / budget
}

// ringSum sums the last n closed sub-windows (ending at the most recently
// pushed entry).
func (ss *sliceState) ringSum(n int) winCounts {
	var w winCounts
	i := ss.ringNext
	for k := 0; k < n; k++ {
		i--
		if i < 0 {
			i = len(ss.ring) - 1
		}
		w.attempts += ss.ring[i].attempts
		w.misses += ss.ring[i].misses
	}
	return w
}

// rotate closes the current window at boundary b: pushes slice counters
// into the burn rings, evaluates the multi-window alert rules, emits
// EvSLOWindow/EvSLOAlert, appends key rows, and resets window state in
// place. Zero allocations: sketches Reset, rows land in the preallocated
// ring.
func (t *Tracker) rotate(b sim.Time) {
	seq := t.winSeq
	t.winSeq++
	// Slices first: burn state feeds the key rows below.
	for si, ss := range t.slices {
		ss.ring[ss.ringNext] = winCounts{ss.attempts, ss.misses}
		ss.ringNext++
		if ss.ringNext == len(ss.ring) {
			ss.ringNext = 0
		}
		fast := burnRate(ss.ringSum(fastWindows), ss.obj.missBudget)
		slow := burnRate(ss.ringSum(slowWindows), ss.obj.missBudget)
		firing := fast >= t.opts.BurnThreshold && slow >= t.opts.BurnThreshold
		t.burns[si] = burnPoint{fast: fast, slow: slow, firing: firing}

		var qLat float64
		if ss.attempts > 0 {
			ss.windows++
			qLat = ss.lat.Quantile(ss.obj.quantile)
			if qLat > float64(t.opts.Deadline) {
				ss.violations++
			}
		}
		if ss.totAttempts > 0 {
			t.trc.Emit(telemetry.Event{
				At: b, Dur: sim.Time(int64(qLat)), Kind: telemetry.EvSLOWindow,
				Core: t.opts.Server, Cell: -1, Slot: seq, Task: int32(si),
				A: int64(ss.attempts), B: int64(ss.misses),
			})
		}
		if firing != ss.firing {
			ss.firing = firing
			if firing {
				ss.alertsFired++
			}
			t.appendAlert(AlertRow{
				At: b, Server: t.opts.Server, Slice: int32(si), Window: seq,
				Firing: firing, FastBurn: fast, SlowBurn: slow,
			})
			t.trc.Emit(telemetry.Event{
				At: b, Kind: telemetry.EvSLOAlert,
				Core: t.opts.Server, Cell: -1, Slot: seq, Task: int32(si),
				A: burnMilli(fast), B: int64(boolTo01(firing)),
			})
		}
		ss.attempts, ss.misses = 0, 0
		ss.lat.Reset()
	}
	// Key rows for cells active in this window, in sorted key order.
	for _, ks := range t.keys {
		if ks.attempts > 0 {
			bp := t.burns[ks.key.Slice]
			t.appendRow(WindowRow{
				Start: t.winStart, End: b, Window: seq,
				Cell: ks.key.Cell, Server: ks.key.Server, Slice: ks.key.Slice,
				Attempts: ks.attempts, Misses: ks.misses,
				P50Us:     ks.lat.QuantileUs(0.50),
				P99Us:     ks.lat.QuantileUs(0.99),
				P999Us:    ks.lat.QuantileUs(0.999),
				SlackP1Us: ks.slack.QuantileUs(0.01),
				FastBurn:  bp.fast, SlowBurn: bp.slow, Firing: bp.firing,
			})
			ks.attempts, ks.misses = 0, 0
			ks.lat.Reset()
			ks.slack.Reset()
		}
	}
}

// burnMilli clamps a burn rate into int64 milli-units for event args.
func burnMilli(b float64) int64 {
	m := b * 1000
	if m > 1e15 {
		m = 1e15
	}
	return int64(m)
}

func boolTo01(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pending reports whether the open window has unflushed observations.
func (t *Tracker) pending() bool {
	for _, ss := range t.slices {
		if ss.attempts > 0 {
			return true
		}
	}
	return false
}

// Flush advances to end and closes the final (possibly partial) window if
// it has observations. Call once when the run ends, before exporting or
// merging. Nil-safe and idempotent.
func (t *Tracker) Flush(end sim.Time) {
	if t == nil {
		return
	}
	t.advance(end)
	if t.pending() && end > t.winStart {
		t.rotate(end)
		t.winStart = end
		t.boundary = end + t.opts.Window
	}
}

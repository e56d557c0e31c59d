package analysis

import (
	"cmp"
	"slices"
	"sort"

	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// TaskSpan is the reconstructed lifetime of one task within a DAG. A task
// may be enqueued and dispatched more than once (stuck-offload retries);
// the span folds the attempts into one record.
type TaskSpan struct {
	Node int32 // DAG-local task ID
	Kind int32 // ran.TaskKind

	ReadyAt sim.Time // first became ready (enqueue, or dispatch for kept successors)
	StartAt sim.Time // last dispatch (the attempt that completed)
	EndAt   sim.Time // completion

	// Dispatches counts dispatch events (>1 means offload retries).
	Dispatches int

	// Decomposition of EndAt-ReadyAt: Queue is the summed dispatch delays
	// across attempts, Exec the final software runtime, Offload the final
	// accelerator runtime (submit + device), Stall the residual lost to
	// watchdog timeouts and retry backoff between attempts.
	Queue   sim.Time
	Exec    sim.Time
	Offload sim.Time
	Stall   sim.Time

	// Predicted/Observed are the WCET pair from EvPredictSample when the
	// task completed (HasSample).
	Predicted sim.Time
	Observed  sim.Time

	Done bool
	// Offloaded reports the task completed on the accelerator (Core=-1).
	Offloaded bool
	HasSample bool

	hasReady bool
	// seen marks an arena slot that a task event filled.
	seen bool
	// onPath marks a span already on its DAG's critical path.
	onPath bool
}

// Timeline is the reconstructed lifetime of one DAG.
type Timeline struct {
	Seq  int64
	Cell int32
	Slot int32
	Dir  int64

	// AdmitAt is when the pool admitted the DAG (EvDAGRelease). Release is
	// the nominal radio release stamp, recovered as EndAt-Latency; for a
	// fronthaul-late slot AdmitAt > Release.
	AdmitAt  sim.Time
	Release  sim.Time
	EndAt    sim.Time
	Latency  sim.Time
	HasAdmit bool
	HasEnd   bool

	Completed bool // EvDAGComplete seen
	Dropped   bool // EvDAGDrop seen
	Missed    bool // EvDeadlineMiss seen

	// Tasks holds the DAG's spans sorted by node ID, a window of one span
	// arena that every timeline of the autopsy shares.
	Tasks []TaskSpan

	// Critical is the chain of node IDs (root-most first) that determined
	// the completion time, recovered by walking completion/ready stamps
	// backwards from the last-finishing task.
	Critical []int32

	// Critical-path decomposition of Latency. Fronthaul is the admission
	// delay (AdmitAt-Release); Blocked is the residual not explained by the
	// chain — predecessor waits outside the chain and, for dropped DAGs,
	// the dead time between the last completion and the drop.
	Fronthaul sim.Time
	Queue     sim.Time
	Exec      sim.Time
	Offload   sim.Time
	Stall     sim.Time
	Blocked   sim.Time

	// Truncated marks a timeline whose admission record was lost to ring
	// wraparound; its decomposition is unreliable.
	Truncated bool
}

// dagRef names the DAG an event belongs to: its sequence number and, for a
// task-level event, the DAG-local task ID. ok is false for an event of no
// DAG.
func dagRef(ev *telemetry.Event) (seq int64, node int32, task, ok bool) {
	switch ev.Kind {
	case telemetry.EvDAGRelease, telemetry.EvDAGComplete, telemetry.EvDAGDrop, telemetry.EvDeadlineMiss:
		return ev.A, 0, false, true
	case telemetry.EvTaskEnqueue, telemetry.EvTaskDispatch, telemetry.EvTaskComplete:
		return ev.A, int32(ev.B), true, true
	case telemetry.EvPredictSample:
		// Core carries the DAG-local task ID on this kind.
		return ev.B, ev.Core, true, true
	}
	return 0, 0, false, false
}

// dagWindow is what the counting pass learns of one DAG: its sequence
// number, the cell and slot of the first event naming it, and where its
// spans sit in the span arena, size slots from off. A dense window holds
// the span of node lo+i at slot i; a sparse one, for a DAG whose node IDs
// spread wider than its task-event count, holds its spans in arrival order
// (used of them), found through timelineSet.sparse, and is sorted once
// filled. Either way a window is no larger than the DAG's task-event
// count, so no node ID can make the arena outgrow the trace.
type dagWindow struct {
	seq             int64
	cell, slot      int32
	off, size, used int
	lo, hi          int32
	dense           bool
}

// spanKey addresses a span of a sparse window: the timeline's index and
// the node ID.
type spanKey struct {
	tl   int32
	node int32
}

// timelineSet is the flat form of every DAG in a trace: one timeline per
// sequence number, in sequence order, addressed through index, and one
// arena that holds every timeline's spans.
type timelineSet struct {
	tls    []Timeline
	index  map[int64]int32
	wins   []dagWindow
	arena  []TaskSpan
	sparse map[spanKey]int
}

// buildTimelines groups the event stream by DAG sequence number in two
// passes. The first counts each DAG's task events and the range of node
// IDs they name, which sizes every window of the span arena; the second
// fills the timelines and spans in place.
func buildTimelines(events []telemetry.Event) *timelineSet {
	ts := &timelineSet{index: map[int64]int32{}}
	for i := range events {
		ev := &events[i]
		seq, node, task, ok := dagRef(ev)
		if !ok {
			continue
		}
		j, known := ts.index[seq]
		if !known {
			j = int32(len(ts.wins))
			ts.index[seq] = j
			ts.wins = append(ts.wins, dagWindow{seq: seq, cell: ev.Cell, slot: ev.Slot})
		}
		if !task {
			continue
		}
		w := &ts.wins[j]
		if w.size == 0 {
			w.lo, w.hi = node, node
		}
		w.lo, w.hi = min(w.lo, node), max(w.hi, node)
		w.size++ // the task-event count until the windows are laid out
	}
	// A trace lists its DAGs in release order, so this is usually a check.
	if !slices.IsSortedFunc(ts.wins, bySeq) {
		slices.SortFunc(ts.wins, bySeq)
		for j := range ts.wins {
			ts.index[ts.wins[j].seq] = int32(j)
		}
	}

	ts.tls = make([]Timeline, len(ts.wins))
	total := 0
	for j := range ts.wins {
		w := &ts.wins[j]
		ts.tls[j] = Timeline{Seq: w.seq, Cell: w.cell, Slot: w.slot}
		if width := int64(w.hi) - int64(w.lo) + 1; w.size > 0 && width <= int64(w.size) {
			w.size, w.dense = int(width), true
		}
		w.off = total
		total += w.size
	}
	ts.arena = make([]TaskSpan, total)

	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case telemetry.EvDAGRelease:
			tl := ts.timeline(ev.A)
			tl.AdmitAt = ev.At
			tl.HasAdmit = true
			tl.Dir = ev.B
		case telemetry.EvTaskEnqueue:
			s := ts.span(ev.A, int32(ev.B), ev.Task)
			if !s.hasReady {
				s.ReadyAt = ev.At
				s.hasReady = true
			}
		case telemetry.EvTaskDispatch:
			s := ts.span(ev.A, int32(ev.B), ev.Task)
			if !s.hasReady {
				// Kept successors skip the ready queue: dispatch with zero
				// delay is the only record, and ready time equals dispatch.
				s.ReadyAt = ev.At - ev.Dur
				s.hasReady = true
			}
			s.StartAt = ev.At
			s.Dispatches++
			s.Queue += ev.Dur
		case telemetry.EvTaskComplete:
			s := ts.span(ev.A, int32(ev.B), ev.Task)
			s.EndAt = ev.At
			s.Done = true
			s.Offloaded = ev.Core < 0
			if s.Offloaded {
				s.Offload = ev.Dur
			} else {
				s.Exec = ev.Dur
			}
			if !s.hasReady {
				// Both enqueue and dispatch lost to wraparound: anchor the
				// span at its completion so downstream math stays sane.
				s.ReadyAt = ev.At - ev.Dur
				s.hasReady = true
			}
		case telemetry.EvPredictSample:
			// Core carries the DAG-local task ID on this kind.
			s := ts.span(ev.B, ev.Core, ev.Task)
			s.Predicted = sim.Time(ev.A)
			s.Observed = ev.Dur
			s.HasSample = true
		case telemetry.EvDAGComplete:
			tl := ts.timeline(ev.A)
			tl.EndAt = ev.At
			tl.Latency = ev.Dur
			tl.HasEnd = true
			tl.Completed = true
			tl.Dir = ev.B
		case telemetry.EvDAGDrop:
			tl := ts.timeline(ev.A)
			tl.EndAt = ev.At
			tl.Latency = ev.Dur
			tl.HasEnd = true
			tl.Dropped = true
			tl.Dir = ev.B
		case telemetry.EvDeadlineMiss:
			ts.timeline(ev.A).Missed = true
		}
	}

	for j := range ts.tls {
		tl, w := &ts.tls[j], &ts.wins[j]
		tl.Tasks = ts.arena[w.off : w.off+w.size : w.off+w.size]
		if w.dense {
			// Close the holes of node IDs the trace never named.
			n := 0
			for i := range tl.Tasks {
				if tl.Tasks[i].seen {
					tl.Tasks[n] = tl.Tasks[i]
					n++
				}
			}
			tl.Tasks = tl.Tasks[:n:n]
		} else {
			tl.Tasks = tl.Tasks[:w.used:w.used]
			slices.SortFunc(tl.Tasks, func(a, b TaskSpan) int { return cmp.Compare(a.Node, b.Node) })
		}
		for i := range tl.Tasks {
			s := &tl.Tasks[i]
			// Finish per-span decomposition: whatever the attempts did not
			// spend queueing or executing was stall (watchdog + backoff).
			if s.Done {
				s.Stall = max(s.EndAt-s.ReadyAt-s.Queue-s.Exec-s.Offload, 0)
			}
		}
		if tl.HasEnd {
			tl.Release = tl.EndAt - tl.Latency
		} else if tl.HasAdmit {
			tl.Release = tl.AdmitAt
		}
		tl.Truncated = !tl.HasAdmit
	}
	return ts
}

func bySeq(a, b dagWindow) int { return cmp.Compare(a.seq, b.seq) }

// timeline returns the timeline of DAG seq, which the counting pass made.
func (ts *timelineSet) timeline(seq int64) *Timeline {
	return &ts.tls[ts.index[seq]]
}

// span returns the span of task node in DAG seq, claiming its arena slot
// with the kind of the first event that names it.
func (ts *timelineSet) span(seq int64, node, kind int32) *TaskSpan {
	j := ts.index[seq]
	w := &ts.wins[j]
	var s *TaskSpan
	if w.dense {
		s = &ts.arena[w.off+int(node)-int(w.lo)]
	} else {
		if ts.sparse == nil {
			ts.sparse = map[spanKey]int{}
		}
		key := spanKey{tl: j, node: node}
		slot, ok := ts.sparse[key]
		if !ok {
			slot = w.used
			w.used++
			ts.sparse[key] = slot
		}
		s = &ts.arena[w.off+slot]
	}
	if !s.seen {
		s.seen = true
		s.Node = node
		s.Kind = kind
	}
	return s
}

// extractCriticalPath walks backwards from the last-finishing task: each
// step picks the completed span whose completion time is the latest one not
// after the current span's ready time — exactly the dependency whose finish
// made the task ready, since the pool enqueues a successor the instant its
// last predecessor completes. The walk needs no DAG edge information, so it
// works on the trace alone. It marks the chain's spans in place, appends
// the chain's node IDs to crit (root-first) and returns the extended slice;
// the timeline's Critical is that tail of it.
func (tl *Timeline) extractCriticalPath(crit []int32) []int32 {
	cur := -1
	for i := range tl.Tasks {
		s := &tl.Tasks[i]
		if !s.Done {
			continue
		}
		if cur < 0 || later(s, &tl.Tasks[cur]) {
			cur = i
		}
	}
	if cur < 0 {
		return crit
	}
	start := len(crit)
	for cur >= 0 {
		c := &tl.Tasks[cur]
		c.onPath = true
		crit = append(crit, c.Node)
		tl.Queue += c.Queue
		tl.Exec += c.Exec
		tl.Offload += c.Offload
		tl.Stall += c.Stall
		pred := -1
		for i := range tl.Tasks {
			s := &tl.Tasks[i]
			if !s.Done || s.onPath || s.EndAt > c.ReadyAt {
				continue
			}
			if pred < 0 || later(s, &tl.Tasks[pred]) {
				pred = i
			}
		}
		// A root's ready time coincides with admission; stop once no span
		// finishes early enough to have gated the current one.
		cur = pred
	}
	// The walk appended end-first; record root-first.
	slices.Reverse(crit[start:])
	tl.Critical = crit[start:len(crit):len(crit)]
	if tl.HasAdmit && tl.AdmitAt > tl.Release {
		tl.Fronthaul = tl.AdmitAt - tl.Release
	}
	if tl.HasEnd {
		tl.Blocked = max(tl.Latency-tl.Fronthaul-tl.Queue-tl.Exec-tl.Offload-tl.Stall, 0)
	}
	return crit
}

// later orders completed spans for the critical-path walk: the later
// completion first, the smaller node ID on a tie.
func later(s, than *TaskSpan) bool {
	return s.EndAt > than.EndAt || (s.EndAt == than.EndAt && s.Node < than.Node)
}

// CriticalSpan returns the span of a node of the DAG, on the critical path
// or not (nil when the node is unknown).
func (tl *Timeline) CriticalSpan(node int32) *TaskSpan {
	i := sort.Search(len(tl.Tasks), func(i int) bool { return tl.Tasks[i].Node >= node })
	if i < len(tl.Tasks) && tl.Tasks[i].Node == node {
		return &tl.Tasks[i]
	}
	return nil
}

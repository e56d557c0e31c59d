package analysis

import (
	"bytes"
	"strings"
	"testing"

	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

func us(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }

// ev is a shorthand event constructor for synthetic traces.
func ev(kind telemetry.EventKind, at sim.Time) telemetry.Event {
	return telemetry.Event{At: at, Kind: kind, Core: -1, Cell: -1, Slot: -1, Task: -1}
}

// chainDAG builds the canonical single-task miss scenario the attribution
// tests perturb: admitted at `admit`, one task that queues 30 µs and executes
// 20 µs, completing at admit+50 µs with latency measured from `release`.
// With a 40 µs deadline the base case lands in CauseQueueing.
func chainDAG(seq int64, release, admit sim.Time) []telemetry.Event {
	rel := ev(telemetry.EvDAGRelease, admit)
	rel.Cell, rel.Slot, rel.A = 2, 5, seq

	enq := ev(telemetry.EvTaskEnqueue, admit)
	enq.Cell, enq.Slot, enq.Task, enq.A, enq.B = 2, 5, 0, seq, 0

	dis := ev(telemetry.EvTaskDispatch, admit+us(30))
	dis.Core, dis.Cell, dis.Slot, dis.Task = 0, 2, 5, 0
	dis.Dur, dis.A, dis.B = us(30), seq, 0

	com := ev(telemetry.EvTaskComplete, admit+us(50))
	com.Core, com.Cell, com.Slot, com.Task = 0, 2, 5, 0
	com.Dur, com.A, com.B = us(20), seq, 0

	end := admit + us(50)
	done := ev(telemetry.EvDAGComplete, end)
	done.Cell, done.Slot, done.Dur, done.A = 2, 5, end-release, seq

	miss := ev(telemetry.EvDeadlineMiss, end)
	miss.Cell, miss.Slot, miss.Dur, miss.A = 2, 5, end-release, seq

	return []telemetry.Event{rel, enq, dis, com, done, miss}
}

func analyzeOne(t *testing.T, events []telemetry.Event) (*Autopsy, Miss) {
	t.Helper()
	a := Analyze(events, Options{PoolCores: 2, Deadline: us(40)})
	if !a.PartitionHolds() {
		t.Fatalf("partition invariant violated: causes %v vs %d misses", a.CauseCounts, len(a.Misses))
	}
	if len(a.Misses) != 1 {
		t.Fatalf("expected 1 miss, got %d", len(a.Misses))
	}
	return a, a.Misses[0]
}

func TestTimelineTwoTaskChain(t *testing.T) {
	var events []telemetry.Event
	add := func(e telemetry.Event) { events = append(events, e) }

	rel := ev(telemetry.EvDAGRelease, 0)
	rel.Cell, rel.Slot, rel.A, rel.B = 1, 3, 7, 1
	add(rel)
	// Task 0: ready at 0, dispatched at 10 µs, runs 50 µs.
	enq0 := ev(telemetry.EvTaskEnqueue, 0)
	enq0.Cell, enq0.Slot, enq0.Task, enq0.A, enq0.B = 1, 3, 0, 7, 0
	add(enq0)
	dis0 := ev(telemetry.EvTaskDispatch, us(10))
	dis0.Core, dis0.Cell, dis0.Slot, dis0.Task, dis0.Dur, dis0.A, dis0.B = 0, 1, 3, 0, us(10), 7, 0
	add(dis0)
	com0 := ev(telemetry.EvTaskComplete, us(60))
	com0.Core, com0.Cell, com0.Slot, com0.Task, com0.Dur, com0.A, com0.B = 0, 1, 3, 0, us(50), 7, 0
	add(com0)
	// Task 1: kept successor — dispatched the instant task 0 completes.
	dis1 := ev(telemetry.EvTaskDispatch, us(60))
	dis1.Core, dis1.Cell, dis1.Slot, dis1.Task, dis1.Dur, dis1.A, dis1.B = 0, 1, 3, 1, 0, 7, 1
	add(dis1)
	com1 := ev(telemetry.EvTaskComplete, us(100))
	com1.Core, com1.Cell, com1.Slot, com1.Task, com1.Dur, com1.A, com1.B = 0, 1, 3, 1, us(40), 7, 1
	add(com1)
	done := ev(telemetry.EvDAGComplete, us(100))
	done.Cell, done.Slot, done.Dur, done.A, done.B = 1, 3, us(100), 7, 1
	add(done)

	a := Analyze(events, Options{PoolCores: 2, Deadline: us(200)})
	if a.DAGsSeen != 1 || a.DAGsCompleted != 1 || len(a.Misses) != 0 {
		t.Fatalf("seen=%d completed=%d misses=%d", a.DAGsSeen, a.DAGsCompleted, len(a.Misses))
	}
	tl := a.Timelines[0]
	if tl.Seq != 7 || !tl.Completed || tl.Truncated {
		t.Fatalf("timeline: %+v", tl)
	}
	if tl.Latency != us(100) || tl.Release != 0 {
		t.Errorf("latency %v release %v", tl.Latency, tl.Release)
	}
	if len(tl.Critical) != 2 || tl.Critical[0] != 0 || tl.Critical[1] != 1 {
		t.Errorf("critical path %v, want [0 1]", tl.Critical)
	}
	if tl.Queue != us(10) || tl.Exec != us(90) || tl.Fronthaul != 0 || tl.Stall != 0 || tl.Blocked != 0 {
		t.Errorf("decomposition q=%v e=%v f=%v s=%v b=%v", tl.Queue, tl.Exec, tl.Fronthaul, tl.Stall, tl.Blocked)
	}
	// The kept successor's ready time is its dispatch time (zero queueing).
	if s := tl.CriticalSpan(1); s == nil || s.ReadyAt != us(60) || s.Queue != 0 {
		t.Errorf("kept successor span: %+v", s)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// Root 0 gates parallel 1 and 2; join 3 waits for the slower branch (2).
	var events []telemetry.Event
	task := func(node int32, ready, disp, end sim.Time) {
		enq := ev(telemetry.EvTaskEnqueue, ready)
		enq.Cell, enq.Slot, enq.Task, enq.A, enq.B = 0, 0, node, 9, int64(node)
		dis := ev(telemetry.EvTaskDispatch, disp)
		dis.Core, dis.Cell, dis.Slot, dis.Task, dis.Dur, dis.A, dis.B = 0, 0, 0, node, disp-ready, 9, int64(node)
		com := ev(telemetry.EvTaskComplete, end)
		com.Core, com.Cell, com.Slot, com.Task, com.Dur, com.A, com.B = 0, 0, 0, node, end-disp, 9, int64(node)
		events = append(events, enq, dis, com)
	}
	rel := ev(telemetry.EvDAGRelease, 0)
	rel.Cell, rel.Slot, rel.A = 0, 0, 9
	events = append(events, rel)
	task(0, 0, 0, us(20))
	task(1, us(20), us(20), us(50))
	task(2, us(20), us(25), us(80))
	task(3, us(80), us(80), us(100))
	done := ev(telemetry.EvDAGComplete, us(100))
	done.Cell, done.Slot, done.Dur, done.A = 0, 0, us(100), 9
	events = append(events, done)

	a := Analyze(events, Options{PoolCores: 2, Deadline: us(200)})
	tl := a.Timelines[0]
	want := []int32{0, 2, 3}
	if len(tl.Critical) != len(want) {
		t.Fatalf("critical path %v, want %v", tl.Critical, want)
	}
	for i, n := range want {
		if tl.Critical[i] != n {
			t.Fatalf("critical path %v, want %v", tl.Critical, want)
		}
	}
}

func TestAttributeQueueingResidual(t *testing.T) {
	_, m := analyzeOne(t, chainDAG(1, 0, 0))
	if m.Cause != CauseQueueing {
		t.Fatalf("cause %v, want queueing (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeFronthaulLate(t *testing.T) {
	// Admitted 60 µs after the nominal release; the 40 µs of actual work fits
	// the 40 µs deadline on its own.
	events := chainDAG(2, 0, us(60))
	// Replace the queueing profile: dispatch immediately, execute 40 µs.
	for i := range events {
		switch events[i].Kind {
		case telemetry.EvTaskDispatch:
			events[i].At, events[i].Dur = us(60), 0
		case telemetry.EvTaskComplete:
			events[i].At, events[i].Dur = us(100), us(40)
		case telemetry.EvDAGComplete, telemetry.EvDeadlineMiss:
			events[i].At, events[i].Dur = us(100), us(100)
		}
	}
	_, m := analyzeOne(t, events)
	if m.Cause != CauseFronthaulLate {
		t.Fatalf("cause %v, want fronthaul_late (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeAccelFaultInjected(t *testing.T) {
	events := chainDAG(3, 0, 0)
	inj := ev(telemetry.EvFaultInject, us(5))
	inj.A, inj.B = classLaneFailure, 3
	events = append(events, inj)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseAccelFault {
		t.Fatalf("cause %v, want accel_fault (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeDeviceResetInjected(t *testing.T) {
	events := chainDAG(3, 0, 0)
	inj := ev(telemetry.EvFaultInject, us(5))
	inj.A, inj.B = classDeviceReset, 3
	events = append(events, inj)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseAccelFault {
		t.Fatalf("cause %v, want accel_fault (%s)", m.Cause, m.Detail)
	}
	// A device-level record with no DAG attached (B=-1) must not poison the
	// sentinel -1 key: the same trace minus the per-task record attributes
	// elsewhere.
	events = chainDAG(3, 0, 0)
	dev := ev(telemetry.EvFaultInject, us(5))
	dev.A, dev.B = classDeviceReset, -1
	events = append(events, dev)
	_, m = analyzeOne(t, events)
	if m.Cause == CauseAccelFault {
		t.Fatalf("device-scoped inject (B=-1) must not attribute a DAG miss")
	}
}

func TestAttributeAccelFaultStall(t *testing.T) {
	// Two dispatch attempts with a dead gap between them: ready at 0, first
	// attempt at 10, retry at 40, completion at 60 — 30 µs of stall.
	var events []telemetry.Event
	rel := ev(telemetry.EvDAGRelease, 0)
	rel.A = 4
	events = append(events, rel)
	enq := ev(telemetry.EvTaskEnqueue, 0)
	enq.Task, enq.A, enq.B = 0, 4, 0
	events = append(events, enq)
	for _, at := range []sim.Time{us(10), us(40)} {
		dis := ev(telemetry.EvTaskDispatch, at)
		dis.Core, dis.Task, dis.Dur, dis.A, dis.B = 0, 0, us(10), 4, 0
		events = append(events, dis)
	}
	com := ev(telemetry.EvTaskComplete, us(60))
	com.Core, com.Task, com.Dur, com.A, com.B = 0, 0, us(10), 4, 0
	events = append(events, com)
	done := ev(telemetry.EvDAGComplete, us(60))
	done.Dur, done.A = us(60), 4
	events = append(events, done)
	miss := ev(telemetry.EvDeadlineMiss, us(60))
	miss.Dur, miss.A = us(60), 4
	events = append(events, miss)

	_, m := analyzeOne(t, events)
	if m.Cause != CauseAccelFault {
		t.Fatalf("cause %v, want accel_fault (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeYieldStorm(t *testing.T) {
	events := chainDAG(5, 0, 0)
	rec := ev(telemetry.EvFaultRecover, us(20))
	rec.A, rec.B = classYieldStorm, 3
	events = append(events, rec)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseYieldStorm {
		t.Fatalf("cause %v, want yield_storm (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeWCETUnderprediction(t *testing.T) {
	events := chainDAG(6, 0, 0)
	ps := ev(telemetry.EvPredictSample, us(50))
	ps.Core, ps.Cell, ps.Slot, ps.Task = 0, 2, 5, 0 // Core = DAG-local task ID
	ps.Dur, ps.A, ps.B = us(20), int64(us(10)), 6   // observed 20 µs > predicted 10 µs
	events = append(events, ps)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseWCETUnderprediction {
		t.Fatalf("cause %v, want wcet_underprediction (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeInsufficientCores(t *testing.T) {
	// The pool owns both physical cores for the whole flight and queueing
	// still dominates: no scheduling policy could have helped.
	events := chainDAG(7, 0, 0)
	acq := ev(telemetry.EvCoreAcquire, 0)
	acq.Core, acq.A = 1, 2
	events = append(events, acq)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseInsufficientCores {
		t.Fatalf("cause %v, want insufficient_cores (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeUnattributedOnTruncation(t *testing.T) {
	// Ring wraparound ate everything but the miss record itself.
	miss := ev(telemetry.EvDeadlineMiss, us(500))
	miss.Dur, miss.A = us(90), 8
	_, m := analyzeOne(t, []telemetry.Event{miss})
	if m.Cause != CauseUnattributed {
		t.Fatalf("cause %v, want unattributed (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeDroppedDAG(t *testing.T) {
	events := chainDAG(9, 0, 0)
	for i := range events {
		if events[i].Kind == telemetry.EvDAGComplete {
			events[i].Kind = telemetry.EvDAGDrop
		}
	}
	a, m := analyzeOne(t, events)
	if !m.Dropped {
		t.Error("miss not marked dropped")
	}
	if a.DAGsDropped != 1 || a.DAGsCompleted != 0 {
		t.Errorf("dropped=%d completed=%d", a.DAGsDropped, a.DAGsCompleted)
	}
}

// migrateEv builds an EvCellMigrate for `cell` at time `at` (fleet traces
// stamp the epoch in Slot and the server pair in A/B).
func migrateEv(cell int32, at sim.Time) telemetry.Event {
	mig := ev(telemetry.EvCellMigrate, at)
	mig.Cell, mig.Slot, mig.A, mig.B, mig.Dur = cell, 1, 0, 1, us(12)
	return mig
}

func TestAttributeMigrationWithinWindow(t *testing.T) {
	// chainDAG's miss is on cell 2 at admit+50 µs; a migration of the same
	// cell just before must win over the queueing residual.
	events := append([]telemetry.Event{migrateEv(2, us(10))}, chainDAG(11, 0, 0)...)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseMigration {
		t.Fatalf("cause %v, want migration (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeMigrationOtherCellInert(t *testing.T) {
	// A migration of a different cell leaves the attribution untouched.
	events := append([]telemetry.Event{migrateEv(3, us(10))}, chainDAG(12, 0, 0)...)
	_, m := analyzeOne(t, events)
	if m.Cause != CauseQueueing {
		t.Fatalf("cause %v, want queueing (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeMigrationOutsideWindowInert(t *testing.T) {
	// Same cell, but the migration is about 20 ms back, further than the
	// 10 ms migration window.
	events := append([]telemetry.Event{migrateEv(2, us(10))},
		chainDAG(13, 20*sim.Millisecond, 20*sim.Millisecond)...)
	a := Analyze(events, Options{PoolCores: 2, Deadline: us(40)})
	if !a.PartitionHolds() || len(a.Misses) != 1 {
		t.Fatalf("partition %v misses %d", a.CauseCounts, len(a.Misses))
	}
	if m := a.Misses[0]; m.Cause != CauseQueueing {
		t.Fatalf("cause %v, want queueing (%s)", m.Cause, m.Detail)
	}
}

func TestAttributeMigrationBeatsTimelineLoss(t *testing.T) {
	// Merged fleet traces carry no task-level events, so the timeline is
	// missing — the migration rule must still fire, ahead of unattributed.
	miss := ev(telemetry.EvDeadlineMiss, us(500))
	miss.Cell, miss.Dur, miss.A = 7, us(90), 14
	_, m := analyzeOne(t, []telemetry.Event{migrateEv(7, us(450)), miss})
	if m.Cause != CauseMigration {
		t.Fatalf("cause %v, want migration (%s)", m.Cause, m.Detail)
	}
}

func TestAttributionPriorityOrder(t *testing.T) {
	// A DAG hit by an injected accelerator fault AND a yield storm AND an
	// underprediction must land in the highest-priority bucket (accel_fault),
	// and only there — the partition cannot double-count.
	events := chainDAG(10, 0, 0)
	inj := ev(telemetry.EvFaultInject, us(5))
	inj.A, inj.B = classStuckOffload, 10
	rec := ev(telemetry.EvFaultRecover, us(20))
	rec.A = classYieldStorm
	ps := ev(telemetry.EvPredictSample, us(50))
	ps.Core, ps.Cell, ps.Slot, ps.Task = 0, 2, 5, 0
	ps.Dur, ps.A, ps.B = us(20), int64(us(10)), 10
	events = append(events, inj, rec, ps)
	a, m := analyzeOne(t, events)
	if m.Cause != CauseAccelFault {
		t.Fatalf("cause %v, want accel_fault (%s)", m.Cause, m.Detail)
	}
	if a.CauseCounts[CauseAccelFault] != 1 || a.sumCauses() != 1 {
		t.Fatalf("cause counts %v", a.CauseCounts)
	}
}

func TestInferPoolCoresAndDeadline(t *testing.T) {
	dis := ev(telemetry.EvTaskDispatch, 0)
	dis.Core = 3
	rot := ev(telemetry.EvCoreRotate, us(1))
	rot.Core, rot.A = 2, 5
	// EvPredictSample reuses Core for the task ID; it must not inflate the
	// inferred core count.
	ps := ev(telemetry.EvPredictSample, us(2))
	ps.Core = 9
	m1 := ev(telemetry.EvDeadlineMiss, us(10))
	m1.Dur, m1.A = us(120), 1
	m2 := ev(telemetry.EvDeadlineMiss, us(20))
	m2.Dur, m2.A = us(80), 2
	events := []telemetry.Event{dis, rot, ps, m1, m2}
	if got := inferPoolCores(events); got != 6 {
		t.Errorf("inferPoolCores = %d, want 6", got)
	}
	if got := inferDeadline(events); got != us(80) {
		t.Errorf("inferDeadline = %v, want 80us", got)
	}
}

func TestCalibrateSamples(t *testing.T) {
	var samples []PredictSample
	// Kind 2: 1000 perfectly covered samples, predicted 2 µs vs observed 1 µs.
	for i := 0; i < 1000; i++ {
		samples = append(samples, PredictSample{Kind: 2, Predicted: us(2), Observed: us(1)})
	}
	// Kind 1: first window of 100 entirely uncovered, then 900 covered —
	// coverage 0.9, worst-window drift 0.9.
	for i := 0; i < 1000; i++ {
		s := PredictSample{Kind: 1, Predicted: us(10), Observed: us(5)}
		if i < 100 {
			s.Observed = us(20)
		}
		samples = append(samples, s)
	}
	rows := CalibrateSamples(samples, 0.99999, 100)
	if len(rows) != 2 || rows[0].Kind != 1 || rows[1].Kind != 2 {
		t.Fatalf("rows %+v", rows)
	}
	bad, good := rows[0], rows[1]
	if good.Coverage != 1 || good.Miscalibrated || good.Drift != 0 || good.Windows != 10 {
		t.Errorf("good row: %+v", good)
	}
	if good.MeanHeadroomUs != 1 || good.MeanHeadroomFrac != 0.5 {
		t.Errorf("good sharpness: %+v", good)
	}
	if bad.Coverage != 0.9 || !bad.Miscalibrated {
		t.Errorf("bad row: %+v", bad)
	}
	if bad.Drift < 0.89 || bad.Drift > 0.91 {
		t.Errorf("bad drift %v, want ~0.9", bad.Drift)
	}
	// Tolerance is floored at 3/n so tiny traces cannot flag.
	small := CalibrateSamples(samples[:10], 0.99999, 100)
	if len(small) != 1 || small[0].Tolerance != 0.3 || small[0].Miscalibrated {
		t.Errorf("small-trace row: %+v", small)
	}
}

func TestReportAndCSVOutputs(t *testing.T) {
	a, _ := analyzeOne(t, chainDAG(1, 0, 0))

	var causes bytes.Buffer
	if err := a.WriteCausesCSV(&causes); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(causes.String(), "\n"), "\n")
	if len(lines) != int(NumCauses)+2 {
		t.Fatalf("causes.csv has %d lines, want %d:\n%s", len(lines), int(NumCauses)+2, causes.String())
	}
	if lines[len(lines)-1] != "total,1,1" {
		t.Errorf("total row %q", lines[len(lines)-1])
	}

	var misses bytes.Buffer
	if err := a.WriteMissesCSV(&misses); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(misses.String(), ",queueing") {
		t.Errorf("misses.csv missing cause column:\n%s", misses.String())
	}

	var report bytes.Buffer
	if err := a.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Autopsy", "Partition invariant holds", "| queueing | 1 |"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}

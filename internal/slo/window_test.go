package slo

import (
	"bytes"
	"strings"
	"testing"

	"concordia/internal/faults"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

func msTime(ms float64) sim.Time { return sim.FromMs(ms) }

func testOpts() Options {
	return Options{
		Window:   sim.Millisecond,
		Deadline: 2 * sim.Millisecond,
	}
}

func TestTrackerWindowRows(t *testing.T) {
	tr := New(testOpts(), nil)
	// Window 0: cell 0 (slice 0) meets, cell 1 (slice 1) misses.
	tr.RecordDAG(msTime(0.1), 0, sim.Millisecond, false)
	tr.RecordDAG(msTime(0.2), 1, msTime(2.5), true)
	// Window 1: cell 0 meets again (the record itself rotates window 0).
	tr.RecordDAG(msTime(1.5), 0, msTime(0.5), false)
	tr.Flush(msTime(2))

	rows := tr.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	r0, r1, r2 := rows[0], rows[1], rows[2]
	if r0.Cell != 0 || r0.Slice != 0 || r0.Attempts != 1 || r0.Misses != 0 ||
		r0.Start != 0 || r0.End != sim.Millisecond || r0.Window != 0 {
		t.Errorf("window-0 cell-0 row wrong: %+v", r0)
	}
	if r1.Cell != 1 || r1.Slice != 1 || r1.Attempts != 1 || r1.Misses != 1 {
		t.Errorf("window-0 cell-1 row wrong: %+v", r1)
	}
	if !r1.Firing {
		t.Errorf("cell 1's slice misses 100%% of its 1%% budget; row should be firing: %+v", r1)
	}
	if r2.Cell != 0 || r2.Window != 1 || r2.Start != sim.Millisecond || r2.End != msTime(2) {
		t.Errorf("window-1 cell-0 row wrong: %+v", r2)
	}
	// Latency quantiles of a single-sample window collapse onto it.
	if r0.P50Us < 990 || r0.P50Us > 1010 {
		t.Errorf("p50 of a single 1000us sample = %v, want ~1000 (1%% bound)", r0.P50Us)
	}
	// Slack of the missed DAG is negative: -0.5 ms.
	if r1.SlackP1Us > -490 || r1.SlackP1Us < -510 {
		t.Errorf("slack p1 = %v us, want ~-500", r1.SlackP1Us)
	}
}

func TestTrackerBurnAlertFireAndClear(t *testing.T) {
	tr := New(testOpts(), nil) // cell 0 is URLLC: 1e-4 budget

	// Window 0: 10 attempts, 5 misses -> fast and slow burn 5000x budget.
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * sim.Microsecond
		if i < 5 {
			tr.RecordDAG(at, 0, msTime(3), true)
		} else {
			tr.RecordDAG(at, 0, sim.Millisecond, false)
		}
	}
	// Window 1: 10 clean attempts -> fast burn 0, alert clears.
	for i := 0; i < 10; i++ {
		tr.RecordDAG(sim.Millisecond+sim.Time(i)*sim.Microsecond, 0, sim.Millisecond, false)
	}
	tr.Flush(msTime(2))

	alerts := tr.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("got %d alert transitions, want fire+clear: %+v", len(alerts), alerts)
	}
	fire, clearA := alerts[0], alerts[1]
	if !fire.Firing || fire.At != sim.Millisecond || fire.FastBurn != 5000 || fire.SlowBurn != 5000 {
		t.Errorf("fire transition wrong: %+v", fire)
	}
	if clearA.Firing || clearA.At != msTime(2) || clearA.FastBurn != 0 || clearA.SlowBurn != 2500 {
		t.Errorf("clear transition wrong (slow burn should decay to 5/20/1e-4=2500): %+v", clearA)
	}
	if at, ok := tr.FirstFiring(); !ok || at != sim.Millisecond {
		t.Errorf("FirstFiring = %v, %v; want 1ms, true", at, ok)
	}
	if tr.AlertsFired() != 1 {
		t.Errorf("AlertsFired = %d, want 1", tr.AlertsFired())
	}
}

func TestTrackerEmitsEvents(t *testing.T) {
	trc := telemetry.NewTracer(1024)
	opts := testOpts()
	opts.Server = 3
	tr := New(opts, trc)
	tr.RecordDAG(msTime(0.5), 0, msTime(3), true) // slice 0 miss
	tr.RecordDAG(msTime(1.5), 0, sim.Millisecond, false)
	tr.Flush(msTime(2))

	var windows, alerts int
	for _, ev := range trc.Events() {
		switch ev.Kind {
		case telemetry.EvSLOWindow:
			windows++
			if ev.Core != 3 || ev.Cell != -1 {
				t.Errorf("EvSLOWindow should carry server in Core, -1 Cell: %+v", ev)
			}
			if ev.Slot == 0 && ev.Task == 0 && (ev.A != 1 || ev.B != 1) {
				t.Errorf("window-0 slice-0 event should have A=1 attempt B=1 miss: %+v", ev)
			}
		case telemetry.EvSLOAlert:
			alerts++
			if ev.B != 1 && ev.B != 0 {
				t.Errorf("EvSLOAlert B must be 0/1: %+v", ev)
			}
		}
	}
	// Slice 0 active in both windows; slice 1 never saw an attempt, so it
	// stays silent.
	if windows != 2 {
		t.Errorf("got %d EvSLOWindow events, want 2", windows)
	}
	if alerts == 0 {
		t.Error("a 100% miss window against a 1e-4 budget should raise an alert")
	}
}

func TestTrackerFaultAttribution(t *testing.T) {
	tr := New(testOpts(), nil)
	tr.NoteFault(msTime(0.4), 0, faults.StuckOffload)
	tr.RecordDAG(msTime(0.6), 0, msTime(3), true) // 0.2ms after fault: attributed
	tr.RecordDAG(msTime(30), 0, msTime(3), true)  // 29.6ms after: beyond horizon
	tr.Flush(msTime(31))

	cells := tr.CellSummaries()
	if len(cells) != 1 {
		t.Fatalf("want 1 cell summary, got %d", len(cells))
	}
	fm := cells[0].FaultMisses
	if fm[faults.StuckOffload] != 1 {
		t.Errorf("stuck_offload misses = %d, want 1", fm[faults.StuckOffload])
	}
	if fm[faults.NumClasses] != 1 {
		t.Errorf("unattributed misses = %d, want 1", fm[faults.NumClasses])
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.RecordDAG(0, 0, 0, true)
	tr.RecordTask(0, 0, 0)
	tr.NoteFault(0, 0, faults.LaneFailure)
	tr.Flush(sim.Second)
	if tr.Rows() != nil || tr.Alerts() != nil || tr.AlertsFired() != 0 {
		t.Error("nil tracker accessors should return zero values")
	}
	if _, ok := tr.FirstFiring(); ok {
		t.Error("nil tracker cannot have fired")
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteHealthReport(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerRecordRotateZeroAlloc(t *testing.T) {
	trc := telemetry.NewTracer(4096)
	opts := testOpts()
	tr := New(opts, trc)
	// Warm-up: materialize every key and fill the rings past capacity
	// concerns, and pre-grow the fault arrays.
	now := sim.Time(0)
	for w := 0; w < slowWindows+2; w++ {
		for c := int32(0); c < 4; c++ {
			tr.NoteFault(now, c, faults.TaskOverrun)
			tr.RecordDAG(now, c, msTime(3), true)
			tr.RecordDAG(now, c, sim.Millisecond, false)
			tr.RecordTask(now, c, 100*sim.Microsecond)
			now += 7 * sim.Microsecond
		}
		now += sim.Millisecond
	}
	// Steady state: every iteration records on all cells and crosses a
	// window boundary, driving rotate (sketch resets, burn evaluation,
	// event emission, row appends) with zero allocations.
	allocs := testing.AllocsPerRun(200, func() {
		for c := int32(0); c < 4; c++ {
			tr.NoteFault(now, c, faults.TaskOverrun)
			tr.RecordDAG(now, c, msTime(3), true)
			tr.RecordDAG(now, c, sim.Millisecond, false)
			tr.RecordTask(now, c, 100*sim.Microsecond)
		}
		now += sim.Millisecond + 13*sim.Microsecond
	})
	if allocs != 0 {
		t.Fatalf("steady-state record/rotate allocated %.1f/op, want 0", allocs)
	}
}

func TestTrackerMergeRemapped(t *testing.T) {
	opts := testOpts()
	mkServer := func(server int32, cells []int32) *Tracker {
		o := opts
		o.Server, o.Cells = server, cells
		tr := New(o, nil)
		// Local cells 0,1; one miss on local cell 0.
		tr.RecordDAG(msTime(0.3), 0, msTime(3), true)
		tr.RecordDAG(msTime(0.4), 1, sim.Millisecond, false)
		tr.RecordTask(msTime(0.4), 1, 50*sim.Microsecond)
		tr.Flush(sim.Millisecond)
		return tr
	}
	merge := func() *Tracker {
		fleet := New(opts, nil)
		fleet.MergeRemapped(mkServer(0, []int32{10, 11}), 0)
		fleet.MergeRemapped(mkServer(1, []int32{20, 21}), msTime(5))
		return fleet
	}
	fleet := merge()

	cells := fleet.CellSummaries()
	if len(cells) != 4 {
		t.Fatalf("want 4 merged cells, got %d: %+v", len(cells), cells)
	}
	seen := map[int32]CellSummary{}
	for _, c := range cells {
		seen[c.Key.Cell] = c
	}
	for _, id := range []int32{10, 11, 20, 21} {
		if _, ok := seen[id]; !ok {
			t.Fatalf("global cell %d missing after merge", id)
		}
	}
	if seen[10].Key.Server != 0 || seen[20].Key.Server != 1 {
		t.Error("server stamps wrong after merge")
	}
	if seen[10].Misses != 1 || seen[20].Misses != 1 || seen[11].Misses != 0 {
		t.Error("per-cell miss totals wrong after merge")
	}
	rows := fleet.Rows()
	if len(rows) != 4 {
		t.Fatalf("want 4 merged rows, got %d", len(rows))
	}
	// Server 1's rows are time-shifted by the epoch offset.
	last := rows[len(rows)-1]
	if last.Start < msTime(5) || last.Server != 1 {
		t.Errorf("remapped row not offset/stamped: %+v", last)
	}
	// Determinism: merging the same sequence twice yields identical bytes.
	var a, b bytes.Buffer
	if err := fleet.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := merge().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("merged CSV not byte-identical across identical merge sequences")
	}
	var ra, rb bytes.Buffer
	if err := fleet.WriteHealthReport(&ra); err != nil {
		t.Fatal(err)
	}
	if err := merge().WriteHealthReport(&rb); err != nil {
		t.Fatal(err)
	}
	if ra.String() != rb.String() {
		t.Error("health report not byte-identical across identical merge sequences")
	}
}

func TestHealthReportSections(t *testing.T) {
	tr := New(testOpts(), nil)
	tr.NoteFault(msTime(0.2), 0, faults.FronthaulLate)
	tr.RecordDAG(msTime(0.3), 0, msTime(3), true)
	tr.RecordDAG(msTime(0.6), 1, sim.Millisecond, false)
	tr.Flush(sim.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteHealthReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# SLO health report", "## Slices", "## Top burning cells",
		"## Miss attribution", "## Alert timeline", "fronthaul_late",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("health report missing %q:\n%s", want, out)
		}
	}
}

func TestTrackerCSVSchema(t *testing.T) {
	tr := New(testOpts(), nil)
	tr.RecordDAG(msTime(0.3), 0, msTime(3), true)
	tr.Flush(sim.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != sloCSVHeader {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 2 {
		t.Fatalf("want 1 data row, got %d", len(lines)-1)
	}
	if got := strings.Count(lines[1], ","); got != strings.Count(sloCSVHeader, ",") {
		t.Errorf("row has %d commas, header %d", got, strings.Count(sloCSVHeader, ","))
	}
}

func BenchmarkTrackerRecord(b *testing.B) {
	opts := Options{Window: sim.Millisecond, Deadline: 2 * sim.Millisecond}
	tr := New(opts, telemetry.NewTracer(1<<12))
	now := sim.Time(0)
	for c := int32(0); c < 8; c++ { // materialize keys outside the loop
		tr.RecordDAG(now, c, sim.Millisecond, false)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := int32(i & 7)
		tr.RecordDAG(now, c, sim.Millisecond+sim.Time(i&1023)*sim.Microsecond, i&127 == 0)
		now += 11 * sim.Microsecond
	}
}

func BenchmarkTrackerRotate(b *testing.B) {
	opts := Options{Window: 100 * sim.Microsecond, Deadline: 2 * sim.Millisecond}
	tr := New(opts, nil)
	now := sim.Time(0)
	for c := int32(0); c < 8; c++ {
		tr.RecordDAG(now, c, sim.Millisecond, false)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Every record crosses a boundary: the benchmark measures rotation.
		now += opts.Window + sim.Microsecond
		tr.RecordDAG(now, int32(i&7), sim.Millisecond, i&63 == 0)
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"concordia/internal/sim"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvTaskComplete})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Sample(0)
	if reg.Samples() != 0 {
		t.Fatal("nil registry must be inert")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: sim.Time(i), Kind: EvTaskComplete})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := sim.Time(6 + i); ev.At != want {
			t.Fatalf("event %d at %v, want %v (oldest-first after wrap)", i, ev.At, want)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{At: 1})
	tr.Emit(Event{At: 2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("unexpected events %+v", evs)
	}
	if tr.Dropped() != 0 {
		t.Fatal("no drops expected before wrap")
	}
}

// TestEmittedCountsEveryEmit pins the per-kind counts the metrics counters
// are read from: events the ring overwrote still count, a kind byte outside
// the taxonomy is counted rather than indexing out of range, and a nil
// tracer counts nothing.
func TestEmittedCountsEveryEmit(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Emit(Event{Kind: EvTaskComplete})
	if n := nilTracer.Emitted(EvTaskComplete); n != 0 {
		t.Fatalf("nil tracer Emitted = %d, want 0", n)
	}
	tr := NewTracer(2)
	for range 5 {
		tr.Emit(Event{Kind: EvTaskComplete})
	}
	tr.Emit(Event{Kind: 255})
	tr.Emit(Event{Kind: numEventKinds})
	if tr.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5", tr.Dropped())
	}
	for _, c := range []struct {
		kind EventKind
		want uint64
	}{{EvTaskComplete, 5}, {255, 1}, {numEventKinds, 1}, {EvDAGRelease, 0}} {
		if got := tr.Emitted(c.kind); got != c.want {
			t.Errorf("Emitted(%v) = %d, want %d", c.kind, got, c.want)
		}
	}
}

func TestRegistryIdempotentAndSorted(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("b_tasks")
	c2 := r.Counter("b_tasks")
	if c1 != c2 {
		t.Fatal("Counter must be idempotent")
	}
}

func TestMetricsCSVStableColumns(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z").Set(1)
	r.Sample(sim.FromUs(1))
	r.Counter("a").Inc() // registered after the first sample
	r.Sample(sim.FromUs(2))
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_us,a,z" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "1,,1" {
		t.Fatalf("row 1 %q (metric a unsampled in row 1 must be empty)", lines[1])
	}
	if lines[2] != "2,1,1" {
		t.Fatalf("row 2 %q", lines[2])
	}
}

func TestEventsCSV(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(Event{At: sim.FromUs(3), Kind: EvDeadlineMiss, Core: -1, Cell: 2, Slot: 7, Task: -1, Dur: sim.FromUs(12), A: 4, B: 1})
	var buf bytes.Buffer
	if err := tr.WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "time_us,kind,core,cell,slot,task,dur_us,a,b\n3,deadline_miss,-1,2,7,-1,12,4,1\n"
	if buf.String() != want {
		t.Fatalf("events CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// chromeEvent mirrors the trace-event schema for validation.
type chromeEvent struct {
	Name  string          `json:"name"`
	Ph    string          `json:"ph"`
	Ts    float64         `json:"ts"`
	Dur   *float64        `json:"dur"`
	Pid   int             `json:"pid"`
	Tid   int             `json:"tid"`
	Args  json.RawMessage `json:"args"`
	ID    json.RawMessage `json:"id"`
	Scope string          `json:"s"`
}

func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer(64)
	tr.Emit(Event{At: sim.FromUs(0), Kind: EvDAGRelease, Core: -1, Cell: 0, Slot: 0, Task: -1, A: 1, B: 1})
	tr.Emit(Event{At: sim.FromUs(5), Kind: EvCoreAcquire, Core: 2, Cell: -1, Slot: -1, Task: -1, A: 1})
	tr.Emit(Event{At: sim.FromUs(9), Kind: EvTaskComplete, Core: 2, Cell: 0, Slot: 0, Task: 0, Dur: sim.FromUs(4), A: 1})
	tr.Emit(Event{At: sim.FromUs(11), Kind: EvOffloadSpan, Core: -1, Cell: -1, Slot: -1, Task: 5, Dur: sim.FromUs(20), A: 0, B: 3})
	tr.Emit(Event{At: sim.FromUs(30), Kind: EvDeadlineMiss, Core: -1, Cell: 0, Slot: 0, Task: -1, Dur: sim.FromUs(2100), A: 1, B: 1})
	tr.Emit(Event{At: sim.FromUs(31), Kind: EvDAGComplete, Core: -1, Cell: 0, Slot: 0, Task: -1, A: 1, B: 1})
	tr.Emit(Event{At: sim.FromUs(40), Kind: EvSchedDecision, Core: 3, Cell: -1, Slot: -1, Task: -1, A: 3, B: 1})

	var buf bytes.Buffer
	meta := ChromeTraceMeta{Cores: 4, Workloads: []WorkloadSpan{{Name: "redis", From: 0, To: sim.FromUs(50)}}}
	if err := WriteChromeTrace(&buf, tr, meta); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	allowedPh := map[string]bool{"X": true, "i": true, "C": true, "M": true, "b": true, "e": true}
	phSeen := map[string]bool{}
	for i, ev := range parsed.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has empty name", i)
		}
		if !allowedPh[ev.Ph] {
			t.Fatalf("event %d has unknown phase %q", i, ev.Ph)
		}
		phSeen[ev.Ph] = true
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Fatalf("complete event %d lacks non-negative dur", i)
		}
		if (ev.Ph == "b" || ev.Ph == "e") && ev.ID == nil {
			t.Fatalf("async event %d lacks id", i)
		}
		if ev.Ts < 0 {
			t.Fatalf("event %d has negative ts", i)
		}
	}
	for _, ph := range []string{"X", "i", "C", "M", "b", "e"} {
		if !phSeen[ph] {
			t.Fatalf("expected at least one %q event", ph)
		}
	}
}

func TestMetricsCSVEmptyRegistry(t *testing.T) {
	// A registry with no metrics and no samples must export a header-only
	// CSV — exactly the time_us column and nothing after it.
	r := NewRegistry()
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "time_us\n" {
		t.Fatalf("empty registry CSV %q, want %q", got, "time_us\n")
	}
	// Sampling with no metrics registered still yields rows with only the
	// timestamp cell — no trailing separators.
	r.Sample(sim.FromUs(5))
	r.Sample(sim.FromUs(6))
	buf.Reset()
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "time_us\n5\n6\n" {
		t.Fatalf("metric-less samples CSV %q, want %q", got, "time_us\n5\n6\n")
	}
}

func TestEventsCSVEmptyTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer(8).WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "time_us,kind,core,cell,slot,task,dur_us,a,b\n"
	if buf.String() != want {
		t.Fatalf("empty tracer CSV %q, want header only", buf.String())
	}
}

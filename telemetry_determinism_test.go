package concordia_test

// The telemetry subsystem inherits the repo's core guarantee: for a fixed
// seed the exported artifacts are byte-identical no matter how many workers
// execute the setup fan-out. The event trace and the metrics time series are
// both derived purely from the virtual-time simulation, which the Workers
// knob never touches.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"concordia/internal/experiments"
)

func TestTelemetryWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario capture; skipped with -short")
	}
	base := experiments.Options{Seed: 42, Scale: 0.02, TrainingSlots: 150}
	type capture struct {
		workers int
		trace   bytes.Buffer
		metrics bytes.Buffer
	}
	captures := []*capture{{workers: 1}, {workers: 2}, {workers: 8}}
	for _, c := range captures {
		o := base
		o.Workers = c.workers
		sys, err := experiments.CaptureTelemetry(o)
		if err != nil {
			t.Fatalf("Workers=%d: %v", c.workers, err)
		}
		if err := sys.WriteChromeTrace(&c.trace); err != nil {
			t.Fatalf("Workers=%d: %v", c.workers, err)
		}
		if err := sys.WriteMetricsCSV(&c.metrics); err != nil {
			t.Fatalf("Workers=%d: %v", c.workers, err)
		}
		if c.trace.Len() == 0 || c.metrics.Len() == 0 {
			t.Fatalf("Workers=%d: empty export (trace %d bytes, metrics %d bytes)",
				c.workers, c.trace.Len(), c.metrics.Len())
		}
	}
	ref := captures[0]
	for _, c := range captures[1:] {
		if !bytes.Equal(ref.trace.Bytes(), c.trace.Bytes()) {
			t.Errorf("trace JSON differs between Workers=1 and Workers=%d:\n%s",
				c.workers, firstDiff(ref.trace.String(), c.trace.String()))
		}
		if !bytes.Equal(ref.metrics.Bytes(), c.metrics.Bytes()) {
			t.Errorf("metrics CSV differs between Workers=1 and Workers=%d:\n%s",
				c.workers, firstDiff(ref.metrics.String(), c.metrics.String()))
		}
	}

	// The exported trace must be loadable trace-event JSON: an object with a
	// traceEvents array whose entries all carry a phase.
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(ref.trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export has no events")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			t.Fatalf("trace event %d has no phase", i)
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			other := "<missing>"
			if i < len(lb) {
				other = lb[i]
			}
			return "line " + strconv.Itoa(i+1) + ":\n  a: " + truncate(la[i]) + "\n  b: " + truncate(other)
		}
	}
	return "b has extra lines"
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

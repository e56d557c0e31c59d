package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"concordia/internal/sim"
)

func TestSampleRingWraparoundCSVOrder(t *testing.T) {
	r := NewRegistryCapacity(4)
	c := r.Counter("n")
	for i := 0; i < 10; i++ {
		c.Inc()
		r.Sample(sim.Time(i) * sim.Millisecond)
	}
	if r.Samples() != 4 {
		t.Fatalf("Samples = %d, want ring capacity 4", r.Samples())
	}
	if r.SamplesEvicted() != 6 {
		t.Fatalf("SamplesEvicted = %d, want 6", r.SamplesEvicted())
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_us,n" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("want 4 data rows, got %d", len(lines)-1)
	}
	// The ring keeps the newest 4 rows (i=6..9), oldest first, with the
	// counter values they observed at sampling time.
	for i, want := range []struct{ atMs, n int }{{6, 7}, {7, 8}, {8, 9}, {9, 10}} {
		cols := strings.Split(lines[i+1], ",")
		atUs, _ := strconv.ParseFloat(cols[0], 64)
		if int(atUs) != want.atMs*1000 || cols[1] != strconv.Itoa(want.n) {
			t.Errorf("row %d = %q, want t=%dms n=%d", i, lines[i+1], want.atMs, want.n)
		}
	}
}

func TestSampleRingReusesRowMaps(t *testing.T) {
	r := NewRegistryCapacity(8)
	r.Counter("a")
	r.Gauge("b")
	at := sim.Time(0)
	for i := 0; i < 8; i++ { // fill the ring
		r.Sample(at)
		at += sim.Millisecond
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Sample(at)
		at += sim.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocated %.1f/op, want 0 (row maps should be reused)", allocs)
	}
}

func TestSampleRingPartialFillKeepsOrder(t *testing.T) {
	r := NewRegistryCapacity(16)
	for i := 0; i < 3; i++ {
		r.Sample(sim.Time(i) * sim.Millisecond)
	}
	if r.Samples() != 3 || r.SamplesEvicted() != 0 {
		t.Fatalf("partial fill: Samples=%d Evicted=%d", r.Samples(), r.SamplesEvicted())
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[1], "0") || !strings.HasPrefix(lines[3], "2000") {
		t.Fatalf("partial-fill CSV wrong:\n%s", buf.String())
	}
}

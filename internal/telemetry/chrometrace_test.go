package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"concordia/internal/rng"
	"concordia/internal/sim"
)

// mixedTrace returns a tracer holding n events that cycle through every
// event kind, so every rendered kind appears once n reaches NumEventKinds.
func mixedTrace(n int) *Tracer {
	tr := NewTracer(n)
	for i := 0; i < n; i++ {
		tr.Emit(Event{
			Kind: EventKind(i % int(numEventKinds)),
			At:   sim.Time(i)*1237 + 1, Dur: sim.Time(i%4000) + 500,
			Core: int32(i % 8), Cell: int32(i % 7), Slot: int32(i / 100), Task: int32(i % 21),
			A: int64(i), B: int64(i % 3),
		})
	}
	return tr
}

var benchMeta = ChromeTraceMeta{
	Process: "vran-pool/concordia", Cores: 8,
	Workloads: []WorkloadSpan{{Name: "redis", From: 0, To: sim.FromMs(40)}},
}

// TestWriteChromeTraceAllocs bounds the exporter's memory: the allocations
// of one export do not depend on the trace's length, so nothing is
// allocated per event.
func TestWriteChromeTraceAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		tr := mixedTrace(n)
		return testing.AllocsPerRun(5, func() {
			if err := WriteChromeTrace(io.Discard, tr, benchMeta); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Fatalf("export allocates %v times for 1 000 events and %v for 100 000; want the same count", small, large)
	}
	t.Logf("%v allocations per export", small)
}

// TestAppendMilliMatchesAppendFloat checks the integer formatting of the
// trace's numbers against the float formatting it replaced, at the edges
// of its exact range, at both ends of int64 and at random values of every
// magnitude.
func TestAppendMilliMatchesAppendFloat(t *testing.T) {
	values := []int64{math.MinInt64, math.MaxInt64}
	for _, v := range []int64{0, 1, 999, 1000, 1001, maxExactMilli - 1, maxExactMilli} {
		values = append(values, v, -v)
	}
	r := rng.New(11)
	for range 100_000 {
		v := int64(r.Uint64() >> r.Intn(64)) // every magnitude, not only the largest
		if r.Bool(0.5) {
			v = -v
		}
		values = append(values, v)
	}
	for _, v := range values {
		got, want := appendMilli(nil, v), appendFloat(nil, float64(v)/1000)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendMilli(%d) = %s, appendFloat(%d/1000) = %s", v, got, v, want)
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriterFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestExportsReturnWriterError checks that both ring exporters return the
// writer's error whether it fails on the first write, mid-trace, or on
// the final flush.
func TestExportsReturnWriterError(t *testing.T) {
	tr := mixedTrace(20_000)
	for _, c := range []struct {
		name   string
		export func(io.Writer) error
	}{
		{"chrome trace", func(w io.Writer) error { return WriteChromeTrace(w, tr, benchMeta) }},
		{"events csv", tr.WriteEventsCSV},
	} {
		name, export := c.name, c.export
		var total countingWriter
		if err := export(&total); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 10, streamBufSize + 100, int(total) - 1} {
			if err := export(&failAfter{n: n}); !errors.Is(err, errWriterFull) {
				t.Errorf("%s into a writer that fails after %d of %d bytes: err = %v, want %v", name, n, total, err, errWriterFull)
			}
		}
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkWriteChromeTrace exports a 100 000-event trace of every kind.
func BenchmarkWriteChromeTrace(b *testing.B) {
	tr := mixedTrace(100_000)
	var size countingWriter
	if err := WriteChromeTrace(&size, tr, benchMeta); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, tr, benchMeta); err != nil {
			b.Fatal(err)
		}
	}
}

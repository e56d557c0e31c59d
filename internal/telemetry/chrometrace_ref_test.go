package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"testing"

	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/sim"
)

// The reference Chrome trace exporter: one traceEvent per record with a map
// of args, marshalled by encoding/json. The streaming WriteChromeTrace must
// match it byte for byte.

// traceEvent is one Chrome trace-event object. Field order and omitempty
// choices are part of the exported byte format; do not reorder.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    *int64         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container format.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func us(t sim.Time) float64 { return t.Us() }

func durp(d sim.Time) *float64 {
	v := d.Us()
	return &v
}

func idp(v int64) *int64 { return &v }

// metaEvent builds a process_name/thread_name metadata record.
func metaEvent(name string, pid, tid int, value string) traceEvent {
	return traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": value}}
}

// writeChromeTraceRef is the reference exporter.
func writeChromeTraceRef(w io.Writer, t *Tracer, meta ChromeTraceMeta) error {
	if meta.Process == "" {
		meta.Process = "vran-pool"
	}
	events := t.Events()
	out := make([]traceEvent, 0, len(events)+2*meta.Cores+8)

	// Track metadata first: process and thread names.
	out = append(out,
		metaEvent("process_name", pidPool, 0, meta.Process),
		metaEvent("thread_name", pidPool, tidSched, "scheduler"),
	)
	for c := 0; c < meta.Cores; c++ {
		out = append(out, metaEvent("thread_name", pidPool, c+1, "core "+strconv.Itoa(c)))
	}

	haveAccel := false
	for _, ev := range events {
		out = append(out, convertEvent(ev)...)
		if ev.Kind == EvOffloadSpan {
			haveAccel = true
		}
	}
	if haveAccel {
		out = append(out, metaEvent("process_name", pidAccel, 0, "accelerator"))
	}
	if len(meta.Workloads) > 0 {
		out = append(out, metaEvent("process_name", pidWorkload, 0, "workloads"))
		names := map[string]int{}
		for _, span := range meta.Workloads {
			tid, ok := names[span.Name]
			if !ok {
				tid = len(names) + 1
				names[span.Name] = tid
				out = append(out, metaEvent("thread_name", pidWorkload, tid, span.Name))
			}
			out = append(out, traceEvent{
				Name: span.Name, Cat: "workload", Ph: "X",
				Ts: us(span.From), Dur: durp(span.To - span.From),
				Pid: pidWorkload, Tid: tid,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// convertEvent maps one telemetry event to zero or more trace events.
func convertEvent(ev Event) []traceEvent {
	switch ev.Kind {
	case EvTaskComplete:
		return []traceEvent{{
			Name: taskName(ev.Task), Cat: "task", Ph: "X",
			Ts: us(ev.At - ev.Dur), Dur: durp(ev.Dur),
			Pid: pidPool, Tid: int(ev.Core) + 1,
			Args: map[string]any{"cell": ev.Cell, "slot": ev.Slot, "dag": ev.A},
		}}
	case EvOffloadSpan:
		return []traceEvent{{
			Name: taskName(ev.Task), Cat: "offload", Ph: "X",
			Ts: us(ev.At), Dur: durp(ev.Dur),
			Pid: pidAccel, Tid: int(ev.A) + 1,
			Args: map[string]any{"codeblocks": ev.B},
		}}
	case EvDAGRelease:
		return []traceEvent{{
			Name: "dag " + dirName(ev.B), Cat: "dag", Ph: "b",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, ID: idp(ev.A),
			Args: map[string]any{"cell": ev.Cell, "slot": ev.Slot},
		}}
	case EvDAGComplete, EvDAGDrop:
		return []traceEvent{{
			Name: "dag " + dirName(ev.B), Cat: "dag", Ph: "e",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, ID: idp(ev.A),
		}}
	case EvDeadlineMiss:
		return []traceEvent{{
			Name: "deadline_miss", Cat: "deadline", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"cell": ev.Cell, "slot": ev.Slot, "latency_us": ev.Dur.Us()},
		}}
	case EvSchedDecision:
		return []traceEvent{{
			Name: "ran_cores", Ph: "C", Ts: us(ev.At), Pid: pidPool, Tid: tidSched,
			Args: map[string]any{"target": ev.B, "owned": ev.Core},
		}}
	case EvInterference:
		return []traceEvent{{
			Name: "interference", Ph: "C", Ts: us(ev.At), Pid: pidPool, Tid: tidSched,
			Args: map[string]any{"index": float64(ev.A) / 1000},
		}}
	case EvCoreAcquire:
		return []traceEvent{{
			Name: "acquire", Cat: "core", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: int(ev.Core) + 1, Scope: "t",
		}}
	case EvCoreAwake:
		return []traceEvent{{
			Name: "awake", Cat: "core", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: int(ev.Core) + 1, Scope: "t",
			Args: map[string]any{"wakeup_us": ev.Dur.Us()},
		}}
	case EvCoreYield:
		return []traceEvent{{
			Name: "yield", Cat: "core", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: int(ev.Core) + 1, Scope: "t",
		}}
	case EvFaultInject:
		return []traceEvent{{
			Name: "fault_inject", Cat: "fault", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"class": ev.A, "cell": ev.Cell, "detail_us": ev.Dur.Us()},
		}}
	case EvFaultRecover:
		return []traceEvent{{
			Name: "fault_recover", Cat: "fault", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"class": ev.A, "action": ev.B},
		}}
	case EvCoreRotate:
		return []traceEvent{{
			Name: "rotate", Cat: "core", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: int(ev.Core) + 1, Scope: "t",
			Args: map[string]any{"to": ev.A},
		}}
	case EvCellAdmit:
		return []traceEvent{{
			Name: "cell_admit", Cat: "fleet", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"cell": ev.Cell, "server": ev.A, "feasible": ev.B},
		}}
	case EvCellMigrate:
		return []traceEvent{{
			Name: "cell_migrate", Cat: "fleet", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"cell": ev.Cell, "from": ev.A, "to": ev.B, "fronthaul_us": ev.Dur.Us()},
		}}
	case EvCellReject:
		return []traceEvent{{
			Name: "cell_reject", Cat: "fleet", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"cell": ev.Cell, "feasible": ev.B},
		}}
	case EvSLOWindow:
		return []traceEvent{{
			Name: "slo_slice_" + strconv.Itoa(int(ev.Task)), Ph: "C",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched,
			Args: map[string]any{"attempts": ev.A, "misses": ev.B, "q_latency_us": ev.Dur.Us()},
		}}
	case EvSLOAlert:
		name := "slo_alert_clear"
		if ev.B == 1 {
			name = "slo_alert_fire"
		}
		return []traceEvent{{
			Name: name, Cat: "slo", Ph: "i",
			Ts: us(ev.At), Pid: pidPool, Tid: tidSched, Scope: "p",
			Args: map[string]any{"slice": ev.Task, "burn_milli": ev.A, "window": ev.Slot},
		}}
	case EvDeviceReset:
		name := "device_up"
		if ev.B == 1 {
			name = "device_down"
		}
		return []traceEvent{{
			Name: name, Cat: "accel", Ph: "i",
			Ts: us(ev.At), Pid: pidAccel, Tid: 0, Scope: "p",
			Args: map[string]any{"device": ev.A},
		}}
	case EvReconcile:
		return []traceEvent{{
			Name: "reconcile", Cat: "accel", Ph: "i",
			Ts: us(ev.At), Pid: pidAccel, Tid: 0, Scope: "p",
			Args: map[string]any{"alive": ev.A, "devices": ev.B},
		}}
	default:
		return nil
	}
}

// traceCase is one exporter input: a tracer (nil allowed) and its meta.
type traceCase struct {
	name string
	tr   *Tracer
	meta ChromeTraceMeta
}

// escapeNames need escaping in JSON: HTML-unsafe bytes, quote and
// backslash, U+2028, a control byte, non-ASCII text and invalid UTF-8.
var escapeNames = []string{
	"a<b", "b>c", "c&d", `say "hi"`, `back\slash`, "line\u2028sep", "para\u2029sep",
	"ctl\x01", "tab\tnl\n", "naïve ü", "bad\xffutf8", "del\x7f", "plain",
}

// payloads are the field values every kind is emitted with: zeros, the
// negative sentinels of unused fields, a typical record, sub-microsecond
// times, the extremes of every field, and out-of-range task kinds and
// slot directions.
var payloads = []Event{
	{},
	{Core: -1, Cell: -1, Slot: -1, Task: -1, A: -1, B: -1, Dur: -1},
	{At: 1234567891, Dur: 12345, Core: 3, Cell: 2, Slot: 17, Task: 5, A: 42, B: 1},
	{At: 1, Dur: 999, Core: 0, Cell: 0, Slot: 1, Task: 0, A: 999, B: 2},
	{At: math.MaxInt64, Dur: math.MinInt64, Core: math.MaxInt32, Cell: math.MinInt32,
		Slot: math.MaxInt32, Task: math.MaxInt32, A: math.MaxInt64, B: math.MinInt64},
	{At: 5e9 + 7, Dur: 2_000_001, Core: 7, Cell: 199, Slot: 4000, Task: int32(ran.NumTaskKinds), A: 1 << 40, B: 1<<40 + 1},
	{At: 1000500000, Dur: 1000500000, Task: 3, A: -1000500, B: 3},
}

// referenceCases covers every event kind and an out-of-range kind, every
// task kind and slot direction, negative sentinels and extreme values, a
// wrapped ring, empty and nil tracers, and names that need escaping.
func referenceCases() []traceCase {
	meta := ChromeTraceMeta{
		Process: "vran-pool/concordia", Cores: 4,
		Workloads: []WorkloadSpan{
			{Name: "redis", From: 0, To: sim.FromMs(1)},
			{Name: "mlperf", From: sim.FromMs(1), To: sim.FromMs(3)},
			{Name: "redis", From: sim.FromMs(3), To: sim.FromMs(4) + 1},
		},
	}

	every := NewTracer(1 << 12)
	for k := EventKind(0); k <= numEventKinds; k++ {
		for _, p := range payloads {
			p.Kind = k
			every.Emit(p)
		}
	}
	every.Emit(Event{Kind: 255, At: 9})
	for task := int32(-2); task <= int32(ran.NumTaskKinds)+1; task++ {
		every.Emit(Event{Kind: EvTaskComplete, At: 50_000, Dur: 1_500, Core: 1, Task: task})
		every.Emit(Event{Kind: EvOffloadSpan, At: 60_000, Dur: 7_000, A: 1, B: 24, Task: task})
	}
	for _, dir := range []int64{-1, 0, 1, 2, 3, 1 << 40} {
		every.Emit(Event{Kind: EvDAGRelease, At: 70_000, A: 9, B: dir})
		every.Emit(Event{Kind: EvDAGDrop, At: 71_000, A: 9, B: dir})
	}

	// A ring of 7 keeps the last 7 of 30 events; the one offload span is
	// overwritten, so the accelerator row must not appear.
	wrapped := NewTracer(7)
	for i := 0; i < 30; i++ {
		k := EventKind(i % int(numEventKinds))
		if i > 5 && k == EvOffloadSpan {
			k = EvCoreYield
		}
		wrapped.Emit(Event{Kind: k, At: sim.Time(i) * 1001, Dur: 77, Core: int32(i % 3), Slot: int32(i), Task: int32(i % 5), A: int64(i), B: int64(i % 2)})
	}
	// A ring that wrapped exactly at its end: next is 0 again.
	exact := NewTracer(5)
	for i := 0; i < 10; i++ {
		exact.Emit(Event{Kind: EvOffloadSpan, At: sim.Time(i), Dur: 3, A: int64(i % 2), B: 8})
	}

	escaped := NewTracer(8)
	escaped.Emit(Event{Kind: EvDeadlineMiss, At: 3000, Dur: 2_100_000, Cell: 1, Slot: 2})
	var spans []WorkloadSpan
	for i, name := range escapeNames {
		spans = append(spans, WorkloadSpan{Name: name, From: sim.Time(i) * 1000, To: sim.Time(i+1) * 1000})
	}
	spans = append(spans, WorkloadSpan{Name: escapeNames[0], From: 9000, To: 9500})

	r := rng.New(7)
	random := NewTracer(3000)
	for i := 0; i < 5000; i++ {
		random.Emit(Event{
			Kind: EventKind(r.Intn(int(numEventKinds) + 2)),
			At:   sim.Time(r.Int63n(10_000_000_000)), Dur: sim.Time(r.Int63n(5_000_000) - 1000),
			Core: int32(r.Intn(10) - 1), Cell: int32(r.Intn(200) - 1), Slot: int32(r.Intn(50_000) - 1),
			Task: int32(r.Intn(int(ran.NumTaskKinds)+2) - 1), A: r.Int63n(2_000_000) - 1000, B: r.Int63n(4) - 1,
		})
	}

	return []traceCase{
		{"every kind", every, meta},
		{"wrapped ring", wrapped, meta},
		{"ring wrapped at its end", exact, ChromeTraceMeta{Cores: 1}},
		{"empty tracer", NewTracer(4), meta},
		{"nil tracer", nil, meta},
		{"default meta", every, ChromeTraceMeta{}},
		{"escaped names", escaped, ChromeTraceMeta{Process: escapeNames[0] + escapeNames[5] + escapeNames[10], Cores: 2, Workloads: spans}},
		{"escaped process only", escaped, ChromeTraceMeta{Process: `"quoted\"`}},
		{"random", random, meta},
	}
}

// diffAt reports where got first departs from want.
func diffAt(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return "first difference at byte " + strconv.Itoa(i) + ":\n got  ..." +
		string(got[lo:min(i+60, len(got))]) + "\n want ..." + string(want[lo:min(i+60, len(want))])
}

func checkAgainstReference(t *testing.T, tr *Tracer, meta ChromeTraceMeta) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteChromeTrace(&got, tr, meta); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTraceRef(&want, tr, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streaming export (%d bytes) differs from the reference (%d bytes); %s",
			got.Len(), want.Len(), diffAt(got.Bytes(), want.Bytes()))
	}
}

// TestChromeTraceMatchesReference compares the streaming exporter with the
// encoding/json reference over every case, byte for byte.
func TestChromeTraceMatchesReference(t *testing.T) {
	for _, c := range referenceCases() {
		t.Run(c.name, func(t *testing.T) { checkAgainstReference(t, c.tr, c.meta) })
	}
}

// TestAppendFloatMatchesEncodingJSON checks the float writer against
// encoding/json on values of every magnitude, including the 'e'-form
// cut-offs that no trace value reaches.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.001, 1e-6, 9.99e-7, 1e-7, -1.5e-7, 1e-10, 5e-324,
		1e20, 1e21, 9.99e20, -1e21, 1.2345e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
		1000500, 1.0005e6, 123456789.123, 9223372036854775.807, 0.1 + 0.2,
	}
	r := rng.New(3)
	for len(values) < 20000 {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			values = append(values, v)
		}
	}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
}

// fuzzEventSize is the byte length of one event in FuzzChromeTrace's input:
// At, Dur, A and B as 8 bytes each, Core, Cell, Slot and Task as 4, Kind as 1.
const fuzzEventSize = 4*8 + 4*4 + 1

func encodeEvents(evs []Event) []byte {
	var b []byte
	for _, ev := range evs {
		for _, v := range []int64{int64(ev.At), int64(ev.Dur), ev.A, ev.B} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		for _, v := range []int32{ev.Core, ev.Cell, ev.Slot, ev.Task} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		b = append(b, byte(ev.Kind))
	}
	return b
}

func decodeEvents(b []byte) []Event {
	var evs []Event
	for ; len(b) >= fuzzEventSize; b = b[fuzzEventSize:] {
		i64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i:])) }
		i32 := func(i int) int32 { return int32(binary.LittleEndian.Uint32(b[32+4*i:])) }
		evs = append(evs, Event{
			At: sim.Time(i64(0)), Dur: sim.Time(i64(1)), A: i64(2), B: i64(3),
			Core: i32(0), Cell: i32(1), Slot: i32(2), Task: i32(3), Kind: EventKind(b[48]),
		})
	}
	return evs
}

// FuzzChromeTrace compares the streaming exporter with the reference on
// arbitrary events, ring capacities and process and workload names.
// Capacity 0 selects a nil tracer.
func FuzzChromeTrace(f *testing.F) {
	for _, c := range referenceCases() {
		capacity := 0
		var evs []Event
		if c.tr != nil {
			capacity = min(cap(c.tr.buf), 255)
			evs = c.tr.Events()
		}
		workload := ""
		if len(c.meta.Workloads) > 0 {
			workload = c.meta.Workloads[0].Name
		}
		f.Add(c.meta.Process, workload, uint8(capacity), encodeEvents(evs[:min(len(evs), 64)]))
	}
	f.Fuzz(func(t *testing.T, process, workload string, capacity uint8, data []byte) {
		var tr *Tracer
		if capacity > 0 {
			tr = NewTracer(int(capacity))
			for _, ev := range decodeEvents(data) {
				tr.Emit(ev)
			}
		}
		meta := ChromeTraceMeta{Process: process, Cores: int(capacity % 5)}
		if workload != "" {
			meta.Workloads = []WorkloadSpan{
				{Name: workload, From: 0, To: 1500},
				{Name: "redis", From: 1500, To: 4000},
				{Name: workload, From: 4000, To: 4001},
			}
		}
		checkAgainstReference(t, tr, meta)
	})
}

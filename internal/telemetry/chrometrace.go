package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

// ChromeTraceMeta describes the run being exported so the trace viewer can
// label its tracks.
type ChromeTraceMeta struct {
	// Process names the pool process row (default "vran-pool").
	Process string
	// Cores is the pool core count; one viewer thread per core.
	Cores int
	// Workloads lists collocated best-effort activity intervals, rendered as
	// spans on a separate process row.
	Workloads []WorkloadSpan
}

// WorkloadSpan is one interval during which a named workload was active.
type WorkloadSpan struct {
	Name     string
	From, To sim.Time
}

// Trace-viewer process/thread layout: the pool's cores are threads of pid 1
// (tid 0 is the scheduler/control track), accelerator lanes are threads of
// pid 2, workloads are threads of pid 3.
const (
	pidPool     = 1
	pidAccel    = 2
	pidWorkload = 3
	tidSched    = 0
)

func taskName(task int32) string {
	if task < 0 || task >= int32(ran.NumTaskKinds) {
		return "task"
	}
	return ran.TaskKind(task).String()
}

func dirName(dir int64) string { return ran.SlotDir(dir).String() }

// WriteChromeTrace exports the tracer's retained events as Chrome
// trace-event JSON (the "JSON object format" with a traceEvents array),
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. One process
// per pool with one thread per core; task executions are complete ("X")
// spans, scheduler decisions and the interference index are counter ("C")
// tracks, deadline misses and core transitions are instants ("i"), DAG
// lifetimes are async ("b"/"e") spans keyed by the DAG sequence number, and
// accelerator requests are spans on the device's lane threads.
//
// The export streams: it walks the ring in place and writes each record
// into one fixed buffer, so its memory does not depend on the trace's
// length. The bytes are what encoding/json writes for the same records
// (see appendFloat and appendString), and the first error from w is
// returned.
func WriteChromeTrace(w io.Writer, t *Tracer, meta ChromeTraceMeta) error {
	if meta.Process == "" {
		meta.Process = "vran-pool"
	}
	s := newStream(w)

	// Track metadata first: process and thread names. Every record starts
	// with the comma that separates it from the one before; the first
	// record's becomes the array's opening bracket.
	s.b = append(s.b, `{"traceEvents":`...)
	s.b = appendMeta(s.b, "process_name", pidPool, 0, meta.Process)
	s.b[len(`{"traceEvents":`)] = '['
	s.b = appendMeta(s.b, "thread_name", pidPool, tidSched, "scheduler")
	for c := 0; c < meta.Cores; c++ {
		s.b = appendMeta(s.b, "thread_name", pidPool, c+1, "core "+strconv.Itoa(c))
	}

	haveAccel := false
	older, newer := t.ring()
	for _, events := range [2][]Event{older, newer} {
		for i := range events {
			ev := &events[i]
			s.b = appendEvent(s.b, ev)
			haveAccel = haveAccel || ev.Kind == EvOffloadSpan
			if err := s.endRecord(); err != nil {
				return err
			}
		}
	}
	if haveAccel {
		s.b = appendMeta(s.b, "process_name", pidAccel, 0, "accelerator")
	}
	if len(meta.Workloads) > 0 {
		s.b = appendMeta(s.b, "process_name", pidWorkload, 0, "workloads")
		names := map[string]int{}
		for _, span := range meta.Workloads {
			tid, ok := names[span.Name]
			if !ok {
				tid = len(names) + 1
				names[span.Name] = tid
				s.b = appendMeta(s.b, "thread_name", pidWorkload, tid, span.Name)
			}
			s.b = appendName(s.b, span.Name)
			s.b = record{
				cat: "workload", ph: 'X', ts: span.From, dur: span.To - span.From, hasDur: true,
				pid: pidWorkload, tid: tid,
			}.append(s.b)
			if err := s.endRecord(); err != nil {
				return err
			}
		}
	}
	s.b = append(s.b, "],\"displayTimeUnit\":\"ns\"}\n"...)
	return s.flush()
}

// traceDisposition records whether a kind is rendered by appendEvent or
// intentionally suppressed. The zero value means "unmapped": adding an
// EventKind without deciding its Chrome-trace fate fails the exhaustiveness
// test loudly instead of silently falling through appendEvent's default.
type traceDisposition uint8

const (
	dispUnmapped traceDisposition = iota
	dispRendered
	dispSuppressed
)

// chromeDispositions must have a non-zero entry for every EventKind.
var chromeDispositions = [numEventKinds]traceDisposition{
	EvDAGRelease:    dispRendered,
	EvTaskEnqueue:   dispSuppressed, // metrics-level; would double the span count
	EvTaskDispatch:  dispSuppressed, // metrics-level; would double the span count
	EvTaskComplete:  dispRendered,
	EvOffloadSpan:   dispRendered,
	EvDAGComplete:   dispRendered,
	EvDeadlineMiss:  dispRendered,
	EvDAGDrop:       dispRendered,
	EvCoreAcquire:   dispRendered,
	EvCoreAwake:     dispRendered,
	EvCoreYield:     dispRendered,
	EvCoreRotate:    dispRendered,
	EvSchedDecision: dispRendered,
	EvInterference:  dispRendered,
	EvFaultInject:   dispRendered,
	EvFaultRecover:  dispRendered,
	EvPredictSample: dispSuppressed, // analysis-level; consumed by internal/analysis
	EvCellAdmit:     dispRendered,
	EvCellMigrate:   dispRendered,
	EvCellReject:    dispRendered,
	EvDeviceReset:   dispRendered,
	EvReconcile:     dispRendered,
	EvBatchSubmit:   dispSuppressed, // metrics-level; offload spans already render per request
	EvSLOWindow:     dispRendered,
	EvSLOAlert:      dispRendered,
}

// appendEvent appends the trace record of one telemetry event, or nothing
// for a suppressed kind. Args keys are written in byte order, the order
// encoding/json gives a map's keys.
func appendEvent(b []byte, ev *Event) []byte {
	switch ev.Kind {
	case EvTaskComplete:
		// Span drawn backwards from completion: At-Dur .. At on the core's
		// thread (core tids are offset by one past the scheduler track).
		b = appendName(b, taskName(ev.Task))
		return record{
			cat: "task", ph: 'X', ts: ev.At - ev.Dur, dur: ev.Dur, hasDur: true,
			pid: pidPool, tid: int(ev.Core) + 1,
		}.append(b, intArg("cell", ev.Cell), intArg("dag", ev.A), intArg("slot", ev.Slot))
	case EvOffloadSpan:
		b = appendName(b, taskName(ev.Task))
		return record{
			cat: "offload", ph: 'X', ts: ev.At, dur: ev.Dur, hasDur: true,
			pid: pidAccel, tid: int(ev.A) + 1,
		}.append(b, intArg("codeblocks", ev.B))
	case EvDAGRelease:
		b = appendDAGName(b, ev.B)
		return record{
			cat: "dag", ph: 'b', ts: ev.At, pid: pidPool, tid: tidSched, id: ev.A, hasID: true,
		}.append(b, intArg("cell", ev.Cell), intArg("slot", ev.Slot))
	case EvDAGComplete, EvDAGDrop:
		b = appendDAGName(b, ev.B)
		return record{
			cat: "dag", ph: 'e', ts: ev.At, pid: pidPool, tid: tidSched, id: ev.A, hasID: true,
		}.append(b)
	case EvDeadlineMiss:
		b = appendName(b, "deadline_miss")
		return record{
			cat: "deadline", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("cell", ev.Cell), usArg("latency_us", ev.Dur), intArg("slot", ev.Slot))
	case EvSchedDecision:
		b = appendName(b, "ran_cores")
		return record{ph: 'C', ts: ev.At, pid: pidPool, tid: tidSched}.
			append(b, intArg("owned", ev.Core), intArg("target", ev.B))
	case EvInterference:
		b = appendName(b, "interference")
		return record{ph: 'C', ts: ev.At, pid: pidPool, tid: tidSched}.
			append(b, arg{key: "index", f: float64(ev.A) / 1000, isFloat: true})
	case EvCoreAcquire:
		b = appendName(b, "acquire")
		return record{
			cat: "core", ph: 'i', ts: ev.At, pid: pidPool, tid: int(ev.Core) + 1, scope: 't',
		}.append(b)
	case EvCoreAwake:
		b = appendName(b, "awake")
		return record{
			cat: "core", ph: 'i', ts: ev.At, pid: pidPool, tid: int(ev.Core) + 1, scope: 't',
		}.append(b, usArg("wakeup_us", ev.Dur))
	case EvCoreYield:
		b = appendName(b, "yield")
		return record{
			cat: "core", ph: 'i', ts: ev.At, pid: pidPool, tid: int(ev.Core) + 1, scope: 't',
		}.append(b)
	case EvFaultInject:
		b = appendName(b, "fault_inject")
		return record{
			cat: "fault", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("cell", ev.Cell), intArg("class", ev.A), usArg("detail_us", ev.Dur))
	case EvFaultRecover:
		b = appendName(b, "fault_recover")
		return record{
			cat: "fault", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("action", ev.B), intArg("class", ev.A))
	case EvCoreRotate:
		b = appendName(b, "rotate")
		return record{
			cat: "core", ph: 'i', ts: ev.At, pid: pidPool, tid: int(ev.Core) + 1, scope: 't',
		}.append(b, intArg("to", ev.A))
	case EvCellAdmit:
		b = appendName(b, "cell_admit")
		return record{
			cat: "fleet", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("cell", ev.Cell), intArg("feasible", ev.B), intArg("server", ev.A))
	case EvCellMigrate:
		b = appendName(b, "cell_migrate")
		return record{
			cat: "fleet", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("cell", ev.Cell), intArg("from", ev.A),
			usArg("fronthaul_us", ev.Dur), intArg("to", ev.B))
	case EvCellReject:
		b = appendName(b, "cell_reject")
		return record{
			cat: "fleet", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("cell", ev.Cell), intArg("feasible", ev.B))
	case EvSLOWindow:
		// One counter track per slice: windowed attempts/misses plus the
		// objective-quantile latency, sampled at each window boundary.
		b = strconv.AppendInt(append(b, `,{"name":"slo_slice_`...), int64(ev.Task), 10)
		b = append(b, '"')
		return record{ph: 'C', ts: ev.At, pid: pidPool, tid: tidSched}.
			append(b, intArg("attempts", ev.A), intArg("misses", ev.B), usArg("q_latency_us", ev.Dur))
	case EvSLOAlert:
		name := "slo_alert_clear"
		if ev.B == 1 {
			name = "slo_alert_fire"
		}
		b = appendName(b, name)
		return record{
			cat: "slo", ph: 'i', ts: ev.At, pid: pidPool, tid: tidSched, scope: 'p',
		}.append(b, intArg("burn_milli", ev.A), intArg("slice", ev.Task), intArg("window", ev.Slot))
	case EvDeviceReset:
		name := "device_up"
		if ev.B == 1 {
			name = "device_down"
		}
		b = appendName(b, name)
		return record{
			cat: "accel", ph: 'i', ts: ev.At, pid: pidAccel, tid: 0, scope: 'p',
		}.append(b, intArg("device", ev.A))
	case EvReconcile:
		b = appendName(b, "reconcile")
		return record{
			cat: "accel", ph: 'i', ts: ev.At, pid: pidAccel, tid: 0, scope: 'p',
		}.append(b, intArg("alive", ev.A), intArg("devices", ev.B))
	default:
		// The suppressed kinds (see chromeDispositions) and unknown ones.
		return b
	}
}

// appendName opens a record: the comma after the previous record, then
// the name field.
func appendName(b []byte, name string) []byte {
	return appendString(append(b, `,{"name":`...), name)
}

// appendDAGName opens a DAG lifetime record, named "dag " and the slot
// direction.
func appendDAGName(b []byte, dir int64) []byte {
	b = appendStringBody(append(b, `,{"name":"dag `...), dirName(dir))
	return append(b, '"')
}

// appendMeta appends a process_name/thread_name metadata record.
func appendMeta(b []byte, name string, pid, tid int, value string) []byte {
	b = record{ph: 'M', pid: pid, tid: tid}.fields(appendName(b, name))
	b = appendString(append(b, `,"args":{"name":`...), value)
	return append(b, "}}"...)
}

// record holds the fields of one trace-event object that follow its name.
// An empty cat or scope is omitted, as are dur and id unless hasDur and
// hasID are set.
type record struct {
	cat           string
	ph            byte
	ts, dur       sim.Time
	pid, tid      int
	id            int64
	scope         byte
	hasDur, hasID bool
}

// fields appends the record's fields in the format's order: cat, ph, ts,
// dur, pid, tid, id, s.
func (r record) fields(b []byte) []byte {
	if r.cat != "" {
		b = appendString(append(b, `,"cat":`...), r.cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, r.ph, '"')
	b = appendFloat(append(b, `,"ts":`...), r.ts.Us())
	if r.hasDur {
		b = appendFloat(append(b, `,"dur":`...), r.dur.Us())
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(r.pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(r.tid), 10)
	if r.hasID {
		b = strconv.AppendInt(append(b, `,"id":`...), r.id, 10)
	}
	if r.scope != 0 {
		b = append(b, `,"s":"`...)
		b = append(b, r.scope, '"')
	}
	return b
}

// append appends the record's fields and args, then closes it. The args
// object is omitted when there are none.
func (r record) append(b []byte, args ...arg) []byte {
	b = r.fields(b)
	for i, a := range args {
		if i == 0 {
			b = append(b, `,"args":{"`...)
		} else {
			b = append(b, `,"`...)
		}
		b = append(b, a.key...)
		b = append(b, `":`...)
		if a.isFloat {
			b = appendFloat(b, a.f)
		} else {
			b = strconv.AppendInt(b, a.i, 10)
		}
	}
	if len(args) > 0 {
		b = append(b, '}')
	}
	return append(b, '}')
}

// arg is one entry of a record's args object: an integer, or a float when
// isFloat is set. Keys are plain ASCII and written unescaped.
type arg struct {
	key     string
	i       int64
	f       float64
	isFloat bool
}

func intArg[T int32 | int64](key string, v T) arg { return arg{key: key, i: int64(v)} }

// usArg is a duration or time argument in microseconds.
func usArg(key string, t sim.Time) arg { return arg{key: key, f: t.Us(), isFloat: true} }

// appendFloat appends v as encoding/json writes a float64: the shortest
// decimal that parses back to v, in 'f' form, or in 'e' form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent left unpadded (e-7, not
// e-07). This is not the CSV exporters' format (see appendCSVFloat). v is
// always finite here: every value is a whole number of nanoseconds, or of
// milli-units, divided by 1000.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a quoted JSON string, escaped as encoding/json
// escapes it.
func appendString(b []byte, s string) []byte {
	return append(appendStringBody(append(b, '"'), s), '"')
}

// appendStringBody appends s's escaped JSON form without the quotes. The
// names a trace carries are plain ASCII and copy through as they are; a
// string with any other byte takes encoding/json's own escaping (HTML-safe
// '<', '>' and '&', U+2028 and U+2029, control bytes, invalid UTF-8).
func appendStringBody(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted[1:len(quoted)-1]...)
		}
	}
	return append(b, s...)
}

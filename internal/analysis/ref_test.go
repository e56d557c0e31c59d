package analysis

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

// The reference autopsy: the map-based timeline reconstruction, critical-path
// walk and calibration monitor that Analyze's flat storage replaced, kept as
// they were. Analyze must agree with it on every public field of every
// timeline and span, on every miss and calibration row, and on the bytes of
// every export.

// refTimeline is a timeline of the reference: its public fields, with the
// spans held by node ID in a map and listed through pointers.
type refTimeline struct {
	Timeline // Tasks stays empty: tasks lists the spans
	tasks    []*TaskSpan
	spans    map[int32]*TaskSpan
}

func (tl *refTimeline) span(node int32, kind int32) *TaskSpan {
	s, ok := tl.spans[node]
	if !ok {
		s = &TaskSpan{Node: node, Kind: kind}
		tl.spans[node] = s
	}
	return s
}

// refBuildTimelines groups the event stream by DAG sequence number.
func refBuildTimelines(events []telemetry.Event) map[int64]*refTimeline {
	tls := map[int64]*refTimeline{}
	get := func(seq int64, cell, slot int32) *refTimeline {
		tl, ok := tls[seq]
		if !ok {
			tl = &refTimeline{Timeline: Timeline{Seq: seq, Cell: cell, Slot: slot}, spans: map[int32]*TaskSpan{}}
			tls[seq] = tl
		}
		return tl
	}
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EvDAGRelease:
			tl := get(ev.A, ev.Cell, ev.Slot)
			tl.AdmitAt = ev.At
			tl.HasAdmit = true
			tl.Dir = ev.B
		case telemetry.EvTaskEnqueue:
			s := get(ev.A, ev.Cell, ev.Slot).span(int32(ev.B), ev.Task)
			if !s.hasReady {
				s.ReadyAt = ev.At
				s.hasReady = true
			}
		case telemetry.EvTaskDispatch:
			s := get(ev.A, ev.Cell, ev.Slot).span(int32(ev.B), ev.Task)
			if !s.hasReady {
				s.ReadyAt = ev.At - ev.Dur
				s.hasReady = true
			}
			s.StartAt = ev.At
			s.Dispatches++
			s.Queue += ev.Dur
		case telemetry.EvTaskComplete:
			s := get(ev.A, ev.Cell, ev.Slot).span(int32(ev.B), ev.Task)
			s.EndAt = ev.At
			s.Done = true
			s.Offloaded = ev.Core < 0
			if s.Offloaded {
				s.Offload = ev.Dur
			} else {
				s.Exec = ev.Dur
			}
			if !s.hasReady {
				s.ReadyAt = ev.At - ev.Dur
				s.hasReady = true
			}
		case telemetry.EvPredictSample:
			s := get(ev.B, ev.Cell, ev.Slot).span(ev.Core, ev.Task)
			s.Predicted = sim.Time(ev.A)
			s.Observed = ev.Dur
			s.HasSample = true
		case telemetry.EvDAGComplete:
			tl := get(ev.A, ev.Cell, ev.Slot)
			tl.EndAt = ev.At
			tl.Latency = ev.Dur
			tl.HasEnd = true
			tl.Completed = true
			tl.Dir = ev.B
		case telemetry.EvDAGDrop:
			tl := get(ev.A, ev.Cell, ev.Slot)
			tl.EndAt = ev.At
			tl.Latency = ev.Dur
			tl.HasEnd = true
			tl.Dropped = true
			tl.Dir = ev.B
		case telemetry.EvDeadlineMiss:
			get(ev.A, ev.Cell, ev.Slot).Missed = true
		}
	}
	for _, tl := range tls {
		nodes := make([]int32, 0, len(tl.spans))
		for node := range tl.spans {
			nodes = append(nodes, node)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		tl.tasks = make([]*TaskSpan, 0, len(tl.spans))
		for _, node := range nodes {
			s := tl.spans[node]
			if s.Done {
				s.Stall = s.EndAt - s.ReadyAt - s.Queue - s.Exec - s.Offload
				if s.Stall < 0 {
					s.Stall = 0
				}
			}
			tl.tasks = append(tl.tasks, s)
		}
		if tl.HasEnd {
			tl.Release = tl.EndAt - tl.Latency
		} else if tl.HasAdmit {
			tl.Release = tl.AdmitAt
		}
		tl.Truncated = !tl.HasAdmit
	}
	return tls
}

// extractCriticalPath is the reference walk, with a map of the spans
// already on the chain.
func (tl *refTimeline) extractCriticalPath() {
	var end *TaskSpan
	for _, s := range tl.tasks {
		if !s.Done {
			continue
		}
		if end == nil || s.EndAt > end.EndAt || (s.EndAt == end.EndAt && s.Node < end.Node) {
			end = s
		}
	}
	if end == nil {
		return
	}
	onPath := map[int32]bool{}
	var chain []*TaskSpan
	cur := end
	for cur != nil {
		chain = append(chain, cur)
		onPath[cur.Node] = true
		var pred *TaskSpan
		for _, s := range tl.tasks {
			if !s.Done || onPath[s.Node] || s.EndAt > cur.ReadyAt {
				continue
			}
			if pred == nil || s.EndAt > pred.EndAt || (s.EndAt == pred.EndAt && s.Node < pred.Node) {
				pred = s
			}
		}
		cur = pred
	}
	tl.Critical = make([]int32, len(chain))
	for i, s := range chain {
		tl.Critical[len(chain)-1-i] = s.Node
	}
	for _, s := range chain {
		tl.Queue += s.Queue
		tl.Exec += s.Exec
		tl.Offload += s.Offload
		tl.Stall += s.Stall
	}
	if tl.HasAdmit && tl.AdmitAt > tl.Release {
		tl.Fronthaul = tl.AdmitAt - tl.Release
	}
	if tl.HasEnd {
		tl.Blocked = tl.Latency - tl.Fronthaul - tl.Queue - tl.Exec - tl.Offload - tl.Stall
		if tl.Blocked < 0 {
			tl.Blocked = 0
		}
	}
}

// refExtractPredictSamples pulls the predicted-vs-observed pairs out of the
// event stream in emission order.
func refExtractPredictSamples(events []telemetry.Event) []PredictSample {
	var out []PredictSample
	for _, ev := range events {
		if ev.Kind != telemetry.EvPredictSample {
			continue
		}
		out = append(out, PredictSample{Kind: ev.Task, Predicted: sim.Time(ev.A), Observed: ev.Dur})
	}
	return out
}

// refCalibrateSamples is the reference calibration monitor: it copies each
// kind's samples out and scans them per kind.
func refCalibrateSamples(samples []PredictSample, target float64, window int) []KindCalibration {
	if target == 0 {
		target = 0.99999
	}
	if window <= 0 {
		window = 512
	}
	byKind := map[int32][]PredictSample{}
	for _, s := range samples {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	kinds := make([]int32, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	out := make([]KindCalibration, 0, len(kinds))
	for _, k := range kinds {
		ks := byKind[k]
		c := KindCalibration{Kind: k, Samples: len(ks), Target: target}
		covered := 0
		var headUs, headFrac float64
		for _, s := range ks {
			if s.Observed <= s.Predicted {
				covered++
			}
			headUs += (s.Predicted - s.Observed).Us()
			if s.Predicted > 0 {
				headFrac += float64(s.Predicted-s.Observed) / float64(s.Predicted)
			}
		}
		n := float64(len(ks))
		c.Coverage = float64(covered) / n
		c.MeanHeadroomUs = headUs / n
		c.MeanHeadroomFrac = headFrac / n

		for i := 0; i+window <= len(ks); i += window {
			wCovered := 0
			for _, s := range ks[i : i+window] {
				if s.Observed <= s.Predicted {
					wCovered++
				}
			}
			dev := math.Abs(float64(wCovered)/float64(window) - c.Coverage)
			if dev > c.Drift {
				c.Drift = dev
			}
			c.Windows++
		}

		sigma := math.Sqrt(target * (1 - target) / n)
		c.Tolerance = math.Max(3*sigma, 3/n)
		c.Miscalibrated = c.Coverage < c.Target-c.Tolerance
		out = append(out, c)
	}
	return out
}

// refAnalyze is Analyze over the reference timelines and calibration. The
// miss attribution and the exports are shared: it hands them the reference
// timelines as Timeline values, whose spans CriticalSpan finds as the
// reference's map does (checkMatchesReference compares the two lookups).
func refAnalyze(events []telemetry.Event, opts Options) (*Autopsy, []*refTimeline) {
	if opts.PoolCores == 0 {
		opts.PoolCores = inferPoolCores(events)
	}
	if opts.Deadline == 0 {
		opts.Deadline = inferDeadline(events)
	}
	a := &Autopsy{Opts: opts, Events: len(events)}
	tls := refBuildTimelines(events)
	seqs := make([]int64, 0, len(tls))
	for seq := range tls {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	refs := make([]*refTimeline, 0, len(tls))
	bySeq := map[int64]*Timeline{}
	for _, seq := range seqs {
		tl := tls[seq]
		tl.extractCriticalPath()
		refs = append(refs, tl)
		a.DAGsSeen++
		if tl.Dropped {
			a.DAGsDropped++
		} else if tl.Completed {
			a.DAGsCompleted++
		}
		flat := tl.Timeline
		for _, s := range tl.tasks {
			flat.Tasks = append(flat.Tasks, *s)
		}
		a.Timelines = append(a.Timelines, flat)
	}
	for i := range a.Timelines {
		bySeq[a.Timelines[i].Seq] = &a.Timelines[i]
	}

	ctx := newAttributionContext(events, opts)
	for _, ev := range events {
		if ev.Kind != telemetry.EvDeadlineMiss {
			continue
		}
		m := Miss{Seq: ev.A, Cell: ev.Cell, Slot: ev.Slot, At: ev.At, Latency: ev.Dur}
		tl := bySeq[ev.A]
		if tl != nil {
			m.Dropped = tl.Dropped
		}
		m.Cause, m.Detail = ctx.attribute(tl, m)
		a.CauseCounts[m.Cause]++
		a.Misses = append(a.Misses, m)
	}
	a.Calibration = refCalibrateSamples(refExtractPredictSamples(events), targetQuantile, driftWindow)
	return a, refs
}

// diffExported reports every exported field of two structs of one type
// that differs, except the fields named in skip.
func diffExported(t testing.TB, what string, got, want any, skip ...string) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		f := g.Type().Field(i)
		if !f.IsExported() || f.Anonymous {
			continue
		}
		skipped := false
		for _, name := range skip {
			skipped = skipped || f.Name == name
		}
		if skipped {
			continue
		}
		if gv, wv := g.Field(i).Interface(), w.Field(i).Interface(); !reflect.DeepEqual(gv, wv) {
			t.Errorf("%s: %s = %v, reference %v", what, f.Name, gv, wv)
		}
	}
}

// exports renders every export of an autopsy: the markdown report and the
// causes, misses and calibration CSVs.
func exports(t testing.TB, a *Autopsy) [4][]byte {
	t.Helper()
	var out [4][]byte
	for i, write := range [4]func(io.Writer) error{a.WriteReport, a.WriteCausesCSV, a.WriteMissesCSV, a.WriteCalibrationCSV} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	return out
}

// checkMatchesReference analyses events with Analyze and with the
// reference and fails t on the first timeline, span, miss, count,
// calibration row or export byte where they differ.
func checkMatchesReference(t testing.TB, events []telemetry.Event, opts Options) {
	t.Helper()
	got := Analyze(events, opts)
	want, refs := refAnalyze(events, opts)
	if len(got.Timelines) != len(refs) {
		t.Fatalf("%d timelines, reference %d", len(got.Timelines), len(refs))
	}
	for i := range got.Timelines {
		g, r := &got.Timelines[i], refs[i]
		what := "timeline " + itoa(r.Seq)
		diffExported(t, what, g, &r.Timeline, "Tasks")
		if len(g.Tasks) != len(r.tasks) {
			t.Fatalf("%s: %d spans, reference %d", what, len(g.Tasks), len(r.tasks))
		}
		for k := range g.Tasks {
			diffExported(t, what+" span "+itoa(int64(r.tasks[k].Node)), &g.Tasks[k], r.tasks[k])
		}
		// Every node of the DAG and its neighbours, the critical ones
		// among them, and the extremes.
		nodes := []int32{math.MinInt32, math.MaxInt32}
		for _, s := range r.tasks {
			nodes = append(nodes, s.Node-1, s.Node, s.Node+1)
		}
		for _, node := range nodes {
			gs, rs := g.CriticalSpan(node), r.spans[node]
			if (gs == nil) != (rs == nil) {
				t.Fatalf("%s: CriticalSpan(%d) = %v, reference %v", what, node, gs, rs)
			}
			if gs != nil {
				diffExported(t, what+" CriticalSpan("+itoa(int64(node))+")", gs, rs)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	diffExported(t, "autopsy", got, want, "Timelines")
	gotExports := exports(t, got)
	for i, b := range exports(t, want) {
		if !bytes.Equal(gotExports[i], b) {
			t.Fatalf("export %d differs from the reference's:\n%s\nreference:\n%s", i, gotExports[i], b)
		}
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// fuzzEventSize is the bytes FuzzAnalyze decodes into one event.
const fuzzEventSize = 10

// decodeFuzzEvents maps bytes onto events of small domains, so that
// events meet on the same DAGs and nodes, with the shapes real traces
// avoid: negative and sparse node IDs, node IDs truncated from a B past
// 2^31, sequences out of order, sparse or negative, and any kind in any
// order (duplicate releases, completions before releases).
func decodeFuzzEvents(data []byte) []telemetry.Event {
	var evs []telemetry.Event
	for ; len(data) >= fuzzEventSize; data = data[fuzzEventSize:] {
		b := data[:fuzzEventSize]
		seq := int64(b[1] & 0x0f)
		if b[1]&0x10 != 0 {
			seq <<= 32 // as sparse as a merged fleet trace's
		}
		if b[1]&0x20 != 0 {
			seq = -seq
		}
		node := int64(int8(b[2]))
		if b[1]&0x40 != 0 {
			node <<= 12 // too sparse for a window of the DAG's event count
		}
		node += int64(b[3]&3) << 31 // truncated back by int32(B), or spread past 2^31
		ev := telemetry.Event{
			Kind: telemetry.EventKind(b[0] % byte(telemetry.NumEventKinds)),
			At:   sim.Time(uint16(b[4])|uint16(b[5])<<8) * sim.Microsecond,
			Dur:  sim.Time(int8(b[6])) * sim.Microsecond,
			Core: int32(int8(b[7])),
			Cell: int32(b[8] % 4), Slot: int32(b[8] / 4),
			Task: int32(b[9] % 8),
			A:    seq, B: node,
		}
		switch ev.Kind {
		case telemetry.EvPredictSample:
			ev.A, ev.B, ev.Core = int64(b[9])*int64(sim.Microsecond)/2, seq, int32(node)
		case telemetry.EvFaultInject, telemetry.EvFaultRecover, telemetry.EvCoreAcquire, telemetry.EvCoreYield:
			// A fault class or a core count, and the DAG a fault hit.
			ev.A, ev.B = int64(b[9]%8), seq
		}
		evs = append(evs, ev)
	}
	return evs
}

// fuzzRecord encodes one event for decodeFuzzEvents.
func fuzzRecord(kind telemetry.EventKind, seqBits, node, nodeHigh byte, atUs uint16, durUs int8, core int8, cellSlot, extra byte) []byte {
	return []byte{byte(kind), seqBits, node, nodeHigh, byte(atUs), byte(atUs >> 8), byte(durUs), byte(core), cellSlot, extra}
}

// FuzzAnalyze compares Analyze with the reference on arbitrary event
// sequences, with the pool's core count and deadline inferred and given,
// and bounds what one analysis allocates by the trace's length: no node ID
// may size the span arena.
func FuzzAnalyze(f *testing.F) {
	var dag []byte
	for _, r := range [][]byte{
		fuzzRecord(telemetry.EvDAGRelease, 1, 0, 0, 10, 0, -1, 5, 0),
		fuzzRecord(telemetry.EvTaskEnqueue, 1, 0, 0, 10, 0, -1, 5, 0),
		fuzzRecord(telemetry.EvTaskDispatch, 1, 0, 0, 40, 30, 2, 5, 0),
		fuzzRecord(telemetry.EvTaskComplete, 1, 0, 0, 60, 20, 2, 5, 0),
		fuzzRecord(telemetry.EvPredictSample, 1, 0, 0, 60, 20, 0, 5, 30),
		fuzzRecord(telemetry.EvTaskDispatch, 1, 1, 0, 60, 0, 3, 5, 1),
		fuzzRecord(telemetry.EvTaskComplete, 1, 1, 2, 90, 30, -1, 5, 1), // B = 2^32+1
		fuzzRecord(telemetry.EvDAGComplete, 1, 0, 0, 90, 80, -1, 5, 0),
		fuzzRecord(telemetry.EvDeadlineMiss, 1, 0, 0, 90, 80, -1, 5, 0),
	} {
		dag = append(dag, r...)
	}
	f.Add([]byte{})
	f.Add(dag)
	f.Add(append(append([]byte{}, dag...), fuzzRecord(telemetry.EvTaskComplete, 0x41, 127, 0, 95, 5, 1, 5, 2)...))
	f.Add(append(append([]byte{}, dag...), fuzzRecord(telemetry.EvTaskComplete, 0x01, 127, 1, 95, 5, 1, 5, 2)...))
	f.Add(append(fuzzRecord(telemetry.EvDeadlineMiss, 0x12, 0, 0, 100, 90, -1, 1, 0), dag...))
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeFuzzEvents(data)
		checkMatchesReference(t, events, Options{})
		checkMatchesReference(t, events, Options{PoolCores: 4, Deadline: 50 * sim.Microsecond})

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Analyze(events, Options{})
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+4<<10*len(events)); n > bound {
			t.Fatalf("Analyze of %d events allocated %d bytes, over the bound of %d", len(events), n, bound)
		}
	})
}

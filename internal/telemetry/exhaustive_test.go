package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"concordia/internal/sim"
)

// TestEventKindExhaustive fails loudly when a new EventKind is added without
// wiring every consumer: the String() name table, the name->kind parser, and
// the Chrome-trace disposition table. EvFaultInject/EvFaultRecover were added
// by hand in an earlier change; the next kind must not be forgettable.
func TestEventKindExhaustive(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "EventKind(") {
			t.Errorf("kind %d has no String() name", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k

		// The CSV reader must round-trip every name.
		parsed, ok := ParseEventKind(name)
		if !ok || parsed != k {
			t.Errorf("ParseEventKind(%q) = %v,%v; want %v,true", name, parsed, ok, k)
		}

		// Every kind needs an explicit Chrome-trace fate: rendered or
		// deliberately suppressed. The zero value means someone forgot.
		switch disp := chromeDispositions[k]; disp {
		case dispRendered:
			if len(appendEvent(nil, &Event{Kind: k})) == 0 {
				t.Errorf("kind %s marked rendered but appendEvent writes nothing", name)
			}
		case dispSuppressed:
			if out := appendEvent(nil, &Event{Kind: k}); len(out) != 0 {
				t.Errorf("kind %s marked suppressed but appendEvent writes %s", name, out)
			}
		default:
			t.Errorf("kind %s has no chrometrace disposition; add it to chromeDispositions", name)
		}
	}
	if NumEventKinds != int(numEventKinds) {
		t.Errorf("NumEventKinds = %d, want %d", NumEventKinds, int(numEventKinds))
	}
	if _, ok := ParseEventKind("no_such_kind"); ok {
		t.Error("ParseEventKind accepted an unknown name")
	}
}

// TestEventsCSVRoundTrip writes a representative event per kind (including
// negative sentinels and sub-microsecond timestamps), and times at both
// ends of the accepted ±2^51 ns range, and reads them back: ReadEventsCSV
// must recover every field exactly.
func TestEventsCSVRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	for k := EventKind(0); k < numEventKinds; k++ {
		tr.Emit(Event{
			At:   sim.Time(int64(k))*sim.Microsecond + 123, // whole-ns, not whole-us
			Dur:  sim.Time(int64(k)) * 7,
			A:    int64(k) * -3,
			B:    1 << 40,
			Core: int32(k) - 1,
			Cell: -1,
			Slot: int32(k),
			Task: int32(k) % 4,
			Kind: k,
		})
	}
	tr.Emit(Event{Kind: EvCoreAwake, At: maxCSVTime, Dur: -maxCSVTime})
	tr.Emit(Event{Kind: EvCoreAwake, At: -maxCSVTime, Dur: maxCSVTime - 1})
	var buf bytes.Buffer
	if err := tr.WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEventsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d round-tripped as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadEventsCSVRejectsGarbage covers the error paths: wrong header,
// unknown kind, malformed numbers, short rows, and times that parse as
// floats but are no whole-nanosecond sim.Time within ±2^51 ns (read, before
// the bound, as a wrapped-around time). A bad field's error names its line
// and column.
func TestReadEventsCSVRejectsGarbage(t *testing.T) {
	const header = "time_us,kind,core,cell,slot,task,dur_us,a,b\n"
	const good = "1.5,dag_release,-1,0,0,-1,0,1,1\n"
	cases := []struct{ name, in, want string }{
		{"bad header", "a,b,c,d,e,f,g,h,i\n", "header"},
		{"reordered header", "time_us,kind,cell,core,slot,task,dur_us,a,b\n", "header"},
		{"unknown kind", header + "0,not_a_kind,0,0,0,0,0,0,0\n", "line 2: kind"},
		{"bad number", header + "xyz,dag_release,0,0,0,0,0,0,0\n", "line 2: time_us"},
		{"short row", header + "0,dag_release,0\n", "wrong number of fields"},
		{"empty input", "", "EOF"},
		{"bad int field", header + "0,dag_release,zz,0,0,0,0,0,0\n", "line 2: core"},
		{"NaN time", header + good + "NaN,dag_release,0,0,0,0,0,0,0\n", "line 3: time_us"},
		{"Inf time", header + good + "Inf,dag_release,0,0,0,0,0,0,0\n", "line 3: time_us"},
		{"-Inf time", header + good + "-Inf,dag_release,0,0,0,0,0,0,0\n", "line 3: time_us"},
		{"overflowing time", header + good + "1e300,dag_release,0,0,0,0,0,0,0\n", "line 3: time_us"},
		{"time past 2^51 ns", header + good + "2251799813685.249,dag_release,0,0,0,0,0,0,0\n", "line 3: time_us"},
		{"-Inf dur", header + good + "0,dag_release,0,0,0,0,-Inf,0,0\n", "line 3: dur_us"},
		{"NaN dur", header + good + "0,dag_release,0,0,0,0,NaN,0,0\n", "line 3: dur_us"},
		{"overflowing dur", header + good + "0,dag_release,0,0,0,0,1e17,0,0\n", "line 3: dur_us"},
		{"dur past -2^51 ns", header + good + "0,dag_release,0,0,0,0,-2251799813685.249,0,0\n", "line 3: dur_us"},
		{"line after a blank one", header + good + "\n0,dag_release,0,0,0,0,0,0,zz\n", "line 4: b"},
	}
	for _, c := range cases {
		evs, err := ReadEventsCSV(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted as %+v", c.name, evs)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// FuzzReadEventsCSV hardens the events-CSV reader against user input: it
// must never panic, and whatever it accepts must survive WriteEventsCSV
// and a second read unchanged.
func FuzzReadEventsCSV(f *testing.F) {
	const header = "time_us,kind,core,cell,slot,task,dur_us,a,b\n"
	for _, in := range []string{
		"",
		header,
		header + "3,deadline_miss,-1,2,7,-1,12,4,1\n",
		header + "0.123,task_complete,2,0,0,5,1.0005e+06,-3,1099511627776\n",
		header + "2251799813685.248,dag_release,0,0,0,0,-2251799813685.248,0,0\n",
		// Past the bound this time would read back a nanosecond off.
		header + "4429238518886.278,dag_release,0,0,0,0,0,0,0\n",
		header + "NaN,dag_release,0,0,0,0,0,0,0\n",
		header + "1e300,dag_release,0,0,0,0,0,0,0\n",
		header + "0,dag_release,0,0,0,0,1e17,0,0\n",
		header + "0.0005,slo_alert,0,0,0,0,-0,0,0\n",
		header + "\"1\",core_awake,+1,0,0,0,0x1p-2,0,0\n",
		"time_us,kind\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := ReadEventsCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		tr := NewTracer(len(evs) + 1)
		for _, ev := range evs {
			tr.Emit(ev)
		}
		var buf bytes.Buffer
		if err := tr.WriteEventsCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEventsCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading the written events failed: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, evs) {
			t.Fatalf("events changed through a write and read:\n got %#v\nwant %#v", back, evs)
		}
	})
}

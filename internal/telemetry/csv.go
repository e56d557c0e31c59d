package telemetry

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"concordia/internal/sim"
)

// appendCSVFloat appends v in the shortest form that parses back to v,
// strconv's 'g' format: exponent form below 1e-4 and from 1e6 on, so
// 1000500 is written 1.0005e+06. The Chrome trace writes floats as
// encoding/json does (appendFloat), where that value is 1000500; the two
// exports do not agree byte for byte.
func appendCSVFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteMetricsCSV exports the registry's sampled time series as CSV: a
// time_us column followed by every sampled metric in sorted name order, one
// row per Sample call. Metrics registered after a sample was taken appear as
// empty cells in the earlier rows, so the column set is the sorted union
// across all rows and the bytes are run-order independent.
func (r *Registry) WriteMetricsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cols := map[string]bool{}
	r.sampleOrder(func(row *sampleRow) {
		for name := range row.vals {
			cols[name] = true
		}
	})
	names := make([]string, 0, len(cols))
	for name := range cols {
		names = append(names, name)
	}
	sort.Strings(names)

	bw.WriteString("time_us")
	for _, name := range names {
		bw.WriteByte(',')
		bw.WriteString(name)
	}
	bw.WriteByte('\n')
	r.sampleOrder(func(row *sampleRow) {
		bw.Write(appendCSVFloat(bw.AvailableBuffer(), row.at.Us()))
		for _, name := range names {
			bw.WriteByte(',')
			if v, ok := row.vals[name]; ok {
				bw.Write(appendCSVFloat(bw.AvailableBuffer(), v))
			}
		}
		bw.WriteByte('\n')
	})
	return bw.Flush()
}

// eventsCSVHeader names the columns of the events CSV. ReadEventsCSV
// requires it exactly: its columns are read by position.
const eventsCSVHeader = "time_us,kind,core,cell,slot,task,dur_us,a,b"

var eventsCSVColumns = strings.Split(eventsCSVHeader, ",")

// WriteEventsCSV exports the tracer's retained events as CSV
// (time_us,kind,core,cell,slot,task,dur_us,a,b) in emission order. Like
// WriteChromeTrace it walks the ring in place and streams its rows through
// one fixed buffer.
func (t *Tracer) WriteEventsCSV(w io.Writer) error {
	s := newStream(w)
	s.b = append(s.b, eventsCSVHeader+"\n"...)
	older, newer := t.ring()
	for _, events := range [2][]Event{older, newer} {
		for i := range events {
			s.b = appendEventCSV(s.b, &events[i])
			if err := s.endRecord(); err != nil {
				return err
			}
		}
	}
	return s.flush()
}

// appendEventCSV appends one events-CSV row.
func appendEventCSV(b []byte, ev *Event) []byte {
	b = append(appendCSVFloat(b, ev.At.Us()), ',')
	b = append(append(b, ev.Kind.String()...), ',')
	b = append(strconv.AppendInt(b, int64(ev.Core), 10), ',')
	b = append(strconv.AppendInt(b, int64(ev.Cell), 10), ',')
	b = append(strconv.AppendInt(b, int64(ev.Slot), 10), ',')
	b = append(strconv.AppendInt(b, int64(ev.Task), 10), ',')
	b = append(appendCSVFloat(b, ev.Dur.Us()), ',')
	b = append(strconv.AppendInt(b, ev.A, 10), ',')
	return append(strconv.AppendInt(b, ev.B, 10), '\n')
}

// maxCSVTime bounds the times ReadEventsCSV accepts: ±2^51 ns, about 26
// simulated days. Within it a whole-nanosecond time survives the trip
// through its shortest float64 microsecond form and back; from 2^51 ns on,
// round(us*1000) can land a nanosecond off, and past ±2^63 ns the
// conversion to sim.Time has no defined result.
const maxCSVTime = 1 << 51

// ReadEventsCSV parses the WriteEventsCSV format back into events, so a
// trace captured by one binary can be autopsied by another. Timestamps
// round-trip exactly: WriteEventsCSV emits shortest-round-trip floats of
// whole-nanosecond times, so round(us*1000) recovers the original ns for
// every time within ±2^51 ns. A time that is not finite or lies outside
// that range is an error naming its line and column, as is any other field
// that does not parse.
func ReadEventsCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(eventsCSVColumns)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("events csv: %w", err)
	}
	if strings.Join(header, ",") != eventsCSVHeader {
		return nil, fmt.Errorf("events csv: unrecognised header %q", header)
	}
	var out []Event
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("events csv: %w", err)
		}
		ev, col, err := parseEventRow(rec)
		if err != nil {
			line, _ := cr.FieldPos(col)
			return nil, fmt.Errorf("events csv line %d: %s: %w", line, eventsCSVColumns[col], err)
		}
		out = append(out, ev)
	}
}

// parseEventRow decodes one events-CSV row; on failure it also returns the
// column at fault.
func parseEventRow(rec []string) (ev Event, col int, err error) {
	if ev.At, err = parseCSVTime(rec[0]); err != nil {
		return ev, 0, err
	}
	var ok bool
	if ev.Kind, ok = ParseEventKind(rec[1]); !ok {
		return ev, 1, fmt.Errorf("unknown kind %q", rec[1])
	}
	for i, dst := range [...]*int32{&ev.Core, &ev.Cell, &ev.Slot, &ev.Task} {
		v, err := strconv.ParseInt(rec[2+i], 10, 32)
		if err != nil {
			return ev, 2 + i, err
		}
		*dst = int32(v)
	}
	if ev.Dur, err = parseCSVTime(rec[6]); err != nil {
		return ev, 6, err
	}
	for i, dst := range [...]*int64{&ev.A, &ev.B} {
		if *dst, err = strconv.ParseInt(rec[7+i], 10, 64); err != nil {
			return ev, 7 + i, err
		}
	}
	return ev, 0, nil
}

// parseCSVTime reads a time in microseconds as whole nanoseconds.
func parseCSVTime(s string) (sim.Time, error) {
	us, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	ns := math.Round(us * 1000)
	if !(math.Abs(ns) <= maxCSVTime) { // also false for NaN
		return 0, fmt.Errorf("%q is not a finite time within +-2^51 ns", s)
	}
	return sim.Time(ns), nil
}

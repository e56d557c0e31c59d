package telemetry

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"concordia/internal/sim"
)

// formatFloat renders v with the shortest round-trip representation, the
// same formatting encoding/json uses, so CSV and JSON exports of the same
// value agree byte-for-byte.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
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
		bw.WriteString(formatFloat(row.at.Us()))
		for _, name := range names {
			bw.WriteByte(',')
			if v, ok := row.vals[name]; ok {
				bw.WriteString(formatFloat(v))
			}
		}
		bw.WriteByte('\n')
	})
	return bw.Flush()
}

// WriteEventsCSV exports the tracer's retained events as CSV
// (time_us,kind,core,cell,slot,task,dur_us,a,b) in emission order.
func (t *Tracer) WriteEventsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("time_us,kind,core,cell,slot,task,dur_us,a,b\n")
	for _, ev := range t.Events() {
		bw.WriteString(formatFloat(ev.At.Us()))
		bw.WriteByte(',')
		bw.WriteString(ev.Kind.String())
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(int64(ev.Core), 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(int64(ev.Cell), 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(int64(ev.Slot), 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(int64(ev.Task), 10))
		bw.WriteByte(',')
		bw.WriteString(formatFloat(ev.Dur.Us()))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(ev.A, 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(ev.B, 10))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadEventsCSV parses the WriteEventsCSV format back into events, so a
// trace captured by one binary can be autopsied by another. Timestamps
// round-trip exactly: WriteEventsCSV emits shortest-round-trip floats of
// whole-nanosecond times, so round(us*1000) recovers the original ns.
func ReadEventsCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 9
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("events csv: %w", err)
	}
	if header[0] != "time_us" || header[1] != "kind" {
		return nil, fmt.Errorf("events csv: unrecognised header %q", header)
	}
	usToTime := func(s string) (sim.Time, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		return sim.Time(math.Round(v * 1000)), nil
	}
	i32 := func(s string) (int32, error) {
		v, err := strconv.ParseInt(s, 10, 32)
		return int32(v), err
	}
	var out []Event
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("events csv: %w", err)
		}
		var ev Event
		var ok bool
		if ev.Kind, ok = ParseEventKind(rec[1]); !ok {
			return nil, fmt.Errorf("events csv line %d: unknown kind %q", line, rec[1])
		}
		if ev.At, err = usToTime(rec[0]); err == nil {
			ev.Core, err = i32(rec[2])
		}
		if err == nil {
			ev.Cell, err = i32(rec[3])
		}
		if err == nil {
			ev.Slot, err = i32(rec[4])
		}
		if err == nil {
			ev.Task, err = i32(rec[5])
		}
		if err == nil {
			ev.Dur, err = usToTime(rec[6])
		}
		if err == nil {
			ev.A, err = strconv.ParseInt(rec[7], 10, 64)
		}
		if err == nil {
			ev.B, err = strconv.ParseInt(rec[8], 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("events csv line %d: %w", line, err)
		}
		out = append(out, ev)
	}
}

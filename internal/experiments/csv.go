package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Tabular is implemented by results that can export their data series for
// plotting (the figures' raw points, as opposed to the rendered text
// tables).
type Tabular interface {
	// CSV returns a header and data rows.
	CSV() (header []string, rows [][]string)
}

// WriteCSV renders an experiment result's raw series as CSV. A result that
// does not implement Tabular has no CSV form.
func WriteCSV(res fmt.Stringer, w io.Writer) error {
	t, ok := res.(Tabular)
	if !ok {
		return fmt.Errorf("experiments: %T has no CSV form", res)
	}
	cw := csv.NewWriter(w)
	header, rows := t.CSV()
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func d(v int) string     { return strconv.Itoa(v) }

// CSV implements Tabular for Fig 3.
func (r *Fig3Result) CSV() ([]string, [][]string) {
	header := []string{"kb", "cdf"}
	var rows [][]string
	for _, kb := range []float64{0, 0.5, 1, 2, 3, 4} {
		rows = append(rows, []string{f(kb), f(r.CDFPoints[kb])})
	}
	return header, rows
}

// CSV implements Tabular for Fig 8a.
func (r *Fig8aResult) CSV() ([]string, [][]string) {
	header := []string{"load", "config", "reclaimed", "upper_bound", "reliability"}
	var rows [][]string
	for _, p := range r.Points100MHz {
		rows = append(rows, []string{f(p.Load), "100mhz", f(p.Reclaimed), f(p.UpperBound), f(p.Reliable)})
	}
	for _, p := range r.Points20MHz {
		rows = append(rows, []string{f(p.Load), "20mhz", f(p.Reclaimed), f(p.UpperBound), f(p.Reliable)})
	}
	return header, rows
}

// CSV implements Tabular for Fig 8b.
func (r *Fig8bResult) CSV() ([]string, [][]string) {
	header := []string{"workload", "load", "achieved", "ideal", "frac_of_ideal", "ran_reliability"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload.String(), f(row.Load), f(row.Achieved), f(row.Ideal),
			f(row.FracOfIdeal), f(row.RANReliable)})
	}
	return header, rows
}

// CSV implements Tabular for Fig 11.
func (r *Fig11Result) CSV() ([]string, [][]string) {
	header := []string{"config", "scheduler", "workload", "median_us", "p9999_us", "p99999_us", "deadline_us", "reliability"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config, string(row.Scheduler), row.Workload.String(),
			f(row.AvgUs), f(row.P9999Us), f(row.P99999Us), f(row.DeadlineUs), f(row.Reliable)})
	}
	return header, rows
}

// CSV implements Tabular for Fig 13.
func (r *Fig13Result) CSV() ([]string, [][]string) {
	header := []string{"load", "reclaim_qdt", "reclaim_pwcet"}
	var rows [][]string
	for i, load := range r.Loads {
		rows = append(rows, []string{f(load), f(r.ReclaimQDT[i]), f(r.ReclaimPWCET[i])})
	}
	return header, rows
}

// CSV implements Tabular for Fig 14.
func (r *Fig14Result) CSV() ([]string, [][]string) {
	header := []string{"scenario", "model", "missed_pct", "avg_err_us"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Scenario, row.Model, f(row.MissedPct), f(row.AvgErrUs)})
	}
	for _, row := range r.FullDAG {
		rows = append(rows, []string{row.Scenario, row.Model, f(row.MissedPct), ""})
	}
	return header, rows
}

// CSV implements Tabular for Fig 15a.
func (r *Fig15aResult) CSV() ([]string, [][]string) {
	header := []string{"cells", "scheduler_us", "predictor_us"}
	var rows [][]string
	for i, c := range r.Cells {
		rows = append(rows, []string{d(c), f(r.SchedulerUs[i]), f(r.PredictorUs[i])})
	}
	return header, rows
}

// CSV implements Tabular for Fig 15b.
func (r *Fig15bResult) CSV() ([]string, [][]string) {
	header := []string{"deadline_us", "p99999_us", "reclaimed"}
	var rows [][]string
	for i := range r.DeadlinesUs {
		rows = append(rows, []string{f(r.DeadlinesUs[i]), f(r.TailUs[i]), f(r.Reclaimed[i])})
	}
	return header, rows
}

// CSV implements Tabular for the ablation.
func (r *AblationResult) CSV() ([]string, [][]string) {
	header := []string{"variant", "reliability", "p9999_us", "reclaimed", "events_per_ms"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant, f(row.Reliability), f(row.P9999Us), f(row.Reclaimed), f(row.EventsPerMs)})
	}
	return header, rows
}

// CSV implements Tabular for Fig 6.
func (r *Fig6Result) CSV() ([]string, [][]string) {
	header := []string{"codeblocks", "cores", "mean_us", "p99_us"}
	var rows [][]string
	for _, cores := range []int{1, 4, 6} {
		for i, cbs := range r.Codeblocks {
			rows = append(rows, []string{d(cbs), d(cores), f(r.MeanUs[cores][i]), f(r.P99Us[cores][i])})
		}
	}
	return header, rows
}

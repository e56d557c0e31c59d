package slo

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"concordia/internal/faults"
	"concordia/internal/sim"
)

// WindowRow is one (window, cell) line of the slo CSV stream. Quantiles
// are sketch estimates in microseconds; burns are the cell's slice burn
// state at that window boundary.
type WindowRow struct {
	Start, End sim.Time
	Window     int32
	Cell       int32
	Server     int32
	Slice      int32
	Attempts   uint64
	Misses     uint64
	P50Us      float64
	P99Us      float64
	P999Us     float64
	SlackP1Us  float64
	FastBurn   float64
	SlowBurn   float64
	Firing     bool
}

// AlertRow is one burn-rate alert transition on the alert timeline.
type AlertRow struct {
	At       sim.Time
	Server   int32
	Slice    int32
	Window   int32
	Firing   bool
	FastBurn float64
	SlowBurn float64
}

// appendRow lands a row in the bounded ring: the oldest row is overwritten
// once rowCapacity is exceeded (and counted), so long fleet runs cannot
// grow the table without bound.
func (t *Tracker) appendRow(r WindowRow) {
	if len(t.rows) < cap(t.rows) {
		t.rows = append(t.rows, r)
		return
	}
	t.rows[t.rowNext] = r
	t.rowNext++
	if t.rowNext == len(t.rows) {
		t.rowNext = 0
	}
	t.rowFull = true
	t.rowsEvicted++
}

// appendAlert lands an alert on the timeline; past alertCapacity new
// transitions are dropped (and counted) — the head of the timeline is the
// interesting part for lead-time analysis.
func (t *Tracker) appendAlert(a AlertRow) {
	if len(t.alerts) < cap(t.alerts) {
		t.alerts = append(t.alerts, a)
		return
	}
	t.alertsDropped++
}

// Rows returns the retained window rows, oldest first.
func (t *Tracker) Rows() []WindowRow {
	if t == nil {
		return nil
	}
	if !t.rowFull {
		return append([]WindowRow(nil), t.rows...)
	}
	out := make([]WindowRow, 0, len(t.rows))
	out = append(out, t.rows[t.rowNext:]...)
	out = append(out, t.rows[:t.rowNext]...)
	return out
}

// RowsEvicted returns how many rows the ring overwrote.
func (t *Tracker) RowsEvicted() uint64 {
	if t == nil {
		return 0
	}
	return t.rowsEvicted
}

// Alerts returns the alert timeline in emission order.
func (t *Tracker) Alerts() []AlertRow {
	if t == nil {
		return nil
	}
	return append([]AlertRow(nil), t.alerts...)
}

// AlertsDropped returns how many alert transitions overflowed the timeline.
func (t *Tracker) AlertsDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.alertsDropped
}

// FirstFiring returns the virtual time of the first firing alert
// transition, and whether one exists.
func (t *Tracker) FirstFiring() (sim.Time, bool) {
	if t == nil {
		return 0, false
	}
	for _, a := range t.alerts {
		if a.Firing {
			return a.At, true
		}
	}
	return 0, false
}

// AlertsFired returns the total number of firing transitions across all
// slices (including any merged in from other trackers).
func (t *Tracker) AlertsFired() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, ss := range t.slices {
		n += ss.alertsFired
	}
	return n
}

// SliceSummary is one slice's run-level SLO accounting.
type SliceSummary struct {
	Slice      int32
	Name       string
	Quantile   float64
	TargetUs   float64
	MissBudget float64
	Attempts   uint64
	Misses     uint64
	MissRate   float64
	// BudgetRemaining is 1 - MissRate/MissBudget: the unconsumed fraction
	// of the error budget (negative when overdrawn).
	BudgetRemaining float64
	// QLatencyUs is the objective quantile of the run-total latency sketch.
	QLatencyUs  float64
	AlertsFired int
	Violations  int
	Windows     int
	Firing      bool
}

// SliceSummaries returns per-slice run totals in slice order.
func (t *Tracker) SliceSummaries() []SliceSummary {
	if t == nil {
		return nil
	}
	out := make([]SliceSummary, 0, len(t.slices))
	for si, ss := range t.slices {
		s := SliceSummary{
			Slice: int32(si), Name: ss.obj.name,
			Quantile: ss.obj.quantile, TargetUs: t.opts.Deadline.Us(),
			MissBudget: ss.obj.missBudget,
			Attempts:   ss.totAttempts, Misses: ss.totMisses,
			AlertsFired: ss.alertsFired, Violations: ss.violations,
			Windows: ss.windows, Firing: ss.firing,
		}
		if ss.totAttempts > 0 {
			s.MissRate = float64(ss.totMisses) / float64(ss.totAttempts)
			s.QLatencyUs = ss.totLat.Quantile(ss.obj.quantile) / 1e3
		}
		s.BudgetRemaining = 1 - s.MissRate/ss.obj.missBudget
		out = append(out, s)
	}
	return out
}

// CellSummary is one key's run-level accounting, used by the health
// report's top-burning-cells table.
type CellSummary struct {
	Key         Key
	Attempts    uint64
	Misses      uint64
	MissRate    float64
	P999Us      float64 // run-total latency p999
	TaskP99Us   float64 // run-total task-runtime p99
	WorstSlack  sim.Time
	FaultMisses [faults.NumClasses + 1]uint64
}

// CellSummaries returns per-key run totals sorted by miss rate descending
// (ties broken by key order) — the health report's burn ranking.
func (t *Tracker) CellSummaries() []CellSummary {
	if t == nil {
		return nil
	}
	out := make([]CellSummary, 0, len(t.keys))
	for _, ks := range t.keys {
		c := CellSummary{
			Key: ks.key, Attempts: ks.totAttempts, Misses: ks.totMisses,
			FaultMisses: ks.faultMisses,
		}
		if ks.totAttempts > 0 {
			c.MissRate = float64(ks.totMisses) / float64(ks.totAttempts)
			c.P999Us = ks.totLat.QuantileUs(0.999)
			c.WorstSlack = t.opts.Deadline - sim.Time(ks.totLat.Max())
		}
		if ks.totTasks > 0 {
			c.TaskP99Us = ks.totTask.QuantileUs(0.99)
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MissRate != out[j].MissRate {
			return out[i].MissRate > out[j].MissRate
		}
		return keyLess(out[i].Key, out[j].Key)
	})
	return out
}

// sloCSVHeader is the slo CSV schema (documented in EXPERIMENTS.md).
const sloCSVHeader = "window_start_us,window_end_us,window,cell,server,slice,attempts,misses,p50_us,p99_us,p999_us,slack_p1_us,fast_burn,slow_burn,firing"

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV streams the retained window rows as CSV, oldest first.
func (t *Tracker) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, sloCSVHeader)
	for _, r := range t.Rows() {
		fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%d\n",
			fmtG(r.Start.Us()), fmtG(r.End.Us()), r.Window, r.Cell, r.Server,
			r.Slice, r.Attempts, r.Misses,
			fmtG(r.P50Us), fmtG(r.P99Us), fmtG(r.P999Us), fmtG(r.SlackP1Us),
			fmtG(r.FastBurn), fmtG(r.SlowBurn), boolTo01(r.Firing))
	}
	return bw.Flush()
}

// WriteHealthReport writes the markdown fleet-health report: per-slice
// budget state, top burning cells, online fault attribution, and the alert
// timeline.
func (t *Tracker) WriteHealthReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# SLO health report")
	fmt.Fprintln(bw)
	if t == nil {
		fmt.Fprintln(bw, "SLO tracking disabled.")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "window %s · burn threshold %s (fast %d / slow %d windows)\n",
		fmtDur(t.opts.Window), fmtG(t.opts.BurnThreshold), fastWindows, slowWindows)
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "## Slices")
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "| slice | objective | target_us | budget | attempts | misses | miss_rate | budget_left | q_latency_us | windows | violations | alerts |")
	fmt.Fprintln(bw, "|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, s := range t.SliceSummaries() {
		fmt.Fprintf(bw, "| %d (%s) | p%s | %s | %s | %d | %d | %s | %s | %s | %d | %d | %d |\n",
			s.Slice, s.Name, fmtG(s.Quantile*100), fmtG(s.TargetUs),
			fmtG(s.MissBudget), s.Attempts, s.Misses, fmtG(s.MissRate),
			fmtG(s.BudgetRemaining), fmtG(s.QLatencyUs),
			s.Windows, s.Violations, s.AlertsFired)
	}
	fmt.Fprintln(bw)

	cells := t.CellSummaries()
	top := cells
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Fprintf(bw, "## Top burning cells (%d of %d)\n", len(top), len(cells))
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "| cell | server | slice | attempts | misses | miss_rate | p999_us | task_p99_us | worst_slack_us |")
	fmt.Fprintln(bw, "|---|---|---|---|---|---|---|---|---|")
	for _, c := range top {
		fmt.Fprintf(bw, "| %d | %d | %d | %d | %d | %s | %s | %s | %s |\n",
			c.Key.Cell, c.Key.Server, c.Key.Slice, c.Attempts, c.Misses,
			fmtG(c.MissRate), fmtG(c.P999Us), fmtG(c.TaskP99Us),
			fmtG(c.WorstSlack.Us()))
	}
	fmt.Fprintln(bw)

	var fm [faults.NumClasses + 1]uint64
	var totalMisses uint64
	for _, c := range cells {
		for i, n := range c.FaultMisses {
			fm[i] += n
		}
		totalMisses += c.Misses
	}
	fmt.Fprintln(bw, "## Miss attribution (online heuristic)")
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "Misses within %s of a fault injection on the same cell are credited to that fault class; the autopsy's post-hoc partition is the ground truth.\n", fmtDur(faultHorizon))
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "| fault_class | misses |")
	fmt.Fprintln(bw, "|---|---|")
	for i := 0; i < faults.NumClasses; i++ {
		if fm[i] > 0 {
			fmt.Fprintf(bw, "| %s | %d |\n", faults.Class(i), fm[i])
		}
	}
	fmt.Fprintf(bw, "| none | %d |\n", fm[faults.NumClasses])
	fmt.Fprintln(bw)

	fmt.Fprintf(bw, "## Alert timeline (%d transitions", len(t.alerts))
	if t.alertsDropped > 0 {
		fmt.Fprintf(bw, ", %d dropped", t.alertsDropped)
	}
	fmt.Fprintln(bw, ")")
	fmt.Fprintln(bw)
	if len(t.alerts) == 0 {
		fmt.Fprintln(bw, "No burn-rate alerts fired.")
	} else {
		fmt.Fprintln(bw, "| t_us | server | slice | window | transition | fast_burn | slow_burn |")
		fmt.Fprintln(bw, "|---|---|---|---|---|---|---|")
		for _, a := range t.alerts {
			tr := "clear"
			if a.Firing {
				tr = "FIRE"
			}
			fmt.Fprintf(bw, "| %s | %d | %d | %d | %s | %s | %s |\n",
				fmtG(a.At.Us()), a.Server, a.Slice, a.Window, tr,
				fmtG(a.FastBurn), fmtG(a.SlowBurn))
		}
	}
	if t.rowsEvicted > 0 {
		fmt.Fprintln(bw)
		fmt.Fprintf(bw, "(%d oldest window rows evicted from the ring)\n", t.rowsEvicted)
	}
	return bw.Flush()
}

func fmtDur(d sim.Time) string { return fmtG(d.Us()) + "us" }

// MergeRemapped folds a flushed per-server tracker into this fleet-level
// one: run totals merge sketch-wise, and window rows and alerts are
// appended with their times shifted by offset. The source already keys its
// streams by global cell ID and stamps its server (Options.Cells and
// Options.Server), so nothing else is remapped. Callers must invoke it
// serially in a fixed (epoch, server) order — the sketches make the fold
// associative, the serial order makes it byte-identical at any worker
// count. Merged trackers share one deadline: the summaries derive slack
// from this tracker's deadline and the merged latency totals.
func (t *Tracker) MergeRemapped(src *Tracker, offset sim.Time) {
	if t == nil || src == nil {
		return
	}
	for _, sk := range src.keys {
		dk := t.key(sk.key)
		dk.totLat.Merge(sk.totLat)
		dk.totTask.Merge(sk.totTask)
		dk.totAttempts += sk.totAttempts
		dk.totMisses += sk.totMisses
		dk.totTasks += sk.totTasks
		for i, n := range sk.faultMisses {
			dk.faultMisses[i] += n
		}
	}
	for si, ss := range src.slices {
		ds := t.slices[si]
		ds.totLat.Merge(ss.totLat)
		ds.totAttempts += ss.totAttempts
		ds.totMisses += ss.totMisses
		ds.alertsFired += ss.alertsFired
		ds.violations += ss.violations
		ds.windows += ss.windows
	}
	for _, r := range src.Rows() {
		r.Start += offset
		r.End += offset
		t.appendRow(r)
	}
	for _, a := range src.alerts {
		a.At += offset
		t.appendAlert(a)
	}
	t.alertsDropped += src.alertsDropped
	t.rowsEvicted += src.rowsEvicted
}

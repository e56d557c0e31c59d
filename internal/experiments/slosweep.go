package experiments

import (
	"fmt"
	"strings"

	"concordia/internal/analysis"
	"concordia/internal/core"
	"concordia/internal/faults"
	"concordia/internal/parallel"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
)

// SLOSweepRow is one (window width, offered load) run of the storm chaos
// scenario with the streaming SLO plane attached: how fast the burn-rate
// alert fired relative to the autopsy-attributed deadline-miss spike.
type SLOSweepRow struct {
	WindowMs float64
	Load     float64
	Spec     string
	DAGs     uint64
	// Misses is the autopsy's attributed miss count (the ground truth the
	// online alert is racing against).
	Misses int
	Alerts int
	// FirstAlertUs is the virtual time of the first firing burn-rate alert
	// (-1 when none fired).
	FirstAlertUs float64
	// SpikeStartUs/SpikeEndUs bound the densest 10 ms bucket of
	// autopsy-attributed misses (-1 when the run had no misses).
	SpikeStartUs float64
	SpikeEndUs   float64
	// LeadUs is SpikeEndUs - FirstAlertUs: positive means the alert fired
	// before the miss spike completed.
	LeadUs float64
	Leads  bool
}

// SLOSweepResult is the streaming-SLO detection-latency study.
type SLOSweepResult struct{ Rows []SLOSweepRow }

// sloSpikeBucket is the histogram bucket used to locate the densest burst
// of autopsy misses.
const sloSpikeBucket = 10 * sim.Millisecond

// sloSweepWindowsMs and sloSweepLoads define the sweep grid; the fault spec
// layers the chaos ladder's high-intensity core-yield storm (sharp miss
// spikes) over a steady WCET-overrun drizzle, so short runs still miss.
var (
	sloSweepWindowsMs = []float64{5, 10, 20}
	sloSweepLoads     = []float64{0.3, 0.6}
)

const sloSweepSpec = "storm=20,overrun=0.1,factor=50"

func sloSweepRun(o Options, windowMs, load float64, dur sim.Time) (SLOSweepRow, error) {
	fc, err := faults.Parse(sloSweepSpec)
	if err != nil {
		return SLOSweepRow{}, err
	}
	rec := telemetry.New(telemetry.Options{})
	cfg := chaosConfig(o)
	cfg.Load = load
	if fc.Enabled() {
		cfg.Faults = &fc
	}
	cfg.Telemetry = rec
	cfg.SLO = &slo.Options{Window: sim.Time(windowMs * float64(sim.Millisecond))}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return SLOSweepRow{}, err
	}
	rep := sys.Run(dur)
	a := analysis.Analyze(rec.Trace.Events(), analysis.Options{
		PoolCores: cfg.PoolCores,
		Deadline:  cfg.Deadline,
	})

	row := SLOSweepRow{
		WindowMs:     windowMs,
		Load:         load,
		Spec:         sloSweepSpec,
		DAGs:         rep.DAGsReleased,
		Misses:       len(a.Misses),
		Alerts:       sys.SLO().AlertsFired(),
		FirstAlertUs: -1,
		SpikeStartUs: -1,
		SpikeEndUs:   -1,
	}
	if at, ok := sys.SLO().FirstFiring(); ok {
		row.FirstAlertUs = at.Us()
	}
	if len(a.Misses) > 0 {
		// Bucket the attributed misses into fixed virtual-time bins and take
		// the densest one; ties break toward the earliest bucket so the
		// result is independent of iteration order.
		nBuckets := int(dur/sloSpikeBucket) + 1
		counts := make([]int, nBuckets)
		for _, m := range a.Misses {
			b := int(m.At / sloSpikeBucket)
			if b >= 0 && b < nBuckets {
				counts[b]++
			}
		}
		best := 0
		for b, c := range counts {
			if c > counts[best] {
				best = b
			}
		}
		row.SpikeStartUs = (sim.Time(best) * sloSpikeBucket).Us()
		row.SpikeEndUs = (sim.Time(best+1) * sloSpikeBucket).Us()
	}
	if row.FirstAlertUs >= 0 && row.SpikeEndUs >= 0 {
		row.LeadUs = row.SpikeEndUs - row.FirstAlertUs
		row.Leads = row.FirstAlertUs < row.SpikeEndUs
	}
	return row, nil
}

// CaptureSLO runs the chaos testbed with telemetry on and the streaming SLO
// plane configured by opts, and returns the finished system, whose SLO
// tracker exports the window-rows CSV and the markdown health report. An
// empty faultsSpec selects the slosweep storm scenario. Both artifacts are
// byte-identical for a fixed seed at any Workers count.
func CaptureSLO(o Options, faultsSpec string, opts slo.Options) (*core.System, error) {
	if faultsSpec == "" {
		faultsSpec = sloSweepSpec
	}
	fc, err := faults.Parse(faultsSpec)
	if err != nil {
		return nil, err
	}
	cfg := chaosConfig(o)
	if fc.Enabled() {
		cfg.Faults = &fc
	}
	cfg.Workers = o.Workers
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	cfg.SLO = &opts
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.Run(o.dur(2 * sim.Second))
	return sys, nil
}

// RunSLOSweep executes the detection-latency sweep: window widths x offered
// loads against the high-intensity storm scenario, reporting for each run
// when the first burn-rate alert fired versus when the autopsy's densest
// miss burst completed. A positive lead means the streaming plane paged
// while the incident was still unfolding — before any post-hoc analysis
// could have seen it.
func RunSLOSweep(o Options) (*SLOSweepResult, error) {
	dur := o.dur(2 * sim.Second)
	type job struct{ windowMs, load float64 }
	var jobs []job
	for _, w := range sloSweepWindowsMs {
		for _, l := range sloSweepLoads {
			jobs = append(jobs, job{w, l})
		}
	}
	rows, err := parallel.Map(o.workers(), len(jobs), func(i int) (SLOSweepRow, error) {
		return sloSweepRun(o, jobs[i].windowMs, jobs[i].load, dur)
	})
	if err != nil {
		return nil, err
	}
	return &SLOSweepResult{Rows: rows}, nil
}

// String implements fmt.Stringer: the detection-latency table.
func (r *SLOSweepResult) String() string {
	var sb strings.Builder
	header(&sb, "SLO sweep: burn-rate alert lead time vs autopsy miss spike")
	fmt.Fprintf(&sb, "%-9s %-5s %-10s %8s %8s %7s %12s %12s %10s %6s\n",
		"window_ms", "load", "spec", "dags", "misses", "alerts",
		"alert_us", "spike_end_us", "lead_us", "leads")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-9g %-5g %-10s %8d %8d %7d %12.0f %12.0f %10.0f %6v\n",
			row.WindowMs, row.Load, row.Spec, row.DAGs, row.Misses, row.Alerts,
			row.FirstAlertUs, row.SpikeEndUs, row.LeadUs, row.Leads)
	}
	sb.WriteString("lead_us > 0: the streaming plane alerted before the densest miss burst was over;\n")
	sb.WriteString("smaller windows page faster at the cost of noisier burn estimates\n")
	return sb.String()
}

// CSV implements Tabular for the SLO sweep.
func (r *SLOSweepResult) CSV() ([]string, [][]string) {
	header := []string{"window_ms", "load", "spec", "dags", "misses", "alerts",
		"first_alert_us", "spike_start_us", "spike_end_us", "lead_us", "leads"}
	var rows [][]string
	for _, row := range r.Rows {
		leads := "0"
		if row.Leads {
			leads = "1"
		}
		rows = append(rows, []string{
			f(row.WindowMs), f(row.Load), row.Spec, fmt.Sprintf("%d", row.DAGs),
			d(row.Misses), d(row.Alerts), f(row.FirstAlertUs),
			f(row.SpikeStartUs), f(row.SpikeEndUs), f(row.LeadUs), leads})
	}
	return header, rows
}

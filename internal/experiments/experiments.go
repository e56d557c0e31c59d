// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2, §6, §7, Appendix A.2) on the simulated platform. Each
// RunXxx function is one experiment: it assembles the relevant scenario,
// runs it, and returns a result struct whose String method prints the same
// rows/series the paper reports.
//
// Durations are scaled by Options.Scale: 1.0 runs experiment-quality
// lengths (tens of simulated seconds to minutes); the test suite and
// benchmarks use small scales for speed. Absolute numbers differ from the
// paper (the substrate is a simulator, not a tuned Xeon running FlexRAN) —
// EXPERIMENTS.md records the paper-vs-measured comparison; the *shape* is
// the reproduction target.
package experiments

import (
	"fmt"
	"strings"

	"concordia/internal/core"
	"concordia/internal/parallel"
	"concordia/internal/sim"
)

// Options controls experiment scale and seeding.
type Options struct {
	// Seed makes every experiment deterministic.
	Seed uint64
	// Scale multiplies simulated durations; 1.0 = full experiment quality,
	// 0.05 = quick smoke runs.
	Scale float64
	// TrainingSlots overrides offline profiling length (0 = default).
	TrainingSlots int
	// Workers bounds the worker goroutines used by RunAll's experiment
	// fan-out and by each experiment's internal sweeps: 0 = runtime.NumCPU(),
	// 1 = fully serial. Every experiment partitions its iteration space into
	// a fixed number of shards with their own RNG substreams, so rendered
	// output is byte-for-byte identical for every setting (experiments that
	// report host wall-clock time — fig15a, calibration — differ only in
	// those timings).
	Workers int
}

// Quick returns reduced settings for tests and smoke runs, sized so the
// whole suite fits Go's default 10-minute package timeout on one core.
func Quick() Options { return Options{Seed: 42, Scale: 0.025, TrainingSlots: 500} }

// LongestBase is the longest simulated duration an experiment scales by
// Options.Scale (fig3's hour of traffic): a -scale at which it overflows a
// sim.Time is refused when the flag is parsed.
const LongestBase = 3600 * sim.Second

func (o Options) dur(base sim.Time) sim.Time {
	if o.Scale <= 0 {
		return base
	}
	d := sim.Time(float64(base) * o.Scale)
	if d < 200*sim.Millisecond {
		d = 200 * sim.Millisecond
	}
	return d
}

func (o Options) training() int {
	if o.TrainingSlots > 0 {
		return o.TrainingSlots
	}
	return core.DefaultTrainingSlots
}

// workers resolves the worker-count knob (0 → NumCPU).
func (o Options) workers() int { return parallel.Count(o.Workers) }

// sampleShards is the fixed shard count for Monte-Carlo sample sweeps. It is
// deliberately independent of the worker count: shard boundaries and the RNG
// substream assigned to each shard depend only on the iteration-space size,
// so the drawn samples are identical no matter how many workers run them.
const sampleShards = 16

// header renders a section banner.
func header(sb *strings.Builder, title string) {
	fmt.Fprintf(sb, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func nines(v float64) string { return fmt.Sprintf("%.5f%%", 100*v) }

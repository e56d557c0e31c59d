// Command perfbench is the repository benchmark. It runs one named workload
// through the public packages (core, fleet, analysis and the System
// exports), checks the simulated outputs, and prints either the end-to-end
// metrics (-trace 0) or the per-layer breakdown of a separate traced run
// (-trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"run_s": {"value": 3.1, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload steady --seed 42 --seconds 20 --trace 0
//
// The benchmark measures from outside the program: it times the calls it
// makes itself, decorates the one injectable seam (the entries of the
// predictor map), and folds a CPU and allocation profile of the traced run
// by package. NOTES.md records each workload's configuration and the layer
// shares measured with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"concordia/internal/rng"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "steady", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the reference digests are recorded for the default")
	seconds := flag.Int("seconds", 20, "how long to repeat the workload, in host seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build", "directory for CPU and allocation profiles")
	spinNs := flag.Int("spin-ns", 0, "busy-wait this many ns in every Predict call (regression-sensitivity test; changes no simulated output)")
	flag.Parse()

	w, ok := workloadByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *spinNs < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if *trace == 1 {
		// Sample allocations finely enough that small layers show up in the
		// folded allocation profile; set before the workload allocates.
		runtime.MemProfileRate = 64 << 10
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		spin: time.Duration(*spinNs), outDir: *out}
	res, err := b.execute(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a benchmark run prints: the result line plus the
// human-readable table before it.
type report struct {
	result
	workload string
	seed     uint64
	reps     []*rep
	lines    []string
}

func (r *report) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  repetitions %d (seed, then its substreams 1..%d)\n",
		r.workload, r.seed, len(r.reps), len(r.reps)-1)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
}

// bench runs one workload's repetitions for the time budget.
type bench struct {
	w      *workload
	seed   uint64
	budget time.Duration
	spin   time.Duration
	outDir string
}

// execute repeats the workload until the time budget is spent, at least
// twice, and reports medians. With traced set it then makes one more,
// traced repetition and reports the per-layer metrics instead.
func (b *bench) execute(traced bool) (*report, error) {
	res := &report{workload: b.w.name, seed: b.seed}
	res.Metrics = map[string]metric{}
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin) < b.budget; i++ {
		// Start every repetition from a collected heap, so one repetition's
		// garbage does not tax the next one's timing.
		runtime.GC()
		var probe *predProbe
		if b.spin > 0 {
			probe = &predProbe{spin: b.spin}
		}
		r, err := b.w.run(subSeed(b.seed, i), probe)
		if err != nil {
			return nil, err
		}
		res.reps = append(res.reps, r)
	}
	var tr *tracedRun
	if traced {
		var err error
		if tr, err = b.traced(); err != nil {
			return nil, err
		}
	}
	b.check(res, tr)
	b.summarize(res, tr)
	return res, nil
}

// subSeed is the seed of repetition i. Repetition 0 runs the run's own
// seed; the others run distinct substreams of it, so a run's median spans
// several inputs instead of repeating one, and the seed-to-seed spread of
// the work the program does shrinks accordingly.
func subSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return rng.SubstreamSeed(seed, uint64(i))
}

// check counts the repetitions whose outputs fail: a broken identity, a
// first repetition whose digest differs from the recorded reference (on
// the default seed), or a traced run that does not reproduce the untraced
// digest of the same seed.
func (b *bench) check(res *report, tr *tracedRun) {
	first := res.reps[0].digest
	ref, haveRef := reference[b.w.name]
	useRef := haveRef && b.seed == defaultSeed
	all := append([]*rep(nil), res.reps...)
	if tr != nil {
		all = append(all, tr.rep)
	}
	for i, r := range all {
		errs := r.errs
		if i == 0 && useRef && r.digest != ref {
			errs = append(errs, fmt.Sprintf("digest %s differs from the reference %s", short(r.digest), short(ref)))
		}
		if i == len(res.reps) && r.digest != first {
			errs = append(errs, fmt.Sprintf("traced digest %s differs from the untraced %s", short(r.digest), short(first)))
		}
		res.Attempted++
		if len(errs) > 0 {
			res.Failed++
			for _, e := range errs {
				res.addf("FAILED rep %d: %s", i, e)
			}
		}
	}
	res.Correct = res.Failed == 0
	if useRef {
		res.addf("digest          %s (reference for seed %d: %s)", first, defaultSeed, match(first == ref))
	} else {
		res.addf("digest          %s (no reference for seed %d; identities checked)", first, b.seed)
	}
}

func match(ok bool) string {
	if ok {
		return "match"
	}
	return "MISMATCH"
}

func short(d string) string {
	if len(d) > 16 {
		return d[:16]
	}
	return d
}

// summarize fills the metrics: the end-to-end ones from the untraced
// repetitions, or the per-layer ones from the traced run.
func (b *bench) summarize(res *report, tr *tracedRun) {
	// Times are process CPU seconds (all threads, user plus system): what
	// a run costs its host. On a shared host they track the work far more
	// steadily than wall time, which also counts time other tenants hold
	// the CPU; wall time is printed beside them.
	var setup, run, alloc, setupWall, runWall []float64
	for _, r := range res.reps {
		setup = append(setup, r.setup.cpu.Seconds())
		run = append(run, r.op.cpu.Seconds())
		alloc = append(alloc, r.setup.allocMB+r.op.allocMB)
		setupWall = append(setupWall, r.setup.wall.Seconds())
		runWall = append(runWall, r.op.wall.Seconds())
	}
	e2e := []struct {
		name, unit string
		value      float64
		note       string
	}{
		{"run_s", "s", median(run), spread(run)},
		{"setup_s", "s", median(setup), spread(setup)},
		{"alloc_mb", "MB", median(alloc), spread(alloc)},
		{"peak_rss_mb", "MB", peakRSSMB(), "process max RSS"},
	}
	for _, m := range e2e {
		res.addf("%-15s %14.6f %-5s %s", m.name, m.value, m.unit, m.note)
		if tr == nil {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	res.addf("%-15s %14.6f %-5s %s", "run_wall_s", median(runWall), "s", spread(runWall))
	res.addf("%-15s %14.6f %-5s %s", "setup_wall_s", median(setupWall), "s", spread(setupWall))
	res.addf("%-15s %s", "run_s each", formatList(run))
	res.addf("%-15s %14.6f %-5s %d of %d repetitions", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), "frac", res.Failed, res.Attempted)
	// The simulated metrics are those of the run's own seed (repetition 0).
	for _, m := range res.reps[0].ran {
		res.addf("%-15s %14s %-5s %s", m.name, m.value, m.unit, m.note)
	}
	if tr == nil {
		return
	}
	// Repetition 0 ran the traced repetition's inputs.
	tr.overhead = tr.rep.op.cpu.Seconds()/res.reps[0].op.cpu.Seconds() - 1
	layers := tr.layerMetrics()
	res.addf("per-layer metrics of the traced run:")
	for _, m := range perLayer {
		res.addf("  %-28s %16.6f %s", m.name, layers[m.name], m.unit)
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	res.addf("CPU share by layer (flat, of %.3f s profiled):", tr.cpuTotal)
	for _, s := range tr.shares() {
		res.addf("  %-28s %6.2f%%", s.layer, 100*s.share)
	}
}

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread describes the repetitions behind a median: their count and range.
func spread(xs []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return fmt.Sprintf("median of %d (min %.4f, max %.4f)", len(xs), lo, hi)
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"concordia/internal/pool"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/sim"
)

// perLayer lists the per-layer metrics a traced run reports, in the order
// BENCHMARK.json names them. Metrics a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"core.profile_cpu_s", "s"},
	{"core.train_cpu_s", "s"},
	{"core.setup_alloc_mb", "MB"},
	{"pool.run_s", "s"},
	{"pool.self_cpu_s", "s"},
	{"pool.ns_per_cell_slot", "ns"},
	{"pool.run_alloc_mb", "MB"},
	{"pool.dags_released", "count"},
	{"pool.tasks_executed", "count"},
	{"pool.dags_dropped", "count"},
	{"pool.queue_delay_avg_us", "us"},
	{"sim.self_cpu_s", "s"},
	{"scheduler.self_cpu_s", "s"},
	{"scheduler.decisions", "count"},
	{"scheduler.core_transitions", "count"},
	{"predictor.predict_calls", "count"},
	{"predictor.predict_ns", "ns/call"},
	{"predictor.observe_calls", "count"},
	{"predictor.observe_ns", "ns/call"},
	{"predictor.self_cpu_s", "s"},
	{"predictor.alloc_mb", "MB"},
	{"stats.self_cpu_s", "s"},
	{"stats.alloc_mb", "MB"},
	{"costmodel.self_cpu_s", "s"},
	{"ran.self_cpu_s", "s"},
	{"traffic.self_cpu_s", "s"},
	{"accel.offload_batches", "count"},
	{"accel.batched_tasks", "count"},
	{"accel.queue_full", "count"},
	{"faults.injected", "count"},
	{"faults.recoveries", "count"},
	{"faults.abandoned_dags", "count"},
	{"telemetry.events_kept", "count"},
	{"telemetry.events_overwritten", "count"},
	{"telemetry.export_s", "s"},
	{"telemetry.export_mb", "MB"},
	{"telemetry.self_cpu_s", "s"},
	{"telemetry.alloc_mb", "MB"},
	{"slo.window_rows", "count"},
	{"slo.alerts_fired", "count"},
	{"slo.export_s", "s"},
	{"slo.self_cpu_s", "s"},
	{"analysis.analyze_s", "s"},
	{"analysis.misses_attributed", "count"},
	{"analysis.alloc_mb", "MB"},
	{"fleet.server_epochs", "count"},
	{"fleet.migrations", "count"},
	{"fleet.rejected_cells", "count"},
	{"fleet.self_cpu_s", "s"},
	{"parallel.core_utilization", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.self_cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// predProbe decorates the entries of a predictor map. Counters are atomic
// because fleet servers call the shared set from Workers goroutines. The
// decorator returns exactly what the wrapped predictor returns, so no
// simulated output changes.
type predProbe struct {
	// spin busy-waits in every Predict call: a synthetic, output-neutral
	// slowdown for checking which regressions the bounds catch.
	spin time.Duration
	// timed records call counts and time spent.
	timed                   bool
	predictCalls, predictNs atomic.Int64
	observeCalls, observeNs atomic.Int64
}

type probedPredictor struct {
	inner predictor.Predictor
	p     *predProbe
}

// wrap decorates every entry of set in place; a nil probe leaves it alone.
func (p *predProbe) wrap(set pool.PredictorSet) {
	if p == nil {
		return
	}
	for kind, inner := range set {
		set[kind] = probedPredictor{inner: inner, p: p}
	}
}

func (w probedPredictor) Predict(f ran.FeatureVector) sim.Time {
	var t0 time.Time
	if w.p.timed {
		t0 = time.Now()
	}
	if w.p.spin > 0 {
		for s := time.Now(); time.Since(s) < w.p.spin; {
		}
	}
	v := w.inner.Predict(f)
	if w.p.timed {
		w.p.predictNs.Add(int64(time.Since(t0)))
		w.p.predictCalls.Add(1)
	}
	return v
}

func (w probedPredictor) Observe(f ran.FeatureVector, took sim.Time) {
	var t0 time.Time
	if w.p.timed {
		t0 = time.Now()
	}
	w.inner.Observe(f, took)
	if w.p.timed {
		w.p.observeNs.Add(int64(time.Since(t0)))
		w.p.observeCalls.Add(1)
	}
}

// tracedRun is one repetition made with the predictor decorator on and
// CPU and allocation profiles recording.
type tracedRun struct {
	rep   *rep
	probe *predProbe
	// Flat and cumulative values by function name: seconds of CPU, and MB
	// allocated during the traced repetition.
	cpuFlat, cpuCum map[string]float64
	allocFlat       map[string]float64
	cpuTotal        float64
	overhead        float64
}

func (b *bench) traced() (*tracedRun, error) {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	path := func(suffix string) string { return filepath.Join(b.outDir, b.w.name+suffix) }
	if err := writeAllocs(path(".allocs0.pprof")); err != nil {
		return nil, err
	}
	f, err := os.Create(path(".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	probe := &predProbe{spin: b.spin, timed: true}
	r, err := b.w.run(b.seed, probe)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := writeAllocs(path(".allocs1.pprof")); err != nil {
		return nil, err
	}
	tr := &tracedRun{rep: r, probe: probe}
	if tr.cpuFlat, tr.cpuCum, err = pprofTop("-unit=ms", path(".cpu.pprof")); err != nil {
		return nil, err
	}
	if tr.allocFlat, _, err = pprofTop("-sample_index=alloc_space", "-unit=MB",
		"-diff_base="+path(".allocs0.pprof"), path(".allocs1.pprof")); err != nil {
		return nil, err
	}
	for fn, ms := range tr.cpuFlat {
		tr.cpuFlat[fn] = ms / 1e3
		tr.cpuTotal += ms / 1e3
	}
	for fn, ms := range tr.cpuCum {
		tr.cpuCum[fn] = ms / 1e3
	}
	return tr, nil
}

// writeAllocs writes the allocation profile as of a fresh GC cycle (the
// profile otherwise lags by up to two cycles).
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pprofTop runs `go tool pprof -top` over a profile and returns the flat and
// cumulative value of every function, in the unit the arguments select.
func pprofTop(args ...string) (flat, cum map[string]float64, err error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof %v: %v: %s", args, err, stderr.String())
	}
	flat, cum = map[string]float64{}, map[string]float64{}
	header := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		fv, err1 := parseQuantity(fields[0])
		cv, err2 := parseQuantity(fields[3])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("go tool pprof: cannot parse %q", line)
		}
		flat[fields[5]] += fv
		cum[fields[5]] = cv
	}
	if !header {
		return nil, nil, fmt.Errorf("go tool pprof %v: no table in output", args)
	}
	return flat, cum, nil
}

// parseQuantity reads a pprof value such as "1230ms" or "12.50MB" as a
// number in the unit pprof printed it in (the -unit argument).
func parseQuantity(s string) (float64, error) {
	end := len(s)
	for end > 0 && (s[end-1] < '0' || s[end-1] > '9') {
		end--
	}
	return strconv.ParseFloat(s[:end], 64)
}

// layerOf maps a profiled function to the layer that owns it: the package
// name under concordia/internal, "runtime" for the Go runtime (including
// its assembly routines, which carry no package prefix), or the package
// path otherwise.
func layerOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime"
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "concordia/internal/"); ok {
		return rest
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}

func byLayer(byFunc map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for fn, v := range byFunc {
		out[layerOf(fn)] += v
	}
	return out
}

type layerShare struct {
	layer string
	share float64
}

// shares returns each layer's share of the profiled CPU time, largest
// first.
func (tr *tracedRun) shares() []layerShare {
	var out []layerShare
	if tr.cpuTotal <= 0 {
		return out
	}
	for layer, v := range byLayer(tr.cpuFlat) {
		out = append(out, layerShare{layer, v / tr.cpuTotal})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].share != out[j].share {
			return out[i].share > out[j].share
		}
		return out[i].layer < out[j].layer
	})
	return out
}

// layerMetrics assembles every per-layer metric of the traced run; a metric
// the workload does not exercise is absent and reads 0.
func (tr *tracedRun) layerMetrics() map[string]float64 {
	v := map[string]float64{}
	for k, x := range tr.rep.layer {
		v[k] = x
	}
	cpu, alloc := byLayer(tr.cpuFlat), byLayer(tr.allocFlat)
	for _, layer := range []string{"pool", "sim", "scheduler", "predictor", "stats", "costmodel", "ran", "traffic", "telemetry", "slo", "fleet", "runtime"} {
		v[layer+".self_cpu_s"] = cpu[layer]
	}
	for _, layer := range []string{"predictor", "stats", "telemetry"} {
		v[layer+".alloc_mb"] = alloc[layer]
	}
	v["core.profile_cpu_s"] = tr.cpuCum["concordia/internal/core.Profile"]
	// Training fans out over parallel.Map, so the work sits under the
	// per-kind closure on the worker goroutines, not under the function.
	for fn, s := range tr.cpuCum {
		if strings.HasPrefix(fn, "concordia/internal/core.TrainPredictorsWorkers") {
			v["core.train_cpu_s"] = math.Max(v["core.train_cpu_s"], s)
		}
	}
	v["core.setup_alloc_mb"] = tr.rep.setup.allocMB
	p := tr.probe
	v["predictor.predict_calls"] = float64(p.predictCalls.Load())
	v["predictor.observe_calls"] = float64(p.observeCalls.Load())
	v["predictor.predict_ns"] = perCall(p.predictNs.Load(), p.predictCalls.Load())
	v["predictor.observe_ns"] = perCall(p.observeNs.Load(), p.observeCalls.Load())
	whole := tr.rep.setup.add(tr.rep.op)
	v["runtime.gc_cycles"] = float64(whole.gcs)
	v["runtime.gc_pause_ms"] = float64(whole.pauseNs) / 1e6
	v["trace.overhead_frac"] = tr.overhead
	return v
}

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

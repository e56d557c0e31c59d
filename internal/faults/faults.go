// Package faults is the deterministic chaos layer: a seeded, virtual-time
// fault injector that provokes the failure modes Concordia's evaluation
// argues the system survives (§4.3 critical-stage escalation, §6.4
// robustness to WCET misprediction) without ever touching the host clock or
// global RNG state.
//
// Determinism contract (DESIGN.md §5b applies here too): every decision is a
// pure function of (seed, fault class, stable identifiers) via
// rng.SubstreamSeed, so the injected schedule is byte-identical for a fixed
// seed regardless of -workers, event-callback ordering, or how often a
// decision point is consulted. Per-event faults (offload failures, task
// overruns, fronthaul lateness) key on (DAG sequence, task ID) or
// (cell, slot); windowed faults (interference bursts, core-yield storms) are
// drawn lazily from a dedicated substream as virtual time advances — legal
// because discrete-event time is monotone, so the window sequence consulted
// is independent of which component asks first.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"concordia/internal/rng"
	"concordia/internal/sim"
)

// Class enumerates the injectable fault classes.
type Class int

// The fault taxonomy. Each class models one way a production vRAN pool
// degrades: device lanes failing DMA, offload requests lost inside the
// accelerator, tasks overrunning their predicted WCET, best-effort neighbours
// suddenly thrashing the cache, the host kernel yanking cores, and fronthaul
// packets arriving late or not at all.
const (
	LaneFailure Class = iota
	StuckOffload
	TaskOverrun
	InterferenceBurst
	YieldStorm
	FronthaulLate
	FronthaulDrop
	DeviceReset
	numClasses
)

// NumClasses is the size of the fault taxonomy, exported for consumers that
// key fixed-size per-class tables (the SLO plane's miss attribution).
const NumClasses = int(numClasses)

var classNames = [numClasses]string{
	"lane_failure", "stuck_offload", "task_overrun", "interference_burst",
	"yield_storm", "fronthaul_late", "fronthaul_drop", "device_reset",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Config sets per-class fault rates and recovery-policy knobs. The zero
// value injects nothing; Enabled reports whether any class is live.
type Config struct {
	// LaneFailure is the probability that one offload submission is rejected
	// by the device (recovered by CPU fallback on the submitting core).
	LaneFailure float64
	// StuckOffload is the probability that one accepted offload request
	// vanishes inside the device and never completes; a virtual-time
	// watchdog (StuckTimeout) detects the loss.
	StuckOffload float64
	// StuckTimeout is the watchdog delay before a stuck offload is declared
	// lost (default 300 µs).
	StuckTimeout sim.Time
	// MaxRetries bounds offload re-submissions after a stuck offload before
	// the task falls back to CPU execution (default 1).
	MaxRetries int
	// RetryBackoff is the base virtual-time backoff before re-queueing a
	// timed-out offload; attempt k waits RetryBackoff << (k-1) (default 50 µs).
	RetryBackoff sim.Time
	// Overrun is the probability that one CPU task execution overruns its
	// sampled runtime by OverrunFactor (default factor 4) — the WCET
	// misprediction that forces critical-stage escalation.
	Overrun       float64
	OverrunFactor float64
	// BurstPerSec is the expected rate of best-effort interference bursts
	// (per simulated second); each burst raises the cache-pressure index by
	// BurstIntensity (default 0.9) for BurstDuration (default 2 ms).
	BurstPerSec    float64
	BurstDuration  sim.Time
	BurstIntensity float64
	// StormPerSec is the expected rate of core-yield storms (per simulated
	// second): for StormDuration (default 1 ms) the host steals StormCores
	// cores (default half the pool) from the RAN.
	StormPerSec   float64
	StormDuration sim.Time
	StormCores    int
	// FronthaulLate is the per-(cell, slot) probability that the slot's
	// fronthaul data arrives LateDelay (default 300 µs) after the TTI
	// boundary; FronthaulDrop is the probability it never arrives.
	FronthaulLate float64
	LateDelay     sim.Time
	FronthaulDrop float64
	// DeviceResetPerSec is the expected per-device rate of whole-device
	// resets (per simulated second): for DeviceResetDuration (default 3 ms)
	// the device rejects every new offload submission while in-flight work
	// drains, and the pool's reconciliation loop re-partitions VF queue
	// depths across the surviving devices.
	DeviceResetPerSec   float64
	DeviceResetDuration sim.Time
}

// Enabled reports whether any fault class has a positive rate.
func (c Config) Enabled() bool {
	return c.LaneFailure > 0 || c.StuckOffload > 0 || c.Overrun > 0 ||
		c.BurstPerSec > 0 || c.StormPerSec > 0 ||
		c.FronthaulLate > 0 || c.FronthaulDrop > 0 ||
		c.DeviceResetPerSec > 0
}

// withDefaults fills unset recovery-policy knobs.
func (c Config) withDefaults() Config {
	if c.StuckTimeout <= 0 {
		c.StuckTimeout = 300 * sim.Microsecond
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * sim.Microsecond
	}
	if c.OverrunFactor <= 1 {
		c.OverrunFactor = 4
	}
	if c.BurstDuration <= 0 {
		c.BurstDuration = 2 * sim.Millisecond
	}
	if c.BurstIntensity <= 0 || c.BurstIntensity > 1 {
		c.BurstIntensity = 0.9
	}
	if c.StormDuration <= 0 {
		c.StormDuration = sim.Millisecond
	}
	if c.LateDelay <= 0 {
		c.LateDelay = 300 * sim.Microsecond
	}
	if c.DeviceResetDuration <= 0 {
		c.DeviceResetDuration = 3 * sim.Millisecond
	}
	return c
}

// Parse builds a Config from a -faults flag spec: a comma-separated list of
// key=value pairs, e.g. "lane=0.05,stuck=0.02,overrun=0.05,factor=6".
// The preset "all" enables a moderate rate for every class. Keys:
//
//	lane, stuck, overrun, burst, storm, late, drop, reset — per-class rates
//	factor       — overrun runtime multiplier
//	retries      — offload retries before CPU fallback
//	timeout-us   — stuck-offload watchdog (µs)
//	backoff-us   — retry backoff base (µs)
//	burst-ms, storm-ms — window durations (ms)
//	intensity    — burst cache-pressure index (0..1]
//	storm-cores  — cores stolen per storm
//	late-us      — fronthaul late-arrival delay (µs)
//	reset-ms     — device-reset outage duration (ms)
func Parse(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	if spec == "all" {
		return Config{
			LaneFailure: 0.02, StuckOffload: 0.01, Overrun: 0.02,
			BurstPerSec: 5, StormPerSec: 2,
			FronthaulLate: 0.01, FronthaulDrop: 0.005,
			DeviceResetPerSec: 1,
		}, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("faults: malformed spec entry %q (want key=value)", kv)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return c, fmt.Errorf("faults: bad value in %q: %v", kv, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return c, fmt.Errorf("faults: non-finite value in %q", kv)
		}
		if v < 0 {
			return c, fmt.Errorf("faults: negative value in %q", kv)
		}
		fits := true
		switch strings.TrimSpace(key) {
		case "lane":
			c.LaneFailure = v
		case "stuck":
			c.StuckOffload = v
		case "overrun":
			c.Overrun = v
		case "factor":
			c.OverrunFactor = v
		case "retries":
			c.MaxRetries, fits = toInt(v)
		case "timeout-us":
			c.StuckTimeout, fits = toTime(v, sim.Microsecond)
		case "backoff-us":
			c.RetryBackoff, fits = toTime(v, sim.Microsecond)
		case "burst":
			c.BurstPerSec = v
		case "burst-ms":
			c.BurstDuration, fits = toTime(v, sim.Millisecond)
		case "intensity":
			c.BurstIntensity = v
		case "storm":
			c.StormPerSec = v
		case "storm-ms":
			c.StormDuration, fits = toTime(v, sim.Millisecond)
		case "storm-cores":
			c.StormCores, fits = toInt(v)
		case "late":
			c.FronthaulLate = v
		case "late-us":
			c.LateDelay, fits = toTime(v, sim.Microsecond)
		case "drop":
			c.FronthaulDrop = v
		case "reset":
			c.DeviceResetPerSec = v
		case "reset-ms":
			c.DeviceResetDuration, fits = toTime(v, sim.Millisecond)
		default:
			return c, fmt.Errorf("faults: unknown spec key %q", key)
		}
		if !fits {
			return c, fmt.Errorf("faults: value in %q overflows its field", kv)
		}
	}
	return c, nil
}

// toInt converts a finite, non-negative spec value to a count; false means
// it does not fit in an int.
func toInt(v float64) (int, bool) {
	if v >= math.MaxInt+1 {
		return 0, false
	}
	return int(v), true
}

// toTime converts a finite, non-negative spec value in the given unit to a
// duration, as sim.FromUs and sim.FromMs do; false means it does not fit in
// a sim.Time.
func toTime(v float64, unit sim.Time) (sim.Time, bool) {
	d := v * float64(unit)
	if d >= math.MaxInt64+1 {
		return 0, false
	}
	return sim.Time(d), true
}

// String renders the config back as a canonical spec (rate keys only, sorted),
// for experiment tables and CSV rows.
func (c Config) String() string {
	parts := map[string]float64{}
	if c.LaneFailure > 0 {
		parts["lane"] = c.LaneFailure
	}
	if c.StuckOffload > 0 {
		parts["stuck"] = c.StuckOffload
	}
	if c.Overrun > 0 {
		parts["overrun"] = c.Overrun
	}
	if c.BurstPerSec > 0 {
		parts["burst"] = c.BurstPerSec
	}
	if c.StormPerSec > 0 {
		parts["storm"] = c.StormPerSec
	}
	if c.FronthaulLate > 0 {
		parts["late"] = c.FronthaulLate
	}
	if c.FronthaulDrop > 0 {
		parts["drop"] = c.FronthaulDrop
	}
	if c.DeviceResetPerSec > 0 {
		parts["reset"] = c.DeviceResetPerSec
	}
	if len(parts) == 0 {
		return "off"
	}
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%g", k, parts[k]))
	}
	return strings.Join(out, ",")
}

// Stats counts injected faults per class. Recovery-side accounting (retries,
// fallbacks, abandons) lives with the component that recovers, not here.
type Stats struct {
	LaneFailures     uint64
	StuckOffloads    uint64
	Overruns         uint64
	Bursts           uint64
	Storms           uint64
	FronthaulLate    uint64
	FronthaulDropped uint64
	DeviceResets     uint64
}

// Total sums all injected faults.
func (s Stats) Total() uint64 {
	return s.LaneFailures + s.StuckOffloads + s.Overruns + s.Bursts +
		s.Storms + s.FronthaulLate + s.FronthaulDropped + s.DeviceResets
}

// Injector makes the per-event fault decisions for one simulation run. All
// methods are nil-receiver safe (a nil *Injector injects nothing), mirroring
// the telemetry disabled-path idiom, so integration sites stay branch-cheap.
//
// The injector is not safe for concurrent use; each simulation owns one, and
// the discrete-event loop is single-threaded by construction.
type Injector struct {
	cfg   Config
	class [numClasses]uint64 // per-class substream seeds
	burst windowGen
	storm windowGen
	// devWins lazily materializes one reset-window generator per device,
	// seeded by (DeviceReset class seed, device ID) so every device draws an
	// independent schedule regardless of query order.
	devWins []windowGen
	stats   Stats
}

// NewInjector builds an injector for one run. Returns nil when the config
// injects nothing, so callers can gate on a simple nil check.
func NewInjector(cfg Config, seed uint64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	in := &Injector{cfg: cfg}
	for c := Class(0); c < numClasses; c++ {
		in.class[c] = rng.SubstreamSeed(seed, uint64(c))
	}
	// Window substreams are pinned to the literal indices they had when the
	// taxonomy was 7 classes wide, so adding a fault class never shifts the
	// burst/storm schedules of existing seeds.
	in.burst = newWindowGen(rng.Substream(seed, 7), cfg.BurstPerSec, cfg.BurstDuration)
	in.storm = newWindowGen(rng.Substream(seed, 8), cfg.StormPerSec, cfg.StormDuration)
	return in
}

// Config returns the effective (defaults-filled) configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// chance is the shared order-independent coin flip: a pure function of the
// injector seed, the fault class, and two stable identifiers.
func (in *Injector) chance(c Class, k1, k2 int64, p float64) bool {
	if p <= 0 {
		return false
	}
	s := rng.SubstreamSeed(in.class[c], uint64(k1))
	s = rng.SubstreamSeed(s, uint64(k2))
	u := float64(s>>11) * (1.0 / (1 << 53))
	return u < p
}

// LaneFails decides whether offload attempt `attempt` of task (dagSeq,
// taskID) is rejected by the device.
func (in *Injector) LaneFails(dagSeq, taskID int64, attempt int) bool {
	if in == nil {
		return false
	}
	if in.chance(LaneFailure, dagSeq, taskID<<8^int64(attempt), in.cfg.LaneFailure) {
		in.stats.LaneFailures++
		return true
	}
	return false
}

// OffloadStuck decides whether offload attempt `attempt` of task (dagSeq,
// taskID) vanishes inside the device.
func (in *Injector) OffloadStuck(dagSeq, taskID int64, attempt int) bool {
	if in == nil {
		return false
	}
	if in.chance(StuckOffload, dagSeq, taskID<<8^int64(attempt), in.cfg.StuckOffload) {
		in.stats.StuckOffloads++
		return true
	}
	return false
}

// Overrun decides whether the CPU execution of task (dagSeq, taskID)
// overruns, returning the runtime multiplier when it does.
func (in *Injector) Overrun(dagSeq, taskID int64) (float64, bool) {
	if in == nil {
		return 1, false
	}
	if in.chance(TaskOverrun, dagSeq, taskID, in.cfg.Overrun) {
		in.stats.Overruns++
		return in.cfg.OverrunFactor, true
	}
	return 1, false
}

// Fronthaul decides the fate of one cell's slot data: dropped entirely, or
// delayed by the returned amount (0 = on time). Dropping wins over lateness.
func (in *Injector) Fronthaul(cell, slot int64) (delay sim.Time, drop bool) {
	if in == nil {
		return 0, false
	}
	if in.chance(FronthaulDrop, cell, slot, in.cfg.FronthaulDrop) {
		in.stats.FronthaulDropped++
		return 0, true
	}
	if in.chance(FronthaulLate, cell, slot, in.cfg.FronthaulLate) {
		in.stats.FronthaulLate++
		return in.cfg.LateDelay, false
	}
	return 0, false
}

// BurstInterference returns the extra cache-pressure index injected at now
// (0 outside bursts). now must be non-decreasing across calls.
func (in *Injector) BurstInterference(now sim.Time) float64 {
	if in == nil {
		return 0
	}
	if in.burst.activeAt(now, &in.stats.Bursts) {
		return in.cfg.BurstIntensity
	}
	return 0
}

// StolenCores returns how many pool cores the host has yanked at now
// (0 outside storms). now must be non-decreasing across calls.
func (in *Injector) StolenCores(now sim.Time, poolCores int) int {
	if in == nil {
		return 0
	}
	if !in.storm.activeAt(now, &in.stats.Storms) {
		return 0
	}
	stolen := in.cfg.StormCores
	if stolen <= 0 {
		stolen = poolCores / 2
	}
	if stolen < 1 {
		stolen = 1
	}
	if stolen > poolCores {
		stolen = poolCores
	}
	return stolen
}

// DeviceDown reports whether accelerator device dev is inside an injected
// reset window at now. Each device draws its own window schedule from a
// dedicated substream, so schedules are independent across devices and of
// query order; now must be non-decreasing per device. The stats counter
// increments once per window entered (one reset event, however often the
// reconciliation loop polls it).
func (in *Injector) DeviceDown(dev int, now sim.Time) bool {
	if in == nil || in.cfg.DeviceResetPerSec <= 0 || dev < 0 {
		return false
	}
	for len(in.devWins) <= dev {
		i := len(in.devWins)
		in.devWins = append(in.devWins, newWindowGen(
			rng.Substream(in.class[DeviceReset], uint64(i)),
			in.cfg.DeviceResetPerSec, in.cfg.DeviceResetDuration))
	}
	return in.devWins[dev].activeAt(now, &in.stats.DeviceResets)
}

// StuckTimeout returns the watchdog delay for stuck offloads.
func (in *Injector) StuckTimeout() sim.Time {
	if in == nil {
		return 0
	}
	return in.cfg.StuckTimeout
}

// MaxRetries returns the bounded offload retry budget.
func (in *Injector) MaxRetries() int {
	if in == nil {
		return 0
	}
	return in.cfg.MaxRetries
}

// Backoff returns the deterministic virtual-time backoff before retry
// attempt k (1-based): base << (k-1), capped at 16× base.
func (in *Injector) Backoff(attempt int) sim.Time {
	if in == nil {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 4 {
		shift = 4
	}
	return in.cfg.RetryBackoff << uint(shift)
}

// Stats returns the injected-fault counts so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// windowGen lazily draws a sequence of active windows (Poisson gaps,
// fixed duration) from its own RNG substream. Queries must come with
// non-decreasing timestamps — guaranteed under discrete-event simulation —
// so the drawn sequence is independent of which component queries first.
type windowGen struct {
	r          *rng.Rand
	perSec     float64
	dur        sim.Time
	start, end sim.Time
	lastEnd    sim.Time
	primed     bool
	entered    bool
}

func newWindowGen(r *rng.Rand, perSec float64, dur sim.Time) windowGen {
	return windowGen{r: r, perSec: perSec, dur: dur}
}

// activeAt reports whether now falls inside a window, incrementing *count
// the first time each window is entered.
func (g *windowGen) activeAt(now sim.Time, count *uint64) bool {
	if g.perSec <= 0 || g.dur <= 0 {
		return false
	}
	for {
		if !g.primed {
			gap := sim.Time(g.r.Exponential(g.perSec) * float64(sim.Second))
			g.start = g.lastEnd + gap
			g.end = g.start + g.dur
			g.primed = true
			g.entered = false
		}
		if now < g.start {
			return false
		}
		if now < g.end {
			if !g.entered {
				g.entered = true
				*count++
			}
			return true
		}
		g.lastEnd = g.end
		g.primed = false
	}
}

package faults

import (
	"strings"
	"testing"

	"concordia/internal/sim"
)

func TestParseSpec(t *testing.T) {
	c, err := Parse("lane=0.05,stuck=0.02,overrun=0.1,factor=6,burst=5,storm=2,late=0.01,drop=0.005,timeout-us=400,retries=2")
	if err != nil {
		t.Fatal(err)
	}
	if c.LaneFailure != 0.05 || c.StuckOffload != 0.02 || c.Overrun != 0.1 {
		t.Fatalf("rates parsed wrong: %+v", c)
	}
	if c.OverrunFactor != 6 || c.MaxRetries != 2 {
		t.Fatalf("knobs parsed wrong: %+v", c)
	}
	if c.StuckTimeout != sim.FromUs(400) {
		t.Fatalf("timeout parsed wrong: %v", c.StuckTimeout)
	}
	if !c.Enabled() {
		t.Fatal("parsed config should be enabled")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"lane", "lane=x", "lane=-1", "bogus=1"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

// Values that are not finite, or that overflow the int or sim.Time field
// they set, are rejected with an error naming the entry rather than
// silently replaced by a default or kept as NaN.
func TestParseRejectsNonFiniteAndOverflow(t *testing.T) {
	for spec, entry := range map[string]string{
		"overrun=0.5,factor=NaN": "factor=NaN",
		"lane=Inf":               "lane=Inf",
		"burst=+Inf":             "burst=+Inf",
		"intensity=-Inf":         "intensity=-Inf",
		"retries=NaN":            "retries=NaN",
		"retries=1e300":          "retries=1e300",
		"storm-cores=1e300":      "storm-cores=1e300",
		"timeout-us=1e300":       "timeout-us=1e300",
		"backoff-us=1e16":        "backoff-us=1e16",
		"late-us=1e300":          "late-us=1e300",
		"burst-ms=1e300":         "burst-ms=1e300",
		"storm-ms=1e13":          "storm-ms=1e13",
		"reset-ms=1e300":         "reset-ms=1e300",
		"drop=1e400":             "drop=1e400",
	} {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) should fail", spec)
			continue
		}
		if !strings.Contains(err.Error(), entry) {
			t.Errorf("Parse(%q) error %q does not name %q", spec, err, entry)
		}
	}
	// Large values that still fit parse.
	c, err := Parse("timeout-us=9e15,storm-cores=2e9")
	if err != nil {
		t.Fatal(err)
	}
	if c.StuckTimeout != sim.FromUs(9e15) || c.StormCores != 2e9 {
		t.Fatalf("in-range values parsed wrong: %+v", c)
	}
}

func TestParseEmptyAndAll(t *testing.T) {
	c, err := Parse("")
	if err != nil || c.Enabled() {
		t.Fatalf("empty spec must disable faults: %+v err=%v", c, err)
	}
	c, err = Parse("all")
	if err != nil || !c.Enabled() {
		t.Fatalf("all preset must enable faults: %+v err=%v", c, err)
	}
	if NewInjector(Config{}, 1) != nil {
		t.Fatal("zero config must yield a nil injector")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.LaneFails(1, 2, 0) || in.OffloadStuck(1, 2, 0) {
		t.Fatal("nil injector injected an offload fault")
	}
	if _, ok := in.Overrun(1, 2); ok {
		t.Fatal("nil injector injected an overrun")
	}
	if d, drop := in.Fronthaul(0, 0); d != 0 || drop {
		t.Fatal("nil injector injected a fronthaul fault")
	}
	if in.BurstInterference(sim.Second) != 0 || in.StolenCores(sim.Second, 8) != 0 {
		t.Fatal("nil injector injected a window fault")
	}
	if in.DeviceDown(0, sim.Second) {
		t.Fatal("nil injector injected a device reset")
	}
	if in.Stats().Total() != 0 {
		t.Fatal("nil injector counted faults")
	}
}

// Decisions must be pure functions of (seed, class, identifiers): the same
// query gives the same answer regardless of query order or repetition.
func TestDecisionsOrderIndependent(t *testing.T) {
	cfg := Config{LaneFailure: 0.3, Overrun: 0.3, FronthaulLate: 0.3, FronthaulDrop: 0.1}
	a := NewInjector(cfg, 7)
	b := NewInjector(cfg, 7)
	// Query a forward, b backward; outcomes must match pairwise.
	type key struct{ seq, id int64 }
	keys := make([]key, 0, 200)
	for s := int64(0); s < 20; s++ {
		for i := int64(0); i < 10; i++ {
			keys = append(keys, key{s, i})
		}
	}
	fwd := make(map[key]bool, len(keys))
	for _, k := range keys {
		fwd[k] = a.LaneFails(k.seq, k.id, 0)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if b.LaneFails(k.seq, k.id, 0) != fwd[k] {
			t.Fatalf("lane decision for %+v depends on query order", k)
		}
	}
	// Different seeds must give a different schedule (sanity, not certainty:
	// 200 coin flips at p=0.3 colliding entirely is ~impossible).
	c := NewInjector(cfg, 8)
	same := 0
	for _, k := range keys {
		if c.LaneFails(k.seq, k.id, 0) == fwd[k] {
			same++
		}
	}
	if same == len(keys) {
		t.Fatal("seed does not influence the fault schedule")
	}
}

func TestDecisionRatesApproximate(t *testing.T) {
	in := NewInjector(Config{Overrun: 0.2}, 42)
	hits := 0
	const n = 20000
	for i := int64(0); i < n; i++ {
		if _, ok := in.Overrun(i, i%7); ok {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.17 || got > 0.23 {
		t.Fatalf("overrun rate %f far from configured 0.2", got)
	}
	if in.Stats().Overruns != uint64(hits) {
		t.Fatalf("stats mismatch: %d vs %d", in.Stats().Overruns, hits)
	}
}

func TestWindowsMonotonicAndCounted(t *testing.T) {
	cfg := Config{BurstPerSec: 50, BurstDuration: sim.Millisecond}
	a := NewInjector(cfg, 9)
	b := NewInjector(cfg, 9)
	// Same seed, different query granularity: the active set must agree at
	// shared instants, and each window is counted once.
	coarse := map[sim.Time]bool{}
	for ts := sim.Time(0); ts < 2*sim.Second; ts += 500 * sim.Microsecond {
		coarse[ts] = a.BurstInterference(ts) > 0
	}
	for ts := sim.Time(0); ts < 2*sim.Second; ts += 100 * sim.Microsecond {
		active := b.BurstInterference(ts) > 0
		if want, ok := coarse[ts]; ok && want != active {
			t.Fatalf("window activity at %v differs with query granularity", ts)
		}
	}
	if a.Stats().Bursts == 0 {
		t.Fatal("no bursts generated over 2 s at 50/s")
	}
	if b.Stats().Bursts < a.Stats().Bursts {
		t.Fatalf("finer querying lost windows: %d < %d", b.Stats().Bursts, a.Stats().Bursts)
	}
}

func TestStolenCoresClamped(t *testing.T) {
	in := NewInjector(Config{StormPerSec: 1000, StormDuration: sim.Second, StormCores: 99}, 3)
	// With a storm virtually always active, stolen must clamp to the pool.
	found := false
	for ts := sim.Time(0); ts < sim.Second; ts += 10 * sim.Millisecond {
		if n := in.StolenCores(ts, 6); n > 0 {
			found = true
			if n > 6 {
				t.Fatalf("stole %d cores from a 6-core pool", n)
			}
		}
	}
	if !found {
		t.Fatal("no storm observed at rate 1000/s")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	in := NewInjector(Config{StuckOffload: 0.1}, 1)
	base := in.Backoff(1)
	if base <= 0 {
		t.Fatal("backoff must default positive")
	}
	if in.Backoff(2) != 2*base || in.Backoff(3) != 4*base {
		t.Fatal("backoff must double per attempt")
	}
	if in.Backoff(50) != 16*base {
		t.Fatalf("backoff must cap at 16x base, got %v", in.Backoff(50))
	}
}

func TestConfigStringCanonical(t *testing.T) {
	c, _ := Parse("stuck=0.02,lane=0.05")
	if got := c.String(); got != "lane=0.05,stuck=0.02" {
		t.Fatalf("canonical spec = %q", got)
	}
	if (Config{}).String() != "off" {
		t.Fatal("zero config must render as off")
	}
}

// Device-reset windows must be per-device independent, deterministic, and
// identical regardless of which device is queried first.
func TestDeviceResetWindows(t *testing.T) {
	cfg := Config{DeviceResetPerSec: 200, DeviceResetDuration: 2 * sim.Millisecond}
	a := NewInjector(cfg, 9)
	b := NewInjector(cfg, 9)

	const steps = 4000
	const tick = 250 * sim.Microsecond
	var downA0, downA1 []bool
	for i := 0; i < steps; i++ {
		now := sim.Time(i) * tick
		// a queries device 0 then 1; b queries 1 then 0.
		d0 := a.DeviceDown(0, now)
		d1 := a.DeviceDown(1, now)
		e1 := b.DeviceDown(1, now)
		e0 := b.DeviceDown(0, now)
		if d0 != e0 || d1 != e1 {
			t.Fatalf("step %d: query order changed the schedule", i)
		}
		downA0 = append(downA0, d0)
		downA1 = append(downA1, d1)
	}
	if a.Stats().DeviceResets == 0 {
		t.Fatal("no resets observed at rate 200/s over 1s")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	same := true
	for i := range downA0 {
		if downA0[i] != downA1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("devices 0 and 1 drew identical reset schedules")
	}
}

func TestParseDeviceReset(t *testing.T) {
	c, err := Parse("reset=5,reset-ms=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if c.DeviceResetPerSec != 5 || c.DeviceResetDuration != sim.FromMs(1.5) {
		t.Fatalf("parsed %+v", c)
	}
	if !c.Enabled() {
		t.Fatal("reset-only config must enable faults")
	}
	if got := c.String(); got != "reset=5" {
		t.Fatalf("canonical spec = %q", got)
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"concordia/internal/faults"
	"concordia/internal/pool"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// goldenSystemDigest is the sha256 of goldenSystemOutputs for
// goldenSystemConfig. Change it only with a change that is meant to alter
// the system's output.
const goldenSystemDigest = "13a972bd1c98344cb601de8a455646a822961a1d370ce82f6322c01bd94b0091"

// goldenSystemConfig wires every export core.NewSystem owns: the
// instrumented scheduler's counters in the metrics series, the trace with
// its workload spans, and the SLO plane. The pool goldens build pool.Config
// directly and never reach this wiring.
func goldenSystemConfig(t *testing.T) Config {
	t.Helper()
	fc, err := faults.Parse("storm=20,overrun=0.1,factor=50")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Scenario20MHz(2, 4)
	cfg.Workload = workloads.Redis
	cfg.Load = 0.5
	cfg.Seed = 16
	cfg.TrainingSlots = 300
	cfg.Workers = 2
	cfg.UseAccel = true
	cfg.AccelDevices, cfg.AccelVFs, cfg.AccelQueueDepth = 2, 2, 16
	cfg.OffloadBatch = 4
	cfg.DropLateDAGs = true
	cfg.Faults = &fc
	cfg.Telemetry = telemetry.New(telemetry.Options{TraceCapacity: 1 << 20})
	cfg.SLO = &slo.Options{Window: 5 * sim.Millisecond}
	return cfg
}

// goldenSystemOutputs concatenates the report, the per-cell table and every
// System export of one run.
func goldenSystemOutputs(t *testing.T, sys *System, rep *pool.Report) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(rep.String())
	b.WriteString(rep.PerCellString())
	for _, write := range []func() error{
		func() error { return sys.WriteMetricsCSV(&b) },
		func() error { return sys.WriteChromeTrace(&b) },
		func() error { return sys.Telemetry().Trace.WriteEventsCSV(&b) },
		func() error { return sys.WriteSLOCSV(&b) },
		func() error { return sys.WriteSLOReport(&b) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestGoldenSystemOutputs pins the bytes of every export a core.System
// writes, so a change to the telemetry or scheduler wiring in NewSystem
// cannot move the metrics CSV, the trace or the SLO exports unnoticed.
func TestGoldenSystemOutputs(t *testing.T) {
	cfg := goldenSystemConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(sim.Second)
	if n := cfg.Telemetry.Trace.Dropped(); n != 0 {
		t.Fatalf("trace ring overwrote %d events; raise TraceCapacity", n)
	}
	if cfg.Telemetry.Metrics.Counter("sched_critical_escalations").Value() == 0 {
		t.Fatal("no critical escalations: the scenario no longer reaches the escalation counter")
	}
	sum := sha256.Sum256(goldenSystemOutputs(t, sys, rep))
	if got := hex.EncodeToString(sum[:]); got != goldenSystemDigest {
		t.Errorf("system output digest %s, want %s", got, goldenSystemDigest)
	}
}

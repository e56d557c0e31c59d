package pool

import (
	"testing"

	"concordia/internal/accel"
	"concordia/internal/faults"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/workloads"
)

// fleetConfig builds the chaos testbed over a multi-device accelerator: two
// two-engine cards, two VFs each, bounded queue depth.
func fleetConfig(seed uint64, fc *faults.Config) Config {
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, seed)
	cfg.Accel = accel.NewFleet(2, 2, 2, 16, sim.FromUs(18), sim.FromUs(2))
	cfg.Faults = fc
	return cfg
}

func TestDeviceResetGracefulDegradation(t *testing.T) {
	// Frequent whole-device resets: the reconciliation loop must route
	// traffic to survivors, and submissions caught by a fleet-wide outage
	// must fall back to the CPU path — DAGs keep completing throughout.
	fc := &faults.Config{DeviceResetPerSec: 60, DeviceResetDuration: sim.FromMs(3)}
	r := run(t, fleetConfig(21, fc), 2*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("pool wedged under device resets")
	}
	if r.Faults.DeviceResets == 0 {
		t.Fatal("no device resets injected at 60/s over 2s")
	}
	if r.Reliability() < 0.5 {
		t.Fatalf("reliability collapsed under device resets: %f", r.Reliability())
	}
}

func TestDeviceResetDeterministic(t *testing.T) {
	fc := &faults.Config{DeviceResetPerSec: 40, DeviceResetDuration: sim.FromMs(3)}
	a := run(t, fleetConfig(22, fc), 2*sim.Second)
	b := run(t, fleetConfig(22, fc), 2*sim.Second)
	if a.String() != b.String() {
		t.Fatalf("device-reset chaos not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestDeviceResetFullOutageFallsBackToCPU(t *testing.T) {
	// Reset windows so frequent and long the whole fleet is regularly down:
	// ErrDeviceDown submissions must be recovered on the CPU and attributed
	// to the device-reset class.
	fc := &faults.Config{DeviceResetPerSec: 500, DeviceResetDuration: sim.FromMs(5)}
	r := run(t, fleetConfig(23, fc), 2*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("pool wedged with the fleet mostly down")
	}
	if r.Faults.CPUFallbacks == 0 {
		t.Fatal("no CPU fallbacks despite fleet-wide outages")
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	// One single-engine, single-VF card with depth 1: concurrent decode
	// demand must overflow the VF queue and fall back to software without
	// fault injection enabled.
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 24)
	cfg.Accel = accel.NewFleet(1, 1, 1, 1, sim.FromUs(18), sim.FromUs(2))
	cfg.Load = 0.8
	r := run(t, cfg, 2*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("no DAGs completed")
	}
	if r.OffloadQueueFull == 0 {
		t.Fatal("no queue-full rejections on a depth-1 VF under load")
	}
}

func TestOffloadBatchingCoalesces(t *testing.T) {
	cfg := fleetConfig(25, nil)
	cfg.OffloadBatch = 4
	r := run(t, cfg, 2*sim.Second)
	if r.OffloadBatches == 0 || r.BatchedTasks == 0 {
		t.Fatalf("no batches coalesced: %d batches, %d followers",
			r.OffloadBatches, r.BatchedTasks)
	}
	if want := sim.Time(r.BatchedTasks) * cfg.Accel.SubmitCost(); r.SubmitSaved != want {
		t.Fatalf("SubmitSaved %v, want %v (%d followers x %v)",
			r.SubmitSaved, want, r.BatchedTasks, cfg.Accel.SubmitCost())
	}
	// Per-task submission of the same scenario must not report batching.
	solo := fleetConfig(25, nil)
	rSolo := run(t, solo, 2*sim.Second)
	if rSolo.OffloadBatches != 0 || rSolo.SubmitSaved != 0 {
		t.Fatalf("unbatched run reported batching: %+v", rSolo)
	}
	if r.Reliability() < rSolo.Reliability()-0.01 {
		t.Fatalf("batching degraded reliability: %f vs %f",
			r.Reliability(), rSolo.Reliability())
	}
}

func TestOffloadBatchingDeterministic(t *testing.T) {
	cfg := fleetConfig(26, nil)
	cfg.OffloadBatch = 8
	a := run(t, cfg, 2*sim.Second)
	cfg2 := fleetConfig(26, nil)
	cfg2.OffloadBatch = 8
	b := run(t, cfg2, 2*sim.Second)
	if a.String() != b.String() {
		t.Fatalf("batched run not deterministic:\n%s\nvs\n%s", a, b)
	}
}

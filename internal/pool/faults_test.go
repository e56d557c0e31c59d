package pool

import (
	"math"
	"testing"

	"concordia/internal/accel"
	"concordia/internal/faults"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/workloads"
)

// faultConfig builds the accelerated chaos testbed: the fast 20 MHz test
// scenario with the modeled FPGA attached so offload fault classes have a
// path to act on.
func faultConfig(seed uint64, fc *faults.Config) Config {
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, seed)
	cfg.Accel = accel.DefaultFPGA()
	cfg.Faults = fc
	return cfg
}

func TestFaultsDisabledByteIdentical(t *testing.T) {
	// A nil Faults config, a non-nil all-zero config, and the pre-injector
	// configuration shape must all produce byte-identical reports: the
	// injector may not perturb any RNG stream when disabled.
	base := run(t, faultConfig(11, nil), 2*sim.Second).String()
	zero := run(t, faultConfig(11, &faults.Config{}), 2*sim.Second).String()
	if base != zero {
		t.Fatalf("all-zero faults config changed the run:\n%s\nvs\n%s", base, zero)
	}
}

func TestFaultsDeterministicAcrossRuns(t *testing.T) {
	fc := &faults.Config{LaneFailure: 0.1, StuckOffload: 0.05, Overrun: 0.05,
		BurstPerSec: 5, StormPerSec: 2, FronthaulLate: 0.05, FronthaulDrop: 0.02}
	a := run(t, faultConfig(12, fc), 2*sim.Second)
	b := run(t, faultConfig(12, fc), 2*sim.Second)
	if a.String() != b.String() {
		t.Fatalf("chaos run not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a.Faults.Injected() == 0 {
		t.Fatal("no faults injected at these rates")
	}
}

func TestStuckOffloadRecoveryNoWedge(t *testing.T) {
	// Every offload sticks. The watchdog must time each one out, retry with
	// backoff, and pin tasks to the CPU path once the budget is exhausted —
	// the run must still complete DAGs rather than wedging.
	fc := &faults.Config{StuckOffload: 1.0}
	r := run(t, faultConfig(13, fc), 1*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("pool wedged: no DAGs completed with all offloads stuck")
	}
	if r.Faults.OffloadTimeouts == 0 {
		t.Fatal("no watchdog timeouts recorded")
	}
	if r.Faults.OffloadRetries == 0 {
		t.Fatal("no offload retries recorded")
	}
	if r.Faults.CPUFallbacks == 0 {
		t.Fatal("no CPU fallbacks after exhausted retries")
	}
	if r.Faults.StuckOffloads == 0 {
		t.Fatal("injector counted no stuck offloads")
	}
}

func TestLaneFailureFallsBackToCPU(t *testing.T) {
	fc := &faults.Config{LaneFailure: 1.0}
	r := run(t, faultConfig(14, fc), 1*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("no DAGs completed with all lanes failing")
	}
	if r.Faults.LaneFailures == 0 || r.Faults.CPUFallbacks == 0 {
		t.Fatalf("lane failures not recovered: %+v", r.Faults)
	}
	if r.Faults.LaneFailures != r.Faults.CPUFallbacks {
		t.Fatalf("every lane failure must fall back exactly once: %d failures, %d fallbacks",
			r.Faults.LaneFailures, r.Faults.CPUFallbacks)
	}
}

func TestOverrunInflatesTail(t *testing.T) {
	base := run(t, faultConfig(16, nil), 2*sim.Second)
	fc := &faults.Config{Overrun: 0.3, OverrunFactor: 8}
	r := run(t, faultConfig(16, fc), 2*sim.Second)
	if r.Faults.Overruns == 0 {
		t.Fatal("no overruns injected")
	}
	if r.TailLatencyUs(0.9999) <= base.TailLatencyUs(0.9999) {
		t.Fatalf("overruns did not inflate the tail: %v vs baseline %v",
			r.TailLatencyUs(0.9999), base.TailLatencyUs(0.9999))
	}
}

func TestYieldStormShrinksPool(t *testing.T) {
	fc := &faults.Config{StormPerSec: 50, StormDuration: sim.FromMs(5), StormCores: 5}
	r := run(t, faultConfig(17, fc), 2*sim.Second)
	if r.Faults.Storms == 0 {
		t.Fatal("no storms injected")
	}
	if r.DAGsCompleted == 0 {
		t.Fatal("no DAGs completed under core-yield storms")
	}
}

func TestFronthaulDropsAndLateArrivals(t *testing.T) {
	fc := &faults.Config{FronthaulDrop: 0.3, FronthaulLate: 0.3, LateDelay: sim.FromUs(400)}
	base := run(t, faultConfig(18, nil), 2*sim.Second)
	r := run(t, faultConfig(18, fc), 2*sim.Second)
	if r.Faults.FronthaulDropped == 0 || r.Faults.FronthaulLate == 0 {
		t.Fatalf("fronthaul faults not injected: %+v", r.Faults)
	}
	// Dropped cell-slots never release their PHY DAGs.
	if r.DAGsReleased >= base.DAGsReleased {
		t.Fatalf("drops did not reduce released DAGs: %d vs baseline %d",
			r.DAGsReleased, base.DAGsReleased)
	}
	if r.DAGsCompleted == 0 {
		t.Fatal("no DAGs completed under fronthaul faults")
	}
}

func TestAbandonAfterExhaustedRetries(t *testing.T) {
	// Stuck offloads with a long watchdog and no retries: by the time the
	// timeout fires the DAG is past its deadline, so the pool must abandon
	// it (and count it) instead of wedging on unfinished work.
	fc := &faults.Config{
		StuckOffload: 1.0,
		StuckTimeout: sim.FromMs(4), // each watchdog round overshoots the 2 ms deadline
		MaxRetries:   1,
	}
	r := run(t, faultConfig(19, fc), 1*sim.Second)
	if r.Faults.AbandonedDAGs == 0 {
		t.Fatalf("no DAGs abandoned with deadline-overshooting stuck offloads: %+v", r.Faults)
	}
	if r.DAGsDropped == 0 {
		t.Fatal("abandoned DAGs not counted as dropped")
	}
}

func TestWorkloadThroughputNoBestEffortTimeNotNaN(t *testing.T) {
	// Regression: a report whose best-effort core-time is zero used to
	// compute preemptions/0 = NaN and propagate it through the disruption
	// index into the throughput figure.
	cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 20)
	r := newReport(cfg, nil)
	r.workloadCoreSeconds[workloads.Redis] = 10
	r.BestEffortCoreSeconds = 0
	r.Preemptions = 0
	got := r.WorkloadThroughput(workloads.Redis)
	if math.IsNaN(got) {
		t.Fatal("WorkloadThroughput returned NaN for zero best-effort core-time")
	}
	if got <= 0 {
		t.Fatalf("granted core-time must still yield throughput, got %v", got)
	}
}

package analysis

import (
	"testing"

	"concordia/internal/accel"
	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/faults"
	"concordia/internal/fleet"
	"concordia/internal/platform"
	"concordia/internal/pool"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// poolScenarios are the pool's golden scenarios (goldenScenarios in
// internal/pool/golden_test.go), rebuilt here from the pool's exported
// configuration: between them they reach abandonment, lane and
// device-reset fallbacks, fronthaul late and drop, queue-full rejections,
// offload batching, static partitioning, TDD and the MAC extension.
func poolScenarios(t *testing.T) []struct {
	name string
	cfg  func() pool.Config
} {
	all, err := faults.Parse("all")
	if err != nil {
		t.Fatal(err)
	}
	base := func(sched scheduler.Scheduler, wl workloads.Kind, seed uint64) pool.Config {
		model := costmodel.New(seed)
		var schedWl *workloads.Schedule
		if wl != workloads.None {
			schedWl = workloads.NewSchedule(wl, 10*sim.Second, seed)
		}
		return pool.Config{
			Cells: ran.Cells20MHz(2), PoolCores: 6, Scheduler: sched,
			Predict:   pool.OraclePredictors{Model: model, Env: costmodel.Env{PoolCores: 4}, Margin: 1.6},
			CostModel: model, Platform: platform.New(seed + 1), Workload: schedWl,
			Deadline: sim.FromMs(2), Load: 0.3, PeakULBytes: 20000, PeakDLBytes: 47000, Seed: seed,
		}
	}
	withFaults := func(seed uint64, fc *faults.Config, acc *accel.Accelerator) pool.Config {
		cfg := base(scheduler.NewConcordia(), workloads.None, seed)
		cfg.Accel, cfg.Faults = acc, fc
		return cfg
	}
	fpga := func() *accel.Accelerator { return accel.DefaultFPGA() }
	cards := func() *accel.Accelerator { return accel.NewFleet(2, 2, 2, 16, sim.FromUs(18), sim.FromUs(2)) }
	stuck := func(drop bool) func() pool.Config {
		return func() pool.Config {
			cfg := withFaults(61, &faults.Config{StuckOffload: 0.5, StuckTimeout: sim.FromMs(4), MaxRetries: 1}, fpga())
			cfg.DropLateDAGs = drop
			return cfg
		}
	}
	return []struct {
		name string
		cfg  func() pool.Config
	}{
		{"fault-free-redis", func() pool.Config { return base(scheduler.NewConcordia(), workloads.Redis, 23) }},
		{"stuck-abandon", stuck(false)},
		{"stuck-abandon-drop-late", stuck(true)},
		{"lane-fronthaul-storm-overrun", func() pool.Config {
			cfg := withFaults(62, &faults.Config{
				LaneFailure: 0.3, FronthaulLate: 0.1, FronthaulDrop: 0.05, LateDelay: sim.FromUs(1700),
				StormPerSec: 40, StormDuration: sim.FromMs(3), StormCores: 4, Overrun: 0.2, OverrunFactor: 10,
			}, fpga())
			cfg.Load = 0.8
			cfg.DropLateDAGs = true
			return cfg
		}},
		{"device-reset-outages", func() pool.Config {
			return withFaults(63, &faults.Config{DeviceResetPerSec: 500, DeviceResetDuration: sim.FromMs(5)}, cards())
		}},
		{"queue-full-depth1", func() pool.Config {
			cfg := base(scheduler.NewConcordia(), workloads.None, 64)
			cfg.Accel = accel.NewFleet(1, 1, 1, 1, sim.FromUs(18), sim.FromUs(2))
			cfg.Load = 0.8
			return cfg
		}},
		{"batch4-all-faults", func() pool.Config {
			fc := all
			cfg := withFaults(65, &fc, cards())
			cfg.OffloadBatch = 4
			cfg.Load = 0.7
			return cfg
		}},
		{"batch8", func() pool.Config {
			cfg := withFaults(66, nil, accel.NewFleet(2, 2, 2, 2, sim.FromUs(18), sim.FromUs(2)))
			cfg.OffloadBatch = 8
			cfg.Load = 0.7
			return cfg
		}},
		{"flexran-static-redis", func() pool.Config {
			cfg := base(scheduler.FlexRAN{}, workloads.Redis, 67)
			cfg.PoolCores = 2
			cfg.StaticPartition = true
			return cfg
		}},
		{"tdd100-mac-fpga", func() pool.Config {
			model := costmodel.New(68)
			return pool.Config{
				Cells: ran.Cells100MHz(2), PoolCores: 8, Scheduler: scheduler.NewConcordia(),
				Predict:   pool.OraclePredictors{Model: model, Env: costmodel.Env{PoolCores: 4}, Margin: 1.6},
				CostModel: model, Platform: platform.New(69), Deadline: sim.FromMs(1.5), Load: 0.5,
				PeakULBytes: 10000, PeakDLBytes: 94000, Seed: 68, Accel: accel.DefaultFPGA(), IncludeMAC: true,
			}
		}},
	}
}

// runPool runs a pool scenario for 1.5 s with the SLO plane on 5 ms windows
// and a trace ring of the given capacity, and returns the trace and the
// analysis options the pool's callers pass.
func runPool(t *testing.T, cfg pool.Config, capacity int) ([]telemetry.Event, Options) {
	t.Helper()
	rec := telemetry.New(telemetry.Options{TraceCapacity: capacity})
	cfg.Telemetry = rec
	cfg.SLO = slo.New(slo.Options{Window: 5 * sim.Millisecond, Deadline: cfg.Deadline}, rec.Trace)
	p, err := pool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(1500 * sim.Millisecond)
	return rec.Trace.Events(), Options{PoolCores: cfg.PoolCores, Deadline: cfg.Deadline}
}

// sloSweepSpec is the slosweep experiment's storm scenario
// (internal/experiments/slosweep.go).
const sloSweepSpec = "storm=20,overrun=0.1,factor=50"

// runChaos runs the chaos testbed (chaosConfig in
// internal/experiments/chaos.go: four accelerated 20 MHz cells on six
// cores, two accelerator cards, late DAGs dropped) for 200 ms under a
// fault spec, with telemetry and the SLO plane on, as the chaos and
// slosweep experiments capture it.
func runChaos(t *testing.T, spec string) ([]telemetry.Event, Options) {
	t.Helper()
	fc, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Scenario20MHz(4, 6)
	cfg.UseAccel = true
	cfg.AccelDevices, cfg.AccelVFs, cfg.AccelQueueDepth = 2, 2, 16
	cfg.DropLateDAGs = true
	cfg.Seed = 42
	cfg.TrainingSlots = 200
	cfg.Workers = 1
	cfg.Faults = &fc
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	cfg.SLO = &slo.Options{}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200 * sim.Millisecond)
	return cfg.Telemetry.Trace.Events(), Options{PoolCores: cfg.PoolCores, Deadline: cfg.Deadline}
}

// TestAnalyzeMatchesReference compares Analyze with the map-based
// reference on the traces the repository records: every pool golden
// scenario, the chaos testbed under every chaos spec and the slosweep
// storm, a ring that wrapped many times over, and a merged fleet trace,
// whose DAG sequences are (epoch·servers+server+1)<<32 apart. All but the
// long golden traces are analysed twice, with the pool's core count and
// deadline given and inferred. -short keeps a few scenarios and specs.
func TestAnalyzeMatchesReference(t *testing.T) {
	check := func(t *testing.T, events []telemetry.Event, opts Options, infer bool) {
		t.Helper()
		if len(events) == 0 {
			t.Fatal("empty trace")
		}
		checkMatchesReference(t, events, opts)
		if infer {
			checkMatchesReference(t, events, Options{})
		}
	}
	scenarios := poolScenarios(t)
	if testing.Short() {
		scenarios = scenarios[3:5] // lane-fronthaul-storm-overrun, device-reset-outages
	}
	for _, sc := range scenarios {
		t.Run("pool/"+sc.name, func(t *testing.T) {
			events, opts := runPool(t, sc.cfg(), 1<<20)
			check(t, events, opts, false)
		})
	}
	t.Run("pool/wrapped-ring", func(t *testing.T) {
		cfg := poolScenarios(t)[3].cfg() // lane-fronthaul-storm-overrun
		rec := telemetry.New(telemetry.Options{TraceCapacity: 5000})
		cfg.Telemetry = rec
		p, err := pool.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(1500 * sim.Millisecond)
		if rec.Trace.Dropped() < 10*5000 {
			t.Fatalf("the ring overwrote only %d events", rec.Trace.Dropped())
		}
		check(t, rec.Trace.Events(), Options{PoolCores: cfg.PoolCores, Deadline: cfg.Deadline}, true)
	})

	specs := []string{sloSweepSpec,
		"lane=0.02", "lane=0.1", "lane=0.5",
		"stuck=0.01", "stuck=0.05", "stuck=0.2",
		"overrun=0.01,factor=4", "overrun=0.05,factor=4", "overrun=0.2,factor=8",
		"burst=2", "burst=10", "burst=40",
		"storm=1", "storm=5", "storm=20",
		"late=0.02", "late=0.1", "late=0.3",
		"drop=0.02", "drop=0.1", "drop=0.3",
		"reset=5", "reset=20", "reset=60",
	}
	if testing.Short() {
		specs = []string{sloSweepSpec, "stuck=0.2", "late=0.3", "reset=60"}
	}
	for _, spec := range specs {
		t.Run("chaos/"+spec, func(t *testing.T) {
			events, opts := runChaos(t, spec)
			check(t, events, opts, true)
		})
	}

	t.Run("fleet-merged", func(t *testing.T) {
		cfg := fleet.Config{
			Cells: 12, Servers: 3, CoresPerServer: 2, Load: 1,
			Horizon: 60 * sim.Millisecond, Epochs: 4, ForceMigrateEpoch: 2,
			Seed: 7, TrainingSlots: 150, Workers: 1,
			Telemetry: telemetry.New(telemetry.Options{}), SLO: &slo.Options{},
		}
		if _, err := fleet.Run(cfg); err != nil {
			t.Fatal(err)
		}
		events := cfg.Telemetry.Trace.Events()
		misses := 0
		for _, ev := range events {
			if ev.Kind == telemetry.EvDeadlineMiss {
				misses++
			}
		}
		if misses == 0 {
			t.Fatal("the merged fleet trace holds no deadline miss")
		}
		check(t, events, Options{PoolCores: cfg.CoresPerServer}, true)
	})
}

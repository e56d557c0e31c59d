package core

import (
	"math"
	"strings"
	"testing"

	"concordia/internal/costmodel"
	"concordia/internal/pool"
	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/traffic"
	"concordia/internal/workloads"
)

func TestProfileCoversKinds(t *testing.T) {
	model := costmodel.New(1)
	data := Profile(ran.Cells20MHz(2), 300, model, 4, 2)
	for _, kind := range []ran.TaskKind{
		ran.TaskLDPCDecode, ran.TaskLDPCEncode, ran.TaskChannelEstimation,
		ran.TaskEqualization, ran.TaskModulation, ran.TaskPrecoding,
	} {
		if len(data[kind]) < 100 {
			t.Errorf("kind %v has only %d samples", kind, len(data[kind]))
		}
	}
}

func TestTrainPredictorsProducesTrees(t *testing.T) {
	model := costmodel.New(2)
	data := Profile(ran.Cells100MHz(1), 600, model, 4, 3)
	set, err := TrainPredictorsWorkers(data, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) < 6 {
		t.Fatalf("trained only %d predictors", len(set))
	}
	// Predictions must be positive and parameterized for the decode tree.
	var small, large ran.FeatureVector
	small.Set(ran.FCodeblocks, 1)
	small.Set(ran.FSNRdB, 28)
	large.Set(ran.FCodeblocks, 14)
	large.Set(ran.FSNRdB, 2)
	ps := set.Predict(ran.TaskLDPCDecode, small)
	pl := set.Predict(ran.TaskLDPCDecode, large)
	if ps <= 0 || pl <= 0 || ps >= pl {
		t.Fatalf("decode predictions not parameterized: %v vs %v", ps, pl)
	}
}

var trainSink pool.PredictorSet

// BenchmarkTrainPredictors times all of Algorithm 1 on one 20 MHz cell's
// profile at the default length: feature selection and one quantile tree
// for each task kind, on one worker.
func BenchmarkTrainPredictors(b *testing.B) {
	data := Profile(ran.Cells20MHz(1), DefaultTrainingSlots, costmodel.New(1), 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := TrainPredictorsWorkers(data, 1.0, 1)
		if err != nil {
			b.Fatal(err)
		}
		trainSink = set
	}
}

func TestTrainPredictorsEmpty(t *testing.T) {
	if _, err := TrainPredictorsWorkers(nil, 1.0, 0); err == nil {
		t.Fatal("empty training data accepted")
	}
}

func TestUnknownScheduler(t *testing.T) {
	cfg := Scenario20MHz(1, 2)
	cfg.Scheduler = "bogus"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// A zero or negative cell count leaves the presets with no cells, which
// NewSystem and MinimumCores reject with an error rather than a panic.
func TestNoCellsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"20MHz/0", Scenario20MHz(0, 4)},
		{"20MHz/-1", Scenario20MHz(-1, 4)},
		{"100MHz/-1", Scenario100MHz(-1, 4)},
	} {
		if _, err := NewSystem(tc.cfg); err == nil {
			t.Errorf("%s: NewSystem accepted a config with no cells", tc.name)
		}
		if _, err := MinimumCores(tc.cfg, 4, 0.999, sim.FromMs(10)); err == nil {
			t.Errorf("%s: MinimumCores accepted a config with no cells", tc.name)
		}
	}
}

// NewSystem checks the pool configuration and the accelerator shape before
// it profiles and trains: a refused config fails with its own error, and
// TrainingSlots -1, which profiles nothing, shows that no training ran
// first.
func TestNewSystemValidatesBeforeTraining(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*Config)
	}{
		{"load NaN", "pool: load must be in (0,1]", func(c *Config) { c.Load = math.NaN() }},
		{"no cores", "pool: need at least one core", func(c *Config) { c.PoolCores = 0 }},
		{"negative devices", "core: negative AccelDevices -3", func(c *Config) { c.UseAccel, c.AccelDevices = true, -3 }},
		{"negative VFs", "core: negative AccelVFs -1", func(c *Config) { c.UseAccel, c.AccelVFs = true, -1 }},
		{"negative queue depth", "core: negative AccelQueueDepth -5", func(c *Config) { c.UseAccel, c.AccelQueueDepth = true, -5 }},
		{"negative batch", "core: negative OffloadBatch -7", func(c *Config) { c.UseAccel, c.OffloadBatch = true, -7 }},
		{"devices without accel", "core: AccelDevices 3 without UseAccel", func(c *Config) { c.AccelDevices = 3 }},
		{"VFs without accel", "core: AccelVFs 2 without UseAccel", func(c *Config) { c.AccelVFs = 2 }},
		{"queue depth without accel", "core: AccelQueueDepth 4 without UseAccel", func(c *Config) { c.AccelQueueDepth = 4 }},
		{"batch without accel", "core: OffloadBatch 8 without UseAccel", func(c *Config) { c.OffloadBatch = 8 }},
	} {
		cfg := Scenario20MHz(1, 2)
		cfg.TrainingSlots = -1
		tc.edit(&cfg)
		_, err := NewSystem(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSystem error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestEndToEndConcordia(t *testing.T) {
	cfg := Scenario20MHz(2, 6)
	cfg.Workload = workloads.Redis
	cfg.Load = 0.25
	cfg.Seed = 3
	cfg.TrainingSlots = 800
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(4 * sim.Second)
	if rep.DAGsCompleted == 0 {
		t.Fatal("nothing completed")
	}
	if rel := rep.Reliability(); rel < 0.999 {
		t.Fatalf("trained-predictor reliability %.5f too low", rel)
	}
	if rep.ReclaimedFraction() < 0.3 {
		t.Fatalf("reclaimed only %.2f", rep.ReclaimedFraction())
	}
	if len(sys.Predictors) == 0 {
		t.Fatal("no predictors exposed")
	}
}

func TestEndToEndFlexRANUsesPartition(t *testing.T) {
	cfg := Scenario20MHz(2, 4)
	cfg.Scheduler = SchedFlexRAN
	cfg.Workload = workloads.Redis
	cfg.Load = 0.25
	cfg.Seed = 4
	cfg.TrainingSlots = 400
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(2 * sim.Second)
	if rep.DAGsCompleted == 0 {
		t.Fatal("nothing completed")
	}
}

func TestEndToEndAccel(t *testing.T) {
	cfg := Scenario100MHz(1, 3)
	cfg.UseAccel = true
	cfg.Seed = 5
	cfg.TrainingSlots = 400
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(2 * sim.Second)
	if rep.OffloadTimeUL == 0 && rep.OffloadTimeDL == 0 {
		t.Fatal("accelerated system recorded no offload time")
	}
}

func TestShenangoAndUtilizationSystems(t *testing.T) {
	for _, k := range []SchedulerKind{SchedShenango, SchedUtilization} {
		cfg := Scenario20MHz(1, 3)
		cfg.Scheduler = k
		cfg.Seed = 6
		cfg.TrainingSlots = 300
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if rep := sys.Run(sim.Second); rep.DAGsCompleted == 0 {
			t.Fatalf("%v completed nothing", k)
		}
	}
}

func TestMinimumCores(t *testing.T) {
	cfg := Scenario20MHz(2, 0)
	cfg.Load = 0.3
	cfg.Seed = 7
	cfg.TrainingSlots = 300
	n, err := MinimumCores(cfg, 8, 0.999, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 8 {
		t.Fatalf("minimum cores %d out of range", n)
	}
}

func TestDeterministicSystem(t *testing.T) {
	mk := func() uint64 {
		cfg := Scenario20MHz(1, 3)
		cfg.Seed = 8
		cfg.TrainingSlots = 300
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(sim.Second).TasksExecuted
	}
	if mk() != mk() {
		t.Fatal("same seed produced different systems")
	}
}

func TestTraceReplaySystem(t *testing.T) {
	tr, err := traffic.GenerateTrace(traffic.LTEReference(2, 9), 4000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Scenario20MHz(2, 4)
	cfg.ULTrace = tr
	cfg.DLTrace = tr
	cfg.TraceScale = 5
	cfg.Seed = 10
	cfg.TrainingSlots = 400
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(2 * sim.Second)
	if rep.DAGsCompleted == 0 {
		t.Fatal("trace-driven run processed nothing")
	}
	// Same trace + seed is fully deterministic.
	sys2, _ := NewSystem(cfg)
	if rep2 := sys2.Run(2 * sim.Second); rep2.TasksExecuted != rep.TasksExecuted {
		t.Fatal("trace replay not deterministic")
	}
}

func TestMACExtensionSystem(t *testing.T) {
	cfg := Scenario20MHz(2, 4)
	cfg.IncludeMAC = true
	cfg.Load = 0.25
	cfg.Seed = 11
	cfg.TrainingSlots = 500
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(3 * sim.Second)
	// One MAC DAG per cell per slot on top of the traffic-driven PHY DAGs.
	if rep.DAGsCompleted < rep.Slots*2 {
		t.Fatalf("MAC DAGs missing: %d completed for %d slots", rep.DAGsCompleted, rep.Slots)
	}
	if res, ok := rep.TaskRuntimes[ran.TaskMACUplinkSched]; !ok || res.Seen() == 0 {
		t.Fatal("no MAC scheduling tasks executed")
	}
	if rel := rep.Reliability(); rel < 0.999 {
		t.Fatalf("reliability with MAC multiplexed %.5f", rel)
	}
}

func TestAblationToggles(t *testing.T) {
	base := Scenario20MHz(1, 3)
	base.Seed = 12
	base.TrainingSlots = 300
	base.Workload = workloads.Redis
	run := func(ab Ablation) uint64 {
		cfg := base
		cfg.Ablation = ab
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(2 * sim.Second).SchedulingEvents
	}
	full := run(Ablation{})
	noHyst := run(Ablation{NoHysteresis: true})
	if noHyst <= full {
		t.Fatalf("removing hysteresis did not raise events: %d vs %d", noHyst, full)
	}
}

func TestLTESystemEndToEnd(t *testing.T) {
	cfg := Config{
		Cells:       ran.CellsLTE(3),
		PoolCores:   5,
		Scheduler:   SchedConcordia,
		Workload:    workloads.Redis,
		Load:        0.25,
		Deadline:    sim.FromMs(2),
		PeakULBytes: 12000,
		PeakDLBytes: 18000,
		Seed:        13,
	}
	cfg.TrainingSlots = 600
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(3 * sim.Second)
	if rep.DAGsCompleted == 0 {
		t.Fatal("LTE system processed nothing")
	}
	if res, ok := rep.TaskRuntimes[ran.TaskTurboDecode]; !ok || res.Seen() == 0 {
		t.Fatal("no turbo decode tasks executed")
	}
	if rel := rep.Reliability(); rel < 0.999 {
		t.Fatalf("LTE reliability %.5f", rel)
	}
}

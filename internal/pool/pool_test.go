package pool

import (
	"math"
	"testing"

	"concordia/internal/accel"
	"concordia/internal/analysis"
	"concordia/internal/costmodel"
	"concordia/internal/platform"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
	"concordia/internal/traffic"
	"concordia/internal/workloads"
)

// testConfig builds a small 20 MHz scenario that runs fast.
func testConfig(sched scheduler.Scheduler, wl workloads.Kind, seed uint64) Config {
	model := costmodel.New(seed)
	var schedWl *workloads.Schedule
	if wl != workloads.None {
		schedWl = workloads.NewSchedule(wl, 10*sim.Second, seed)
	}
	return Config{
		Cells:       ran.Cells20MHz(2),
		PoolCores:   6,
		Scheduler:   sched,
		Predict:     OraclePredictors{Model: model, Env: costmodel.Env{PoolCores: 4}, Margin: 1.6},
		CostModel:   model,
		Platform:    platform.New(seed + 1),
		Workload:    schedWl,
		Deadline:    sim.FromMs(2),
		Load:        0.3,
		PeakULBytes: 20000,
		PeakDLBytes: 47000,
		Seed:        seed,
	}
}

func run(t *testing.T, cfg Config, d sim.Time) *Report {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(d)
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(scheduler.NewConcordia(), workloads.None, 1)
	cases := []func(*Config){
		func(c *Config) { c.Cells = nil },
		func(c *Config) { c.PoolCores = 0 },
		func(c *Config) { c.Scheduler = nil },
		func(c *Config) { c.CostModel = nil },
		func(c *Config) { c.Platform = nil },
		func(c *Config) { c.Deadline = 0 },
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = math.NaN() },
		func(c *Config) { c.PeakULBytes = 0 },
		func(c *Config) {
			c.Cells = append(ran.Cells20MHz(1), ran.Cells100MHz(1)...)
		},
	}
	for i, mutate := range cases {
		bad := good
		mutate(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunBasicAccounting(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.None, 2), 2*sim.Second)
	if r.Slots == 0 || r.DAGsReleased == 0 || r.TasksExecuted == 0 {
		t.Fatalf("no work simulated: %+v", r)
	}
	if r.DAGsCompleted == 0 {
		t.Fatal("no DAGs completed")
	}
	// Core-time conservation: RAN + best-effort == total.
	total := r.Duration.Seconds() * 6
	sum := r.RANCoreSeconds + r.BestEffortCoreSeconds
	if math.Abs(sum-total)/total > 0.01 {
		t.Fatalf("core-time not conserved: %v + %v != %v",
			r.RANCoreSeconds, r.BestEffortCoreSeconds, total)
	}
	if r.BusyCoreSeconds > r.RANCoreSeconds+1e-9 {
		t.Fatalf("busy %v exceeds owned %v", r.BusyCoreSeconds, r.RANCoreSeconds)
	}
}

func TestConcordiaMeetsDeadlinesIsolated(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.None, 3), 5*sim.Second)
	if rel := r.Reliability(); rel < 0.9999 {
		t.Fatalf("isolated reliability %.5f below 99.99%%", rel)
	}
	if p := r.TailLatencyUs(0.9999); p > 2000 {
		t.Fatalf("isolated p99.99 latency %v µs above deadline", p)
	}
}

func TestConcordiaMeetsDeadlinesUnderRedis(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.Redis, 4), 5*sim.Second)
	if rel := r.Reliability(); rel < 0.999 {
		t.Fatalf("reliability under redis %.5f too low", rel)
	}
	if r.BestEffortCoreSeconds <= 0 {
		t.Fatal("no core-time reclaimed for redis")
	}
	if ops := r.WorkloadThroughput(workloads.Redis); ops <= 0 {
		t.Fatal("redis accumulated no throughput")
	}
}

func TestConcordiaReclaimsAtLowLoad(t *testing.T) {
	cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 5)
	cfg.Load = 0.05
	r := run(t, cfg, 3*sim.Second)
	if f := r.ReclaimedFraction(); f < 0.5 {
		t.Fatalf("low-load reclaim %.2f want > 0.5", f)
	}
	if r.ReclaimedFraction() > r.IdealReclaimable()+1e-9 {
		t.Fatal("reclaim exceeds the ideal bound")
	}
}

func TestFlexRANChurnsMoreThanConcordia(t *testing.T) {
	rc := run(t, testConfig(scheduler.NewConcordia(), workloads.Redis, 6), 3*sim.Second)
	rf := run(t, testConfig(scheduler.FlexRAN{}, workloads.Redis, 6), 3*sim.Second)
	if rf.SchedulingEvents <= rc.SchedulingEvents {
		t.Fatalf("FlexRAN events %d not above Concordia %d (Fig 10 property)",
			rf.SchedulingEvents, rc.SchedulingEvents)
	}
}

func TestFlexRANWorseTailUnderInterference(t *testing.T) {
	// Vanilla FlexRAN runs with its static queue-to-worker core partitioning
	// at the minimum core count (1 core per cell), as in the paper's Fig 4b
	// setup; Concordia gets the same 2-core pool but manages it globally.
	cfgC := testConfig(scheduler.NewConcordia(), workloads.Redis, 7)
	cfgC.PoolCores = 2
	rc := run(t, cfgC, 12*sim.Second)
	cfgF := testConfig(scheduler.FlexRAN{}, workloads.Redis, 7)
	cfgF.PoolCores = 2
	cfgF.StaticPartition = true
	rf := run(t, cfgF, 12*sim.Second)
	// The Fig 11 property: under interference the vanilla scheduler's tail
	// latency blows up (kernel wakeup spikes bind on its thin partitions)
	// while Concordia's 20 µs compensation keeps the tail bounded.
	if rf.TailLatencyUs(0.9999) <= rc.TailLatencyUs(0.9999) {
		t.Fatalf("FlexRAN p99.99 %.0f µs not above Concordia %.0f µs",
			rf.TailLatencyUs(0.9999), rc.TailLatencyUs(0.9999))
	}
	if rc.Reliability() < rf.Reliability() {
		t.Fatalf("Concordia reliability %.6f below FlexRAN %.6f",
			rc.Reliability(), rf.Reliability())
	}
}

func TestOverloadEntersCriticalAndStillBounded(t *testing.T) {
	// Failure injection: drive traffic at full load with few cores; the
	// pool must keep running, misses are recorded, nothing deadlocks.
	cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 8)
	cfg.PoolCores = 1
	cfg.Load = 1.0
	cfg.Deadline = sim.FromUs(700)
	r := run(t, cfg, 2*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("overloaded pool completed nothing")
	}
	if r.Misses == 0 {
		t.Fatal("expected deadline misses under overload")
	}
	if r.Reliability() > 0.9999 {
		t.Fatal("overload cannot achieve five nines on one core")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, testConfig(scheduler.NewConcordia(), workloads.Mix, 9), sim.Second)
	b := run(t, testConfig(scheduler.NewConcordia(), workloads.Mix, 9), sim.Second)
	if a.TasksExecuted != b.TasksExecuted || a.Misses != b.Misses ||
		a.SchedulingEvents != b.SchedulingEvents {
		t.Fatalf("same seed diverged: %d/%d/%d vs %d/%d/%d",
			a.TasksExecuted, a.Misses, a.SchedulingEvents,
			b.TasksExecuted, b.Misses, b.SchedulingEvents)
	}
}

func TestRotationOccurs(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.Redis, 10), 2*sim.Second)
	if r.Rotations == 0 {
		t.Fatal("core rotation never happened")
	}
}

func TestWakeupHistogramPopulated(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.Redis, 12), sim.Second)
	if r.WakeupHistUs.Total() == 0 {
		t.Fatal("no wakeup latencies recorded")
	}
}

func TestTaskRuntimesRecorded(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.None, 13), sim.Second)
	if res, ok := r.TaskRuntimes[ran.TaskLDPCDecode]; !ok || res.Seen() == 0 {
		t.Fatal("decode runtimes not recorded")
	}
}

func TestReportString(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.None, 14), 500*sim.Millisecond)
	if s := r.String(); len(s) < 50 {
		t.Fatalf("report summary too short: %q", s)
	}
}

func TestUtilizationSchedulerRuns(t *testing.T) {
	r := run(t, testConfig(scheduler.NewUtilization(0.6), workloads.Redis, 15), 2*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("utilization scheduler completed nothing")
	}
}

func TestShenangoSchedulerRuns(t *testing.T) {
	r := run(t, testConfig(scheduler.NewShenango(25*sim.Microsecond), workloads.Redis, 16), 2*sim.Second)
	if r.DAGsCompleted == 0 {
		t.Fatal("shenango scheduler completed nothing")
	}
}

func TestMixWorkloadThroughputAttribution(t *testing.T) {
	r := run(t, testConfig(scheduler.NewConcordia(), workloads.Mix, 17), 3*sim.Second)
	var total float64
	for _, k := range workloads.MixMembers {
		total += r.WorkloadCoreSeconds(k)
	}
	if total <= 0 {
		t.Fatal("mix attributed no core time")
	}
	if total > r.BestEffortCoreSeconds+1e-6 {
		t.Fatalf("attributed %v exceeds granted %v", total, r.BestEffortCoreSeconds)
	}
}

func BenchmarkPoolSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, uint64(i))
		p, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Run(sim.Second)
	}
}

func TestAcceleratorOffload(t *testing.T) {
	// §7: with FPGA LDPC offload the CPU share of each uplink slot shrinks
	// and workers' blocking time shows up as makespan > CPU time.
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 20)
	r := run(t, cfg, 2*sim.Second)

	cfgA := testConfig(scheduler.NewConcordia(), workloads.None, 20)
	cfgA.Accel = accel.DefaultFPGA()
	ra := run(t, cfgA, 2*sim.Second)

	if ra.AvgCPUPerDAG(ran.Uplink) >= r.AvgCPUPerDAG(ran.Uplink) {
		t.Fatalf("offload did not reduce UL CPU time: %v vs %v",
			ra.AvgCPUPerDAG(ran.Uplink), r.AvgCPUPerDAG(ran.Uplink))
	}
	if ra.OffloadTimeUL == 0 {
		t.Fatal("no offload time recorded")
	}
	// Total slot time must exceed the non-offloaded CPU time (blocking).
	if ra.AvgMakespanPerDAG(ran.Uplink) <= ra.AvgCPUPerDAG(ran.Uplink) {
		t.Fatal("makespan should exceed CPU time when work is offloaded")
	}
	if ra.Reliability() < 0.999 {
		t.Fatalf("accelerated pool reliability %.5f", ra.Reliability())
	}
}

func TestReplaySourceDrivesPool(t *testing.T) {
	tr := &traffic.Trace{Cells: 2}
	// Alternating busy/idle slots with known volumes.
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			tr.Volumes = append(tr.Volumes, []int{4000, 2000})
		} else {
			tr.Volumes = append(tr.Volumes, []int{0, 0})
		}
	}
	ul, err := traffic.NewReplayer(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := traffic.NewReplayer(tr, 1)
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 30)
	cfg.ULSource = ul
	cfg.DLSource = dl
	r := run(t, cfg, sim.Second)
	// 1000 slots, half idle: DAGs only on busy slots (2 cells × 2 dirs).
	if r.DAGsReleased == 0 || r.DAGsReleased > 2*2*501 {
		t.Fatalf("released %d DAGs for a half-idle trace", r.DAGsReleased)
	}
	if r.DAGsReleased < 1800 {
		t.Fatalf("released only %d DAGs, want ~2000", r.DAGsReleased)
	}
}

func TestReplaySourceCellMismatch(t *testing.T) {
	tr := &traffic.Trace{Cells: 1, Volumes: [][]int{{100}}}
	ul, _ := traffic.NewReplayer(tr, 1)
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 31)
	cfg.ULSource = ul // 1 cell for a 2-cell config
	if _, err := New(cfg); err == nil {
		t.Fatal("undersized trace source accepted")
	}
}

func TestMACDAGsHaveTightDeadlines(t *testing.T) {
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 32)
	cfg.IncludeMAC = true
	r := run(t, cfg, sim.Second)
	if res, ok := r.TaskRuntimes[ran.TaskMACBuild]; !ok || res.Seen() == 0 {
		t.Fatal("MAC build tasks not executed")
	}
	// MAC DAGs release every slot for every cell.
	if r.DAGsReleased < r.Slots*2 {
		t.Fatalf("DAGs %d below MAC floor for %d slots", r.DAGsReleased, r.Slots)
	}
}

func TestUnderpredictionCompensated(t *testing.T) {
	// Failure injection: a predictor that underestimates WCETs by 3x. The
	// paper's point (§6.4): per-task mispredictions are absorbed by the
	// 20 µs re-evaluation, so full-DAG reliability barely degrades.
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 40)
	model := cfg.CostModel
	cfg.Predict = OraclePredictors{Model: model, Env: costmodel.Env{PoolCores: 4}, Margin: 0.33}
	r := run(t, cfg, 5*sim.Second)
	if rel := r.Reliability(); rel < 0.999 {
		t.Fatalf("reliability %.5f with 3x underprediction — compensation failed", rel)
	}
}

func TestOverpredictionCostsReclaim(t *testing.T) {
	// The dual: gross overprediction stays reliable but reserves more cores
	// (the pessimism the parameterized predictor exists to avoid, Fig 13).
	mk := func(margin float64, seed uint64) *Report {
		cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, seed)
		cfg.Predict = OraclePredictors{Model: cfg.CostModel, Env: costmodel.Env{PoolCores: 4}, Margin: margin}
		return run(t, cfg, 3*sim.Second)
	}
	tight := mk(1.3, 41)
	fat := mk(8.0, 41)
	if fat.ReclaimedFraction() >= tight.ReclaimedFraction() {
		t.Fatalf("8x overprediction reclaimed %.3f, not below tight %.3f",
			fat.ReclaimedFraction(), tight.ReclaimedFraction())
	}
	if fat.Reliability() < 0.999 {
		t.Fatalf("overprediction should stay reliable: %.5f", fat.Reliability())
	}
}

func TestDropLateDAGs(t *testing.T) {
	// Overload a 1-core pool; with drop semantics the backlog is shed at
	// each deadline instead of growing without bound.
	mk := func(drop bool) *Report {
		cfg := testConfig(scheduler.NewConcordia(), workloads.None, 45)
		cfg.PoolCores = 1
		cfg.Load = 1.0
		cfg.Deadline = sim.FromUs(700)
		cfg.DropLateDAGs = drop
		return run(t, cfg, 2*sim.Second)
	}
	dropped := mk(true)
	late := mk(false)
	if dropped.DAGsDropped == 0 {
		t.Fatal("overloaded pool dropped nothing")
	}
	if dropped.Misses == 0 {
		t.Fatal("drops must count as misses")
	}
	// With drops, recorded latency is bounded near the deadline; without,
	// the backlog pushes the max far beyond it.
	if late.Latency.Max() <= dropped.Latency.Max() {
		t.Fatalf("run-to-completion max %.0f not above drop-mode max %.0f",
			late.Latency.Max(), dropped.Latency.Max())
	}
	// Accounting stays conserved.
	total := dropped.Duration.Seconds() * 1
	if got := dropped.RANCoreSeconds + dropped.BestEffortCoreSeconds; got < total*0.99 || got > total*1.01 {
		t.Fatalf("core time not conserved under drops: %v vs %v", got, total)
	}
}

func TestDropModeKeepsServingFreshSlots(t *testing.T) {
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 46)
	cfg.PoolCores = 1
	cfg.Load = 1.0
	cfg.Deadline = sim.FromUs(700)
	cfg.DropLateDAGs = true
	r := run(t, cfg, 2*sim.Second)
	// Some slots must still complete in time: dropping sheds the backlog so
	// fresh slots get served.
	if r.Reliability() < 0.2 {
		t.Fatalf("drop mode served almost nothing: reliability %.3f", r.Reliability())
	}
	if r.Reliability() > 0.9999 {
		t.Fatal("1-core overload cannot be this reliable")
	}
}

// BenchmarkPoolRun measures one simulated second of the canonical test pool
// with telemetry disabled (the production default) and enabled, so the
// overhead of the nil-check fast path and of full recording can be compared
// directly (EXPERIMENTS.md records the numbers).
func BenchmarkPoolRun(b *testing.B) {
	for _, mode := range []string{"telemetry=off", "telemetry=on"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 42)
				if mode == "telemetry=on" {
					cfg.Telemetry = telemetry.New(telemetry.Options{})
				}
				p, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = p.Run(sim.Second)
			}
		})
	}
}

// TestTelemetryMatchesReport cross-checks the trace's per-kind event counts
// (which the metrics counters are read from), the SLO plane, the autopsy of
// the event trace and the report over the golden scenarios: all four observe
// the same simulation, so they must agree exactly, and every released DAG
// must be accounted for exactly once.
func TestTelemetryMatchesReport(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			g := runGolden(t, sc)
			rep, m, trc := g.rep, g.rec.Metrics, g.rec.Trace
			for _, c := range []struct {
				kind telemetry.EventKind
				want uint64
				of   string
			}{
				{telemetry.EvDAGRelease, rep.DAGsReleased, "DAGsReleased"},
				{telemetry.EvDAGComplete, rep.DAGsCompleted - rep.DAGsDropped, "DAGsCompleted - DAGsDropped"},
				{telemetry.EvDAGDrop, rep.DAGsDropped, "DAGsDropped"},
				{telemetry.EvDeadlineMiss, rep.Misses, "Misses"},
				{telemetry.EvCoreAcquire, rep.Preemptions, "Preemptions"},
				{telemetry.EvCoreYield, rep.SchedulingEvents - rep.Preemptions, "SchedulingEvents - Preemptions"},
				{telemetry.EvCoreRotate, rep.Rotations, "Rotations"},
			} {
				if got := trc.Emitted(c.kind); got != c.want {
					t.Errorf("%v events %d, report %s %d", c.kind, got, c.of, c.want)
				}
			}
			if inflight := uint64(len(g.pool.dags)); rep.DAGsReleased != rep.DAGsCompleted+inflight {
				t.Errorf("released %d != completed %d + in flight %d", rep.DAGsReleased, rep.DAGsCompleted, inflight)
			}
			var cellDAGs, cellMisses, cellDropped, cellObs uint64
			for _, c := range rep.PerCell {
				cellDAGs += c.DAGs
				cellMisses += c.Misses
				cellDropped += c.Dropped
				cellObs += c.QueueDelayObs
			}
			if cellDAGs != rep.DAGsCompleted || cellMisses != rep.Misses || cellDropped != rep.DAGsDropped {
				t.Errorf("per-cell sums %d/%d/%d, report %d/%d/%d (dags/misses/dropped)",
					cellDAGs, cellMisses, cellDropped, rep.DAGsCompleted, rep.Misses, rep.DAGsDropped)
			}
			if rep.Faults.AbandonedDAGs > rep.DAGsDropped {
				t.Errorf("abandoned %d exceeds dropped %d", rep.Faults.AbandonedDAGs, rep.DAGsDropped)
			}
			total := float64(len(g.pool.cores)) * rep.Duration.Seconds()
			if sum := rep.RANCoreSeconds + rep.BestEffortCoreSeconds; math.Abs(sum-total) > 1e-9*total {
				t.Errorf("core time not conserved: %v + %v != %v", rep.RANCoreSeconds, rep.BestEffortCoreSeconds, total)
			}
			var attempts, misses uint64
			for _, s := range g.slo.SliceSummaries() {
				attempts += s.Attempts
				misses += s.Misses
			}
			if attempts != rep.DAGsCompleted || misses != rep.Misses {
				t.Errorf("SLO attempts/misses %d/%d, report %d/%d", attempts, misses, rep.DAGsCompleted, rep.Misses)
			}
			a := analysis.Analyze(g.rec.Trace.Events(), analysis.Options{PoolCores: len(g.pool.cores), Deadline: g.pool.cfg.Deadline})
			if uint64(a.TotalMisses()) != rep.Misses || !a.PartitionHolds() {
				t.Errorf("autopsy misses %d (partition holds: %v), report %d", a.TotalMisses(), a.PartitionHolds(), rep.Misses)
			}
			if cellObs == 0 {
				t.Error("no queueing delays observed")
			}
			if g.rec.Trace.Len() == 0 {
				t.Fatal("trace recorded no events")
			}
			if m.Samples() == 0 {
				t.Fatal("no metrics samples recorded")
			}
		})
	}
}

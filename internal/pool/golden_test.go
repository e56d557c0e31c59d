package pool

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"concordia/internal/accel"
	"concordia/internal/costmodel"
	"concordia/internal/faults"
	"concordia/internal/platform"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// goldenDuration is the simulated length of every golden scenario.
const goldenDuration = 1500 * sim.Millisecond

// goldenScenario is one pinned pool configuration. Between them the
// scenarios reach the lifecycle branches the repository benchmark never
// runs: abandonment, lane and device-reset fallbacks, fronthaul late/drop,
// queue-full rejections, offload batching, static partitioning, TDD and the
// MAC extension.
type goldenScenario struct {
	name   string
	cfg    func() Config
	digest string // sha256 of goldenOutputs, recorded before the pool refactor
}

func goldenScenarios(t *testing.T) []goldenScenario {
	all, err := faults.Parse("all")
	if err != nil {
		t.Fatal(err)
	}
	stuck := func(drop bool) func() Config {
		return func() Config {
			cfg := faultConfig(61, &faults.Config{
				StuckOffload: 0.5,
				StuckTimeout: sim.FromMs(4), // past the 2 ms deadline: abandon
				MaxRetries:   1,
			})
			cfg.DropLateDAGs = drop
			return cfg
		}
	}
	return []goldenScenario{
		{"fault-free-redis", func() Config {
			return testConfig(scheduler.NewConcordia(), workloads.Redis, 23)
		}, "a8af73f7cf4ac351cb0e528d70a5fa6ad096a500ce57ef82888b01b2791354cd"},
		{"stuck-abandon", stuck(false), "8c07280c6b2c9e7cc96450cf59fcbcdc170f8fd426301eb64a8cae2b16f21bef"},
		{"stuck-abandon-drop-late", stuck(true), "f91b9dcf3066bc652c3d165766bece070412498bd77b3e75da54d80f0ea02ae5"},
		{"lane-fronthaul-storm-overrun", func() Config {
			cfg := faultConfig(62, &faults.Config{
				LaneFailure: 0.3, FronthaulLate: 0.1, FronthaulDrop: 0.05,
				LateDelay:   sim.FromUs(1700), // leaves 300 µs: late DAGs miss
				StormPerSec: 40, StormDuration: sim.FromMs(3), StormCores: 4,
				Overrun: 0.2, OverrunFactor: 10,
			})
			cfg.Load = 0.8
			cfg.DropLateDAGs = true
			return cfg
		}, "c84d8cac8c14f5b524c2b162032659be345d09220ba47f99ebf0cc282f656bc1"},
		{"device-reset-outages", func() Config {
			return fleetConfig(63, &faults.Config{DeviceResetPerSec: 500, DeviceResetDuration: sim.FromMs(5)})
		}, "212cb4f6c11c2aba5a1ea762e071b40be0db37147bce7def7a4b88bcfcc5c28f"},
		{"queue-full-depth1", func() Config {
			cfg := testConfig(scheduler.NewConcordia(), workloads.None, 64)
			cfg.Accel = accel.NewFleet(1, 1, 1, 1, sim.FromUs(18), sim.FromUs(2))
			cfg.Load = 0.8
			return cfg
		}, "42bce562112fdec7ee58cf2ae02bd9d7f178c2c69ebb56fe821875e691a5e615"},
		{"batch4-all-faults", func() Config {
			fc := all
			cfg := fleetConfig(65, &fc)
			cfg.OffloadBatch = 4
			cfg.Load = 0.7
			return cfg
		}, "8305b751a0cb06cc4677874d39f656a17eaa4bde5cdcf8ec0d1764d37d5e17f6"},
		{"batch8", func() Config {
			cfg := fleetConfig(66, nil)
			// Depth-2 VFs cut batches short: partial and refused batches.
			cfg.Accel = accel.NewFleet(2, 2, 2, 2, sim.FromUs(18), sim.FromUs(2))
			cfg.OffloadBatch = 8
			cfg.Load = 0.7
			return cfg
		}, "49927e3e2b4ac481d0570248ec51c7746a61b31ca525c43cec9048dc934238a2"},
		{"flexran-static-redis", func() Config {
			cfg := testConfig(scheduler.FlexRAN{}, workloads.Redis, 67)
			cfg.PoolCores = 2
			cfg.StaticPartition = true
			return cfg
		}, "396d7594913ae3003737bc01790653a12e83d8cd69472e38c50fcad3e44d65bb"},
		{"tdd100-mac-fpga", func() Config {
			model := costmodel.New(68)
			return Config{
				Cells:       ran.Cells100MHz(2),
				PoolCores:   8,
				Scheduler:   scheduler.NewConcordia(),
				Predict:     OraclePredictors{Model: model, Env: costmodel.Env{PoolCores: 4}, Margin: 1.6},
				CostModel:   model,
				Platform:    platform.New(69),
				Deadline:    sim.FromMs(1.5),
				Load:        0.5,
				PeakULBytes: 10000,
				PeakDLBytes: 94000,
				Seed:        68,
				Accel:       accel.DefaultFPGA(),
				IncludeMAC:  true,
			}
		}, "60a7548d93a91ea9cd8ee46de823ae9095a71d386456d525293dde4e528c16f0"},
	}
}

// goldenRun is one finished scenario: the pool (for in-flight state), its
// report, and the attached telemetry and SLO plane.
type goldenRun struct {
	pool *Pool
	rep  *Report
	rec  *telemetry.Recorder
	slo  *slo.Tracker
}

// runGolden runs a scenario with a trace ring that holds the whole run and
// the SLO plane on 5 ms windows.
func runGolden(t *testing.T, sc goldenScenario) goldenRun {
	t.Helper()
	cfg := sc.cfg()
	rec := telemetry.New(telemetry.Options{TraceCapacity: 1 << 20})
	cfg.Telemetry = rec
	cfg.SLO = slo.New(slo.Options{Window: 5 * sim.Millisecond, Deadline: cfg.Deadline}, rec.Trace)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Run(goldenDuration)
	if n := rec.Trace.Dropped(); n != 0 {
		t.Fatalf("%s: trace ring overwrote %d events; raise TraceCapacity", sc.name, n)
	}
	return goldenRun{pool: p, rep: rep, rec: rec, slo: cfg.SLO}
}

// goldenOutputs renders every artifact a run produces. Fault counters are
// printed field by field so a change in FaultStats' layout alone does not
// move the digest.
func goldenOutputs(t *testing.T, g goldenRun) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(g.rep.String())
	b.WriteString(g.rep.PerCellString())
	f := g.rep.Faults
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"LaneFailures", f.LaneFailures},
		{"StuckOffloads", f.StuckOffloads},
		{"Overruns", f.Overruns},
		{"Bursts", f.Bursts},
		{"Storms", f.Storms},
		{"FronthaulLate", f.FronthaulLate},
		{"FronthaulDropped", f.FronthaulDropped},
		{"DeviceResets", f.DeviceResets},
		{"OffloadTimeouts", f.OffloadTimeouts},
		{"OffloadRetries", f.OffloadRetries},
		{"CPUFallbacks", f.CPUFallbacks},
		{"StormYields", f.StormYields},
		{"AbandonedDAGs", f.AbandonedDAGs},
	} {
		fmt.Fprintf(&b, "%s=%d\n", c.name, c.v)
	}
	for _, write := range []func() error{
		func() error { return g.rec.Trace.WriteEventsCSV(&b) },
		func() error { return g.rec.Metrics.WriteMetricsCSV(&b) },
		func() error { return g.slo.WriteCSV(&b) },
		func() error { return g.slo.WriteHealthReport(&b) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestGoldenPoolOutputs pins every artifact of the golden scenarios to the
// digests recorded before the pool's lifecycle paths were merged: a
// refactor of the pool must leave reports, per-cell tables, fault counters,
// the event trace, the metrics series and the SLO exports byte-identical.
func TestGoldenPoolOutputs(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			sum := sha256.Sum256(goldenOutputs(t, runGolden(t, sc)))
			if got := hex.EncodeToString(sum[:]); got != sc.digest {
				t.Errorf("output digest %s, want %s", got, sc.digest)
			}
		})
	}
}

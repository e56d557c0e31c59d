package fleet

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/pool"
	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
	"concordia/internal/traffic"
)

// testPredictors trains one small predictor set shared across the package's
// fleet runs (training dominates test runtime otherwise).
var testPredictors = sync.OnceValue(func() pool.PredictorSet {
	model := costmodel.New(42 ^ 0xc0de)
	data := core.Profile(ran.Cells20MHz(1), 150, model, 4, 42^0x0ff1)
	preds, err := core.TrainPredictorsWorkers(data, 1.0, 0)
	if err != nil {
		panic(err)
	}
	return preds
})

func testConfig() Config {
	return Config{
		Cells: 12, Servers: 3, CoresPerServer: 4,
		Load: 0.4, Horizon: 48 * sim.Millisecond, Epochs: 4,
		Seed: 7, Predictors: testPredictors(),
	}
}

// The fleet's core guarantee: the Workers knob changes wall-clock time and
// nothing else — results and merged telemetry are byte-identical whether
// one goroutine or eight simulate the servers.
func TestFleetWorkerDeterminism(t *testing.T) {
	var baseline *Result
	var baselineCSV []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		cfg.ForceMigrateEpoch = 1
		cfg.Telemetry = telemetry.New(telemetry.Options{})
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := cfg.Telemetry.Trace.WriteEventsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline, baselineCSV = res, csv.Bytes()
			continue
		}
		if !reflect.DeepEqual(baseline, res) {
			t.Errorf("workers=%d result differs:\n%v\nvs baseline\n%v", workers, res, baseline)
		}
		if !bytes.Equal(baselineCSV, csv.Bytes()) {
			t.Errorf("workers=%d merged telemetry differs from workers=1", workers)
		}
	}
	if baseline.DAGs == 0 {
		t.Fatal("fleet simulated no DAGs")
	}
}

// The placement engine must never assign a cell to a server outside its
// fronthaul budget — at admission, after every pressure-driven migration
// round, and under forced migrations. Each server in turn is held at extreme
// pressure for the sustain window, so ObserveEpoch itself must migrate.
func TestPlacementNeverInfeasible(t *testing.T) {
	topo := NewTopology(80, 6, 120*sim.Microsecond, 99)
	p := NewPlacement(topo)
	demand := make([]float64, 80)
	for c := range demand {
		demand[c] = float64(1 + c%7)
	}
	p.AdmitAll(demand)
	check := func(when string) {
		t.Helper()
		for c, s := range p.Assign {
			if s < 0 {
				if topo.FeasibleCount(c) != 0 {
					t.Fatalf("%s: cell %d rejected despite %d feasible servers", when, c, topo.FeasibleCount(c))
				}
				continue
			}
			if !topo.Feasible(c, s) {
				t.Fatalf("%s: cell %d on server %d at %v exceeds budget %v",
					when, c, s, topo.Latency[c][s], topo.Budget)
			}
		}
	}
	check("admission")
	pressure := make([]float64, 6)
	migrated := 0
	for round := 0; round < 6*sustainEpochs; round++ {
		for s := range pressure {
			pressure[s] = 0
			if s == round/sustainEpochs {
				pressure[s] = 5
			}
		}
		migrated += len(p.ObserveEpoch(pressure, demand))
		check("migration round")
		if _, ok := p.ForceMigrate(); ok {
			check("forced migration")
		}
	}
	if migrated == 0 {
		t.Fatal("sustained pressure migrated no cells")
	}
}

// A forced migration must surface everywhere the fleet reports: the
// migration counter, the per-epoch stats, and an EvCellMigrate telemetry
// event carrying the fronthaul latency of the destination.
func TestForcedMigration(t *testing.T) {
	cfg := testConfig()
	cfg.ForceMigrateEpoch = 2
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations < 1 {
		t.Fatalf("forced migration did not happen: %d migrations", res.Migrations)
	}
	if res.Epochs[2].Migrations < 1 {
		t.Fatalf("epoch 2 records no migration: %+v", res.Epochs)
	}
	found := false
	for _, ev := range cfg.Telemetry.Trace.Events() {
		if ev.Kind != telemetry.EvCellMigrate {
			continue
		}
		if ev.A == ev.B || ev.Dur <= 0 {
			t.Fatalf("malformed migrate event: %+v", ev)
		}
		// Natural (pressure-driven) migrations may fire too; the forced one
		// is the epoch-2 event.
		if ev.Slot == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvCellMigrate event for the forced epoch-2 migration")
	}
}

// The static baseline must keep its initial partition for the whole run:
// the same config with a forced migration migrates when pooled and never
// when static.
func TestStaticNeverMigrates(t *testing.T) {
	for _, static := range []bool{false, true} {
		cfg := testConfig()
		cfg.Static = static
		cfg.ForceMigrateEpoch = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if static && res.Migrations != 0 {
			t.Fatalf("static baseline migrated %d cells", res.Migrations)
		}
		if !static && res.Migrations == 0 {
			t.Fatal("pooled run with a forced migration migrated no cells")
		}
	}
}

// A load outside (0, 1], NaN included, is a config error, not a run with
// no traffic.
func TestBadLoadRejected(t *testing.T) {
	for _, load := range []float64{-0.1, 1.5, math.NaN()} {
		cfg := testConfig()
		cfg.Load = load
		if _, err := Run(cfg); err == nil {
			t.Errorf("load %v accepted", load)
		}
	}
}

// A config that can never run is refused by validate, before any trace is
// generated or predictor trained: Predictors is left nil, so a refusal that
// came later would carry training's or the pool's message instead.
func TestInvalidConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"negative cores per server", func(c *Config) { c.CoresPerServer = -1 }, "fleet: -1 cores per server"},
		{"negative training slots", func(c *Config) { c.TrainingSlots = -5 }, "fleet: negative training slot count -5"},
		{"negative fronthaul budget", func(c *Config) { c.FronthaulBudget = -sim.Microsecond }, "fleet: negative fronthaul budget"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Predictors = nil
			tc.edit(&cfg)
			_, err := Run(cfg)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error %v, want one starting %q", err, tc.want)
			}
		})
	}
}

// Every cell out of fronthaul range of every server is an admission error,
// not a silent empty run.
func TestAllCellsOutOfBudget(t *testing.T) {
	cfg := testConfig()
	cfg.FronthaulBudget = 1 * sim.Microsecond // below the base latency floor
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected admission failure with an impossible budget")
	}
}

// The per-slot fleet-coordination path — folding every cell's slot volume
// through the assignment into the demand tracker — must not allocate: it
// runs once per TTI for hundreds of cells.
func TestAccumulateEpochAllocFree(t *testing.T) {
	ul, err := traffic.GenerateScaledTrace(traffic.ScaleSpec{Cells: 200, Seed: 3}, 64)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := traffic.GenerateScaledTrace(traffic.ScaleSpec{Cells: 200, Seed: 4}, 64)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, 200)
	for c := range assign {
		assign[c] = c % 8
		if c%37 == 0 {
			assign[c] = -1 // rejected cells must be skipped, not counted
		}
	}
	demand := make([]float64, 200)
	d := NewDemandTracker(8)
	d.BeginEpoch()
	allocs := testing.AllocsPerRun(10, func() {
		AccumulateEpoch(d, ul, dl, 0, 64, assign, demand)
	})
	if allocs != 0 {
		t.Fatalf("per-slot coordination path allocates %.1f times per epoch; want 0", allocs)
	}
}

// Pooling-gain accounting sanity: required cores are bounded below by the
// ideal single-pool requirement and above by per-epoch sums, and a fleet
// with traffic needs at least one core.
func TestDemandTrackerCores(t *testing.T) {
	d := NewDemandTracker(2)
	d.BeginEpoch()
	d.BeginSlot()
	d.Add(0, 1000)
	d.Add(1, 3000)
	d.EndSlot()
	d.BeginSlot()
	d.Add(0, 5000)
	d.EndSlot()
	d.EndEpoch()
	// Cores = kappa × sustained-peak-bytes / slot-seconds. With two slots the
	// sustained peak is the mean of both; pick kappa so the results land
	// between integers and the ceil matters.
	kappa, slotSec := 0.4e-6, 1e-3
	// Server 0 sustains (1000+5000)/2=3000 → ceil(1.2)=2;
	// server 1 sustains (3000+0)/2=1500 → ceil(0.6)=1.
	if got := d.EpochCores(0, kappa, slotSec); got != 3 {
		t.Fatalf("EpochCores = %d, want 3", got)
	}
	// Aggregate sustains (4000+5000)/2=4500 → 1.8 cores < per-server sum.
	if got := kappa * d.IdealDemand(slotSec); math.Abs(got-1.8) > 1e-9 {
		t.Fatalf("kappa × IdealDemand = %.2f, want 1.8", got)
	}
	if d.Total() != 9000 {
		t.Fatalf("Total = %.0f, want 9000", d.Total())
	}
}

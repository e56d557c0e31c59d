package pool

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"concordia/internal/accel"
	"concordia/internal/faults"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/stats"
	"concordia/internal/workloads"
)

// arenaDuration is the simulated length of every arena-oracle run: long
// enough that the 7-cell scenario's latency body reservoir (8 192 samples)
// and runtime reservoirs (4 096) overflow and draw replacement indices.
const arenaDuration = 800 * sim.Millisecond

// arenaScenarios is the sequence the reuse oracle runs through one Arena.
// Neighbours differ in cell count, seed, scheduler (Concordia, and FlexRAN
// with static partitions), accelerator, DropLateDAGs and faults, so every
// pool inherits slabs, frontiers and report storage that a different
// predecessor sized and filled, runs still in flight at its horizon
// included.
func arenaScenarios(t *testing.T) []goldenScenario {
	all, err := faults.Parse("all")
	if err != nil {
		t.Fatal(err)
	}
	return []goldenScenario{
		{name: "concordia-7cell-redis", cfg: func() Config {
			cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 71)
			cfg.Cells = ran.Cells20MHz(7)
			cfg.PoolCores = 10
			cfg.Load = 0.9
			return cfg
		}},
		{name: "flexran-static-2cell", cfg: func() Config {
			cfg := testConfig(scheduler.FlexRAN{}, workloads.None, 72)
			cfg.PoolCores = 4
			cfg.StaticPartition = true
			return cfg
		}},
		{name: "fpga-fleet-batch4-all-faults-drop-late", cfg: func() Config {
			fc := all
			cfg := fleetConfig(73, &fc)
			cfg.OffloadBatch = 4
			cfg.Load = 0.7
			cfg.DropLateDAGs = true
			return cfg
		}},
		{name: "concordia-1cell-fpga", cfg: func() Config {
			cfg := testConfig(scheduler.NewConcordia(), workloads.None, 74)
			cfg.Cells = ran.Cells20MHz(1)
			cfg.PoolCores = 3
			cfg.Accel = accel.DefaultFPGA()
			return cfg
		}},
		{name: "stuck-offload-abandon", cfg: func() Config {
			return faultConfig(75, &faults.Config{StuckOffload: 0.5, StuckTimeout: sim.FromMs(4), MaxRetries: 1})
		}},
		{name: "concordia-4cell-drop-late", cfg: func() Config {
			cfg := testConfig(scheduler.NewConcordia(), workloads.Mix, 76)
			cfg.Cells = ran.Cells20MHz(4)
			cfg.Load = 0.9
			cfg.DropLateDAGs = true
			return cfg
		}},
	}
}

// reportBytes renders everything a report holds: the summary, the per-cell
// table, every latency recorder's count, maximum and quantiles, every
// runtime reservoir's sample in order, and the wakeup histogram.
func reportBytes(r *Report) string {
	var b strings.Builder
	b.WriteString(r.String())
	b.WriteString(r.PerCellString())
	for _, rec := range []*stats.TailRecorder{r.Latency, r.LatencyUL, r.LatencyDL} {
		fmt.Fprintf(&b, "latency count %d max %v quantiles", rec.Count(), rec.Max())
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1} {
			fmt.Fprintf(&b, " %v", rec.Quantile(q))
		}
		b.WriteByte('\n')
	}
	for k := ran.TaskKind(0); k < ran.NumTaskKinds; k++ {
		if res, ok := r.TaskRuntimes[k]; ok {
			fmt.Fprintf(&b, "%v seen %d samples %v\n", k, res.Seen(), res.Samples())
		}
	}
	b.WriteString(r.WakeupHistUs.String())
	return b.String()
}

// firstDiff names the first line where two renderings differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  fresh: %.300s\n  arena: %.300s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("fresh has %d lines, arena %d", len(w), len(g))
}

// TestArenaReuseMatchesFreshPools is the reuse oracle: a sequence of pools
// run one after another through one Arena must report byte for byte what
// the same configs report on fresh pools. A reset that misses a reservoir,
// a recorder or a recycled run's state shows up as a difference here.
func TestArenaReuseMatchesFreshPools(t *testing.T) {
	a := new(Arena)
	var prevLatency *stats.TailRecorder
	var maxDAGs, maxTasks uint64 // of one report, and of one kind in one report
	for _, sc := range arenaScenarios(t) {
		want := reportBytes(run(t, sc.cfg(), arenaDuration))

		cfg := sc.cfg()
		cfg.Arena = a
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prevLatency != nil && p.report.Latency != prevLatency {
			t.Fatalf("%s: the report did not reuse the arena's latency recorder", sc.name)
		}
		rep := p.Run(arenaDuration)
		if len(p.dags) == 0 {
			t.Errorf("%s: no DAG in flight at the horizon, so none was handed back in flight", sc.name)
		}
		if len(a.mem.runTable) == 0 || len(a.mem.freeRuns) != len(a.mem.runTable) {
			t.Fatalf("%s: arena holds %d runs, %d of them free; want every run back", sc.name,
				len(a.mem.runTable), len(a.mem.freeRuns))
		}
		if got := reportBytes(rep); got != want {
			t.Errorf("%s: report through the arena differs from a fresh pool's at %s", sc.name, firstDiff(want, got))
		}
		prevLatency = rep.Latency
		maxDAGs = max(maxDAGs, rep.Latency.Count())
		for _, res := range rep.TaskRuntimes {
			maxTasks = max(maxTasks, res.Seen())
		}
	}
	if maxDAGs <= 8192 || maxTasks <= 4096 {
		t.Fatalf("at most %d DAGs and %d tasks of one kind per report: no reservoir overflowed, "+
			"so their random streams went unchecked", maxDAGs, maxTasks)
	}
}

// An Arena serves one pool at a time: New refuses an arena whose pool has
// not finished Run, and accepts it again once Run has handed it back.
func TestArenaLentRefused(t *testing.T) {
	a := new(Arena)
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 77)
	cfg.Arena = a
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, errArenaLent) {
		t.Fatalf("second New on a lent arena: error %v, want %v", err, errArenaLent)
	}
	p.Run(10 * sim.Millisecond)
	if _, err := New(cfg); err != nil {
		t.Fatalf("New after Run handed the arena back: %v", err)
	}
}

// A Pool runs once: its first Run hands its memory to the Arena, so a
// second Run must panic naming the misuse rather than fail inside the
// engine or read memory the Arena has lent on.
func TestRunTwicePanics(t *testing.T) {
	p, err := New(testConfig(scheduler.NewConcordia(), workloads.None, 78))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(10 * sim.Millisecond)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "pool: Run called twice") {
			t.Fatalf("second Run: panic %q, want one naming the second Run", msg)
		}
	}()
	p.Run(10 * sim.Millisecond)
}

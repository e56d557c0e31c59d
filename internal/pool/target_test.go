package pool

import (
	"bytes"
	"testing"

	"concordia/internal/faults"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/workloads"
)

// eagerTarget hides the policy's type from scheduler.SideEffectFree, so the
// pool asks it for its core target at every task completion.
type eagerTarget struct{ scheduler.Scheduler }

// targetScenarios are the golden scenarios plus the runs that would show a
// policy asked too rarely: the two baselines whose ±1 state steps on every
// call (at load 0.5 the Utilization one does not show a wrong marking; at
// 0.9 it does), Concordia behind a release hysteresis, as core runs it, and
// yield storms shorter than a scheduler interval, which only the
// completions' storm query sees.
func targetScenarios(t *testing.T) []goldenScenario {
	return append(goldenScenarios(t),
		goldenScenario{name: "shenango-redis", cfg: func() Config {
			return testConfig(scheduler.NewShenango(25*sim.Microsecond), workloads.Redis, 70)
		}},
		goldenScenario{name: "utilization-redis-load0.9", cfg: func() Config {
			cfg := testConfig(scheduler.NewUtilization(0.6), workloads.Redis, 71)
			cfg.Load = 0.9
			return cfg
		}},
		goldenScenario{name: "concordia-hysteresis-redis", cfg: func() Config {
			cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 72)
			cfg.ReleaseHysteresis = 2 * sim.Millisecond
			return cfg
		}},
		goldenScenario{name: "storms-shorter-than-a-tick", cfg: func() Config {
			return faultConfig(73, &faults.Config{StormPerSec: 2000, StormDuration: 5 * sim.Microsecond})
		}},
	)
}

// TestLazyTargetMatchesEager is the oracle for asking a side-effect-free
// policy only where its answer is read: every scenario runs as configured
// and again with its policy wrapped in eagerTarget, and both runs must give
// byte-identical reports, fault counters, traces, metrics and SLO exports.
func TestLazyTargetMatchesEager(t *testing.T) {
	for _, sc := range targetScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			g := runGolden(t, sc)
			lazy := goldenOutputs(t, g)
			if fc := g.pool.cfg.Faults; fc != nil && fc.StormPerSec > 0 && g.rep.Faults.Storms == 0 {
				t.Fatal("no storm injected: the storm query went unchecked")
			}
			eager := sc
			eager.cfg = func() Config {
				cfg := sc.cfg()
				cfg.Scheduler = eagerTarget{cfg.Scheduler}
				return cfg
			}
			if !bytes.Equal(lazy, goldenOutputs(t, runGolden(t, eager))) {
				t.Errorf("outputs differ when the policy is asked at every completion (lazy: %v)",
					scheduler.SideEffectFree(sc.cfg().Scheduler))
			}
		})
	}
}

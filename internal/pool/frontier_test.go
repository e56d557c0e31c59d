package pool

import (
	"testing"

	"concordia/internal/scheduler"
	"concordia/internal/sim"
)

// referenceDAGStates is the scheduler's per-DAG view computed without the
// frontier: a scan of every task of every in-flight DAG, with the remaining
// work summed from the unfinished tasks' predictions instead of read from
// the run's running total. It appends to dst.
func referenceDAGStates(dst []scheduler.DAGState, p *Pool, now sim.Time) []scheduler.DAGState {
	for _, run := range p.dags {
		var work, cp sim.Time
		for i := range run.tasks {
			t := &run.tasks[i]
			if t.done {
				continue
			}
			tail := t.tailCP
			work += t.predicted
			if t.running {
				elapsed := min(now-t.started, t.predicted)
				tail -= elapsed
				work -= elapsed
			}
			cp = max(cp, tail)
		}
		dst = append(dst, scheduler.DAGState{
			Deadline:              run.dag.Deadline,
			RemainingWork:         max(work, 0),
			RemainingCriticalPath: cp,
		})
	}
	return dst
}

// dagStateProbe compares the pool's per-DAG view with the reference scan at
// every decision, and counts the decisions and the DAG entries where the
// frontier left some unfinished task out.
type dagStateProbe struct {
	scheduler.Scheduler
	t         *testing.T
	pool      *Pool
	ref       []scheduler.DAGState
	decisions int
	pruned    int
}

func (o *dagStateProbe) Cores(s scheduler.PoolState) int {
	o.decisions++
	o.ref = referenceDAGStates(o.ref[:0], o.pool, s.Now)
	if len(s.DAGs) != len(o.ref) {
		o.t.Fatalf("at %v: %d DAG states, reference %d", s.Now, len(s.DAGs), len(o.ref))
	}
	for i, got := range s.DAGs {
		if got != o.ref[i] {
			o.t.Fatalf("at %v, DAG %d (seq %d): state %+v, reference %+v",
				s.Now, i, o.pool.dags[i].seq, got, o.ref[i])
		}
		if run := o.pool.dags[i]; len(run.frontier) < run.unfinished {
			o.pruned++
		}
	}
	return o.Scheduler.Cores(s)
}

// TestSchedulerStateMatchesFullScan checks the frontier against the full
// scan on the golden scenarios: every PoolState.DAGs entry the policy sees
// must equal the reference, at every decision.
func TestSchedulerStateMatchesFullScan(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg()
			probe := &dagStateProbe{Scheduler: cfg.Scheduler, t: t}
			cfg.Scheduler = probe
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe.pool = p
			p.Run(goldenDuration)
			if probe.decisions == 0 || probe.pruned == 0 {
				t.Fatalf("%d decisions, %d DAG states with tasks off the frontier: the comparison proved nothing",
					probe.decisions, probe.pruned)
			}
			t.Logf("%d decisions, %d DAG states with tasks off the frontier", probe.decisions, probe.pruned)
		})
	}
}

//go:build poolcheck

package pool

import (
	"strings"
	"testing"

	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/workloads"
)

// These tests exercise the poolcheck sanitizer directly (DESIGN.md §5g):
// each one commits a memory-discipline violation the static analyzers would
// flag in source form and asserts the runtime side catches it too. They only
// compile under -tags poolcheck; `make poolcheck` and the CI poolcheck job
// run them.

// dagWithTasks builds a minimal n-task DAG without the builder front-ends.
func dagWithTasks(n int) *ran.DAG {
	nodes := make([]ran.Task, n)
	d := &ran.DAG{}
	for i := range nodes {
		nodes[i].ID = i
		d.Tasks = append(d.Tasks, &nodes[i])
	}
	return d
}

func wantPanic(t *testing.T, substrs ...string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected a poolcheck panic containing %q; got none", substrs)
	}
	msg, ok := r.(string)
	if !ok {
		t.Fatalf("expected a string panic, got %T: %v", r, r)
	}
	for _, s := range substrs {
		if !strings.Contains(msg, s) {
			t.Errorf("panic %q does not contain %q", msg, s)
		}
	}
}

// TestPoolcheckCatchesUseAfterRecycle is the dynamic half of the issue's
// acceptance criterion: a task pointer retained across its run's recycle
// (exactly what the poolescape analyzer forbids statically) must panic with
// the owning release seq at the next queue insertion.
func TestPoolcheckCatchesUseAfterRecycle(t *testing.T) {
	p := &Pool{queues: make([]readyQueue, 1)}
	run := p.acquireRun(dagWithTasks(2))
	run.seq = 7
	// Admission (releaseDAG) wires each task's back-pointers; mimic it for
	// the one task the test retains.
	run.tasks[0] = task{dag: run, node: run.dag.Tasks[0], heapIndex: -1}
	stale := &run.tasks[0] // the retained alias
	run.retired = true
	p.maybeRecycle(run)

	defer wantPanic(t, "use-after-recycle of dagRun 0", "seq 7")
	p.pushReady(stale, 0)
}

func TestPoolcheckDoubleRecyclePanics(t *testing.T) {
	p := &Pool{}
	run := p.acquireRun(dagWithTasks(1))
	run.seq = 3
	run.retired = true
	p.maybeRecycle(run)

	// maybeRecycle's own retired guard normally makes a second call a no-op;
	// re-retiring the freed run models the state corruption the sanitizer
	// exists to catch.
	run.retired = true
	defer wantPanic(t, "double recycle of dagRun 0", "first release seq 3")
	p.maybeRecycle(run)
}

func TestPoolcheckSlabCanary(t *testing.T) {
	p := &Pool{}
	// First checkout sizes the slab to 4 tasks; recycling frees the run.
	run := p.acquireRun(dagWithTasks(4))
	run.retired = true
	p.maybeRecycle(run)

	// Second checkout reuses the capacity-4 slab for 2 live tasks, planting
	// the canary in the first spare entry. A write past the live length —
	// the slab-overflow bug class — clobbers it.
	run = p.acquireRun(dagWithTasks(2))
	run.tasks[:cap(run.tasks)][2].predicted = 0
	run.retired = true
	defer wantPanic(t, "slab canary clobbered", "2 live tasks")
	p.maybeRecycle(run)
}

// TestPoolcheckCleanLifecycle pins the no-false-positive side: a normal
// acquire/retire/recycle/reacquire cycle must not trip the sanitizer.
func TestPoolcheckCleanLifecycle(t *testing.T) {
	p := &Pool{}
	for i := 0; i < 3; i++ {
		run := p.acquireRun(dagWithTasks(3))
		run.seq = int64(i)
		p.pc.checkLive(run)
		run.retired = true
		p.maybeRecycle(run)
	}
	if len(p.runTable) != 1 {
		t.Errorf("freelist not reused: runTable has %d entries, want 1", len(p.runTable))
	}
}

// inFlightProbe records the pool's in-flight runs, and their DAGs, at every
// scheduling decision; after Run it holds those of the last decision, a
// scheduler interval or less before the horizon.
type inFlightProbe struct {
	scheduler.Scheduler
	pool *Pool
	runs []*dagRun
	dags []*ran.DAG
}

func (o *inFlightProbe) Cores(s scheduler.PoolState) int {
	o.runs, o.dags = o.runs[:0], o.dags[:0]
	for _, run := range o.pool.dags {
		o.runs = append(o.runs, run)
		o.dags = append(o.dags, run.dag)
	}
	return o.Scheduler.Cores(s)
}

// TestPoolcheckArenaHandBack checks Run's hand-back to its Arena: every run
// comes back poisoned and marked freed, with its DAG poisoned, the runs in
// flight at the horizon included, and a task pointer kept from that pool
// panics when the Arena's next pool takes it in.
func TestPoolcheckArenaHandBack(t *testing.T) {
	a := new(Arena)
	cfg := testConfig(scheduler.NewConcordia(), workloads.None, 79)
	cfg.Arena = a
	probe := &inFlightProbe{Scheduler: cfg.Scheduler}
	cfg.Scheduler = probe
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe.pool = p
	p.Run(100 * sim.Millisecond)
	if len(probe.runs) == 0 {
		t.Fatal("no run in flight at the last decision: the in-flight hand-back went unchecked")
	}
	for _, run := range a.mem.runTable {
		if !a.mem.pc.freed[run.id] {
			t.Errorf("dagRun %d came back to the arena without being marked freed", run.id)
		}
		for i := range run.tasks {
			if tk := &run.tasks[i]; tk.node != nil || tk.predicted != pcPoisonTime {
				t.Errorf("dagRun %d task %d came back unpoisoned", run.id, i)
			}
		}
	}
	for i, d := range probe.dags {
		if len(d.Tasks) != 0 || d.Release != -1 {
			t.Errorf("DAG of in-flight dagRun %d came back unpoisoned", probe.runs[i].id)
		}
	}

	stale := &probe.runs[0].tasks[0]
	next := testConfig(scheduler.NewConcordia(), workloads.None, 80)
	next.Arena = a
	np, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	defer wantPanic(t, "use-after-recycle of dagRun")
	np.pushReady(stale, 0)
}

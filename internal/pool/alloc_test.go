package pool

import (
	"testing"

	"concordia/internal/faults"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// The telemetry-off contract: a nil Recorder makes every instrumentation
// site a single nil check — no allocations, no map lookups. These tests pin
// that down so tracing off truly costs nothing.

// TestNilTelemetryZeroAlloc asserts the disabled-path emission helpers
// allocate nothing.
func TestNilTelemetryZeroAlloc(t *testing.T) {
	p := &Pool{} // trc == nil: the disabled path
	if n := testing.AllocsPerRun(100, func() {
		p.faultTrace(0, faults.LaneFailure, 0, 0, 0, 1, 0)
		p.recoverTrace(0, faults.LaneFailure, recoverCPUFallback, 0, 0, 0)
	}); n != 0 {
		t.Errorf("nil-telemetry fault hooks allocated %.1f per run, want 0", n)
	}

	var tr *telemetry.Tracer
	var ev telemetry.Event
	if n := testing.AllocsPerRun(100, func() {
		tr.Emit(ev)
	}); n != 0 {
		t.Errorf("nil Tracer.Emit allocated %.1f per run, want 0", n)
	}
}

// TestTelemetryOffMatchesBaseline asserts the nil-Recorder run is not just
// cheap but invisible: the report bytes are identical with telemetry off,
// so the guard branches cannot perturb the simulation.
func TestTelemetryOffMatchesBaseline(t *testing.T) {
	base := run(t, testConfig(scheduler.NewConcordia(), workloads.Redis, 3), sim.Second).String()
	cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, 3)
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	instrumented := run(t, cfg, sim.Second).String()
	if base != instrumented {
		t.Error("telemetry changed the report output")
	}
}

// TestEnqueueDispatchZeroAlloc pins the readyQueue contract (DESIGN.md §5f):
// once the heap's backing array has grown, a full enqueue → dispatch scan →
// drain cycle allocates nothing. The pool has no idle cores, so dispatch
// runs its scan and leaves the tasks queued — exactly the saturated-slot
// steady state where allocation churn would hurt most.
func TestEnqueueDispatchZeroAlloc(t *testing.T) {
	d := &ran.DAG{Deadline: 100 * sim.Microsecond}
	run := &dagRun{dag: d}
	const n = 32
	nodes := make([]ran.Task, n)
	tasks := make([]task, n)
	for i := range tasks {
		nodes[i] = ran.Task{ID: i}
		tasks[i] = task{dag: run, node: &nodes[i], heapIndex: -1}
	}
	p := &Pool{queues: make([]readyQueue, 1)}
	cycle := func() {
		for i := range tasks {
			p.enqueue(&tasks[i], sim.Time(i*7%13))
		}
		for p.queues[0].Len() > 0 {
			p.queues[0].pop()
		}
	}
	cycle() // grow the heap's backing array once
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("warmed enqueue/dispatch cycle allocated %.1f per run, want 0", a)
	}
}

// TestRunFreelistZeroAlloc pins the dagRun/DAG freelist contract: after the
// first acquire grows the run table, task slab and frontier, the admit →
// retire → recycle cycle allocates nothing and hands back the same recycled
// objects.
func TestRunFreelistZeroAlloc(t *testing.T) {
	p := &Pool{}
	d := p.getDAG()
	d.Tasks = make([]*ran.Task, 8) // acquireRun sizes the task slab from this
	var first *dagRun
	leaked := false
	cycle := func() {
		dag := p.getDAG()
		run := p.acquireRun(dag)
		for id := range dag.Tasks { // every task joins the frontier at some point
			run.frontier = append(run.frontier, id)
		}
		if first == nil {
			first = run
		} else if run != first || dag != d {
			leaked = true
		}
		run.retired = true
		p.maybeRecycle(run)
	}
	p.putDAG(d)
	cycle() // grow runTable, freeRuns, freeDAGs, the task slab and the frontier once
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("warmed run freelist cycle allocated %.1f per run, want 0", a)
	}
	if leaked {
		t.Error("freelist cycle did not recycle the same dagRun/DAG objects")
	}
}

// BenchmarkNilTelemetryEmit measures the disabled fast path; allocs/op must
// read 0 in BENCH_pool.json.
func BenchmarkNilTelemetryEmit(b *testing.B) {
	p := &Pool{}
	var tr *telemetry.Tracer
	var ev telemetry.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.faultTrace(0, faults.LaneFailure, 0, 0, 0, 1, 0)
		tr.Emit(ev)
	}
}

// BenchmarkPoolSecondTelemetry is BenchmarkPoolSecond with the tracer on —
// the two rows side by side in BENCH_pool.json are the observability tax.
func BenchmarkPoolSecondTelemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := testConfig(scheduler.NewConcordia(), workloads.Redis, uint64(i))
		cfg.Telemetry = telemetry.New(telemetry.Options{})
		p, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p.Run(sim.Second)
	}
}

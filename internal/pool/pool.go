// Package pool implements the vRAN pool runtime of Fig 2 on the simulated
// platform: worker threads pinned to cores, EDF priority queues of
// signal-processing tasks, DAG-driven task spawning, yield/wake semantics
// with OS wakeup latency, the Concordia scheduler tick, 2 ms core rotation,
// and the accounting (slot latency tails, scheduling events, reclaimed
// core-time, workload throughput) every experiment in §6 reads out.
package pool

import (
	"errors"
	"fmt"
	"slices"

	"concordia/internal/accel"
	"concordia/internal/costmodel"
	"concordia/internal/faults"
	"concordia/internal/platform"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/traffic"
	"concordia/internal/workloads"
)

// Predictors provides per-task-kind WCET predictions to the pool.
type Predictors interface {
	Predict(kind ran.TaskKind, f ran.FeatureVector) sim.Time
	Observe(kind ran.TaskKind, f ran.FeatureVector, runtime sim.Time)
}

// PredictorSet is the production implementation: one trained predictor per
// task kind (the paper trains one quantile tree per signal-processing task).
type PredictorSet map[ran.TaskKind]predictor.Predictor

// Predict implements Predictors. Kinds without a model fall back to zero,
// which the pool treats as "unknown" and covers with the margin predictor.
func (s PredictorSet) Predict(kind ran.TaskKind, f ran.FeatureVector) sim.Time {
	if p, ok := s[kind]; ok {
		return p.Predict(f)
	}
	return 0
}

// Observe implements Predictors.
func (s PredictorSet) Observe(kind ran.TaskKind, f ran.FeatureVector, runtime sim.Time) {
	if p, ok := s[kind]; ok {
		p.Observe(f, runtime)
	}
}

// OraclePredictors predicts Margin × the cost model's true mean — an
// idealized predictor used for upper-bound and unit-test scenarios.
type OraclePredictors struct {
	Model  *costmodel.Model
	Env    costmodel.Env
	Margin float64
}

// Predict implements Predictors.
func (o OraclePredictors) Predict(kind ran.TaskKind, f ran.FeatureVector) sim.Time {
	return sim.Time(float64(o.Model.Mean(kind, &f, o.Env)) * o.Margin)
}

// Observe implements Predictors (the oracle does not learn).
func (o OraclePredictors) Observe(ran.TaskKind, ran.FeatureVector, sim.Time) {}

// Config assembles one pool simulation.
type Config struct {
	Cells     []ran.CellConfig
	PoolCores int
	Scheduler scheduler.Scheduler
	Predict   Predictors
	CostModel *costmodel.Model
	Platform  *platform.Platform
	Workload  *workloads.Schedule
	// Deadline is the DAG processing deadline after slot release (Table 1:
	// 1.5 ms for 100 MHz, 2 ms for 20 MHz).
	Deadline sim.Time
	// UL/DL traffic generation; PeakULBytes/PeakDLBytes are per-slot
	// ceilings per cell, Load scales toward them.
	Load        float64
	PeakULBytes int
	PeakDLBytes int
	Seed        uint64
	// ULSource/DLSource, when non-nil, replace the synthetic generators
	// with trace replay (the paper's trace-driven methodology). They must
	// cover the configured cell count.
	ULSource traffic.Source
	DLSource traffic.Source
	// ReleaseHysteresis keeps an idle RAN core reserved for this long before
	// yielding it. Concordia's proactive reservation uses a couple of slot
	// durations here — bridging inter-TTI gaps is what gives it an order of
	// magnitude fewer scheduling events than the queue-driven baseline
	// (Fig 10). Zero releases immediately (the baselines' behaviour).
	ReleaseHysteresis sim.Time
	// Accel, when non-nil, offloads LDPC encode/decode to the modeled FPGA
	// (§7): the CPU pays only a submit cost; the DAG resumes when the
	// device completes.
	Accel *accel.Accelerator
	// OffloadBatch bounds one DMA transfer to at most that many ready
	// offloadable tasks of the same kind: the submitting core pays
	// SubmitCost once and the followers skip it entirely. Followers are
	// taken in EDF order and admitted only while the no-queueing device
	// estimate still meets their deadline. Values ≤ 1 submit the lead task
	// alone.
	OffloadBatch int
	// IncludeMAC releases the §7 MAC-layer extension DAG every slot per
	// cell, with a one-slot deadline (the grant must be ready for the next
	// TTI), multiplexed on the same pool.
	IncludeMAC bool
	// DropLateDAGs discards a DAG's remaining work once its deadline
	// passes, as real deployments do ("the packets transmitted or received
	// in the corresponding time slot are dropped"). Dropped DAGs count as
	// misses. When false (the default for latency measurement), late DAGs
	// run to completion and their full latency is recorded.
	DropLateDAGs bool
	// StaticPartition statically assigns cores to cells (core i serves cell
	// i mod cells), reproducing vanilla FlexRAN's queue-to-worker affinity.
	// A stuck or overloaded partition then cannot borrow neighbours' cores —
	// the effect behind Fig 4b's deadline violations. Concordia runs with a
	// global pool (false).
	StaticPartition bool
	// Telemetry, when non-nil, records the structured event trace and the
	// metrics time series (internal/telemetry). Nil — the default — takes
	// the no-op path: every instrumentation site reduces to one predictable
	// branch, keeping the hot loop within noise of the uninstrumented pool.
	Telemetry *telemetry.Recorder
	// SLO, when non-nil, streams per-DAG latency/slack and per-task runtime
	// observations into the windowed SLO tracker (internal/slo): quantile
	// sketches, miss/attempt counters and burn-rate alerts, all in virtual
	// time. Nil — the default — reduces every record site to one nil check,
	// mirroring the Telemetry fast path.
	SLO *slo.Tracker
	// Faults, when non-nil with positive rates, attaches the deterministic
	// chaos injector (internal/faults): accelerator lane failures and stuck
	// offloads (recovered by a virtual-time watchdog with bounded retries),
	// WCET overruns, interference bursts, core-yield storms, and late or
	// dropped fronthaul arrivals. The injector is seeded from Seed through
	// its own substream — it never touches the pool's RNG — so a nil or
	// all-zero config leaves every existing output byte-identical.
	Faults *faults.Config
	// Arena, when non-nil, lends the pool its run table, DAG freelist,
	// scratch buffers and report storage, and gets them back when Run
	// returns, so pools built one after another on one Arena reuse them
	// (DESIGN.md §5f). The returned Report is valid until the Arena's next
	// New. Nil gives the pool memory of its own.
	Arena *Arena
}

// Validate reports the first problem that would stop the configuration from
// building a pool. New runs it too; callers that do costly set-up before New
// run it first so a refused configuration costs nothing.
func (c *Config) Validate() error {
	if len(c.Cells) == 0 {
		return errors.New("pool: no cells")
	}
	mu := c.Cells[0].Numerology
	for _, cell := range c.Cells {
		if err := cell.Validate(); err != nil {
			return err
		}
		if cell.Numerology != mu {
			return errors.New("pool: cells must share a numerology")
		}
	}
	if c.PoolCores <= 0 {
		return errors.New("pool: need at least one core")
	}
	if c.Scheduler == nil || c.CostModel == nil || c.Platform == nil {
		return errors.New("pool: scheduler, cost model and platform are required")
	}
	if c.Deadline <= 0 {
		return errors.New("pool: non-positive deadline")
	}
	if !(c.Load > 0 && c.Load <= 1) { // NaN fails too
		return errors.New("pool: load must be in (0,1]")
	}
	if c.PeakULBytes <= 0 || c.PeakDLBytes <= 0 {
		return errors.New("pool: peak slot bytes must be positive")
	}
	if c.Arena != nil && c.Arena.lent {
		return errArenaLent
	}
	return nil
}

// task is the runtime wrapper around a DAG node.
type task struct {
	dag       *dagRun
	node      *ran.Task
	predicted sim.Time
	readyAt   sim.Time
	started   sim.Time
	running   bool
	done      bool
	tailCP    sim.Time // predicted longest path from this task to a sink
	missing   int      // unfinished dependencies
	heapIndex int
	// retries counts offload re-submissions after stuck-offload timeouts;
	// noOffload forces the CPU path once the retry budget is exhausted.
	retries   int
	noOffload bool
}

// dagRun tracks one released DAG instance.
//
// Memory discipline (DESIGN.md §5f): dagRun objects live permanently in the
// pool's runTable; a freelist of table indices recycles them. Each run's
// task objects live in one slab (run.tasks) whose capacity is reused across
// releases, so steady-state admission allocates nothing. A run is recycled —
// and its *ran.DAG returned to the DAG freelist — only when it is retired
// (finished, abandoned, or dropped) AND refs reaches zero, so no pending
// event or core can ever observe a reused slab. Explicit freelists, not
// sync.Pool: recycling order must be deterministic at any -workers.
type dagRun struct {
	id         int32 // index into Pool.runTable, stable for the pool's life
	dag        *ran.DAG
	tasks      []task // one backing slab; pointers into it stay valid per run
	unfinished int
	// refs counts live references from outside the run: tasks attached to a
	// core (or in an accelerator submit window) and pending offload
	// done/timeout/retry events. Guarded by retired for recycling.
	refs    int
	retired bool
	// seq is the release sequence number, the stable identity telemetry
	// events use to correlate a DAG's lifecycle across the trace.
	seq int64
	// remainingWork is the predicted work of not-yet-completed tasks,
	// excluding progress on running ones (subtracted lazily at read time).
	remainingWork sim.Time
	// frontier holds the IDs of the tasks whose dependencies are met and
	// that have not completed: ready, kept, running or awaiting an offload
	// retry. schedulerState reads C_rem and L_rem from it alone (DESIGN.md
	// §4); its capacity is reused across releases like the task slab.
	frontier []int
	// dropped marks a DAG abandoned at its deadline (DropLateDAGs).
	dropped bool
	// cpuTime and offloadTime split the DAG's execution between processor
	// and accelerator (Table 4's non-offloaded vs total analysis).
	cpuTime     sim.Time
	offloadTime sim.Time
}

// readyQueue is the EDF priority queue: earliest DAG deadline first, ties
// broken by task order. It is a hand-rolled binary heap over *task — no
// container/heap, so push/pop never box through `any`. The sift routines
// transcribe container/heap's up/down exactly: the EDF key is not a total
// order (two cells' root tasks can tie on deadline, readyAt, and node ID),
// so preserving the original algorithm preserves the original pop order for
// tied elements — a byte-identity requirement, not a style choice.
type readyQueue []*task

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) less(i, j int) bool {
	if q[i].dag.dag.Deadline != q[j].dag.dag.Deadline {
		return q[i].dag.dag.Deadline < q[j].dag.dag.Deadline
	}
	if q[i].readyAt != q[j].readyAt {
		return q[i].readyAt < q[j].readyAt
	}
	return q[i].node.ID < q[j].node.ID
}
func (q readyQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heapIndex = i
	q[j].heapIndex = j
}

func (q readyQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q readyQueue) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *readyQueue) push(t *task) {
	t.heapIndex = len(*q)
	*q = append(*q, t)
	q.up(len(*q) - 1)
}

func (q *readyQueue) pop() *task {
	n := len(*q) - 1
	q.swap(0, n)
	q.down(0, n)
	old := *q
	t := old[n]
	old[n] = nil
	*q = old[:n]
	// Restore the not-in-heap invariant so later membership checks
	// (retireDAG withdrawing a dropped DAG's tasks) never act on a stale
	// index.
	t.heapIndex = -1
	return t
}

// removeAt deletes the element at heap index i (container/heap.Remove).
func (q *readyQueue) removeAt(i int) {
	n := len(*q) - 1
	if n != i {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	old := *q
	t := old[n]
	old[n] = nil
	*q = old[:n]
	t.heapIndex = -1
}

// coreState tracks one physical core.
type coreState int

const (
	coreBestEffort coreState = iota // granted to collocated workloads
	coreWaking                      // acquired by RAN, worker not yet running
	coreIdleRAN                     // owned by RAN, no task
	coreBusyRAN                     // executing a RAN task
)

type core struct {
	state     coreState
	task      *task
	wakeEv    sim.EventHandle
	wakeStart sim.Time
	idleSince sim.Time
	// drain marks a busy core that must yield on task completion (core
	// rotation swaps it for a freshly acquired one).
	drain bool
}

// Pool is the running simulation.
type Pool struct {
	cfg    Config
	eng    *sim.Engine
	rand   *rng.Rand
	ulTraf traffic.Source
	dlTraf traffic.Source

	cores    []core
	ranCores int // cores in waking/idle/busy RAN states

	// lazyTarget is set when the policy's Cores has no side effects
	// (scheduler.SideEffectFree): a task completion then asks it only where
	// the answer is read.
	lazyTarget bool

	queues []readyQueue
	// dags holds in-flight DAGs in release order. A slice (not a map) keeps
	// scheduler-state iteration deterministic: float accumulation over a
	// randomly-ordered map could flip a ceil at the margin.
	dags []*dagRun

	slotIndex int

	lastAcc sim.Time // last core-time accounting timestamp

	// utilization EWMA for the utilization-based scheduler.
	utilEWMA float64
	// churnEWMA tracks recent scheduling events per millisecond: the driver
	// of cache pollution (Fig 9) — frequent yield/acquire cycles land RAN
	// tasks on cold, workload-polluted caches.
	churnEWMA      float64
	eventsLastSlot uint64

	// trc is cfg.Telemetry's tracer; nil when telemetry is off.
	trc *telemetry.Tracer
	// lastTarget dedups scheduler-decision events: the 20 µs tick emits only
	// when the core target changes, not 50 000 times per second.
	lastTarget int
	// pendingPeak is the engine event-queue high-water mark since the last
	// metrics sample.
	pendingPeak int
	dagSeq      int64

	// flt is the deterministic fault injector; nil unless Config.Faults has
	// at least one positive rate, so fault-free runs pay one nil check.
	flt *faults.Injector

	// Offload-batching scratch, reused across submissions. batchTasks is
	// cleared after every batch so it never retains freelist-owned tasks.
	batchTasks []*task
	batchCbs   []int
	batchDones []sim.Time

	// Typed event kinds (DESIGN.md §5f): the common pool callbacks carry a
	// core index or a (run ID, task ID) pair instead of a closure, so the
	// steady-state event path allocates nothing.
	kTaskDone         sim.EventKind
	kOffloadSubmitted sim.EventKind
	kOffloadDone      sim.EventKind
	kOffloadTimeout   sim.EventKind
	kCoreAwake        sim.EventKind

	// arenaMem holds the freelists, scratch, report and sanitizer state
	// borrowed from cfg.Arena until Run returns.
	arenaMem
}

// New validates the configuration and builds the pool.
func New(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	var ul, dl traffic.Source
	var err error
	if cfg.ULSource != nil {
		ul = cfg.ULSource
		root.Uint64() // keep the seed stream aligned with generator mode
	} else {
		ul, err = traffic.NewGenerator(traffic.Config{
			Cells: len(cfg.Cells), Load: cfg.Load, PeakSlotBytes: cfg.PeakULBytes, Seed: root.Uint64()})
		if err != nil {
			return nil, err
		}
	}
	if cfg.DLSource != nil {
		dl = cfg.DLSource
		root.Uint64()
	} else {
		dl, err = traffic.NewGenerator(traffic.Config{
			Cells: len(cfg.Cells), Load: cfg.Load, PeakSlotBytes: cfg.PeakDLBytes, Seed: root.Uint64()})
		if err != nil {
			return nil, err
		}
	}
	if ul.Cells() < len(cfg.Cells) || dl.Cells() < len(cfg.Cells) {
		return nil, errors.New("pool: traffic source covers fewer cells than configured")
	}
	nq := 1
	if cfg.StaticPartition {
		nq = len(cfg.Cells)
	}
	if cfg.Arena == nil {
		cfg.Arena = new(Arena)
	}
	p := &Pool{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		rand:     root,
		ulTraf:   ul,
		dlTraf:   dl,
		cores:    make([]core, cfg.PoolCores),
		queues:   make([]readyQueue, nq),
		arenaMem: cfg.Arena.mem,

		lazyTarget: scheduler.SideEffectFree(cfg.Scheduler),
	}
	cfg.Arena.mem, cfg.Arena.lent = arenaMem{}, true
	p.report = newReport(cfg, p.report)
	p.kTaskDone = p.eng.RegisterKind(func(a, _ int64) { p.onTaskDone(int(a)) })
	p.kOffloadSubmitted = p.eng.RegisterKind(func(a, _ int64) { p.onOffloadSubmitted(int(a)) })
	p.kOffloadDone = p.eng.RegisterKind(func(a, b int64) {
		run := p.runTable[a]
		p.pc.checkLive(run)
		p.onOffloadDone(&run.tasks[b])
	})
	p.kOffloadTimeout = p.eng.RegisterKind(func(a, b int64) {
		run := p.runTable[a]
		p.pc.checkLive(run)
		p.onOffloadTimeout(&run.tasks[b])
	})
	p.kCoreAwake = p.eng.RegisterKind(func(a, _ int64) { p.onCoreAwake(int(a)) })
	if cfg.Faults != nil {
		// The injector derives its seed as a pure substream of the pool seed:
		// nothing is consumed from root, so enabling faults never perturbs
		// traffic, allocation, or cost-model sampling streams.
		p.flt = faults.NewInjector(*cfg.Faults, rng.SubstreamSeed(cfg.Seed, 0xfa5e))
		p.report.FaultsEnabled = p.flt != nil
	}
	if cfg.Telemetry != nil {
		p.trc, p.lastTarget = cfg.Telemetry.Trace, -1
		p.attach()
	}
	if p.trc != nil || PoolcheckEnabled {
		p.eng.SetProbe(p.onEvent)
	}
	return p, nil
}

// onEvent is the engine probe, run before each event is dispatched, so it
// sees the state the previous event left: under poolcheck it checks that no
// RAN core idles beside queued work, and it tracks the pending-queue peak
// for the metrics sample.
func (p *Pool) onEvent(_ sim.Time, pending int) {
	p.checkWorkConserving()
	if pending > p.pendingPeak {
		p.pendingPeak = pending
	}
}

// Run executes the simulation for the given duration and returns the
// accumulated report, valid until the next New on the pool's Arena. Then it
// hands the pool's memory back to the Arena, so a Pool runs once: a second
// Run panics.
func (p *Pool) Run(duration sim.Time) *Report {
	if p.report == nil {
		panic("pool: Run called twice; a Pool runs once and hands its memory back to its Arena when Run returns")
	}
	slotDur := p.cfg.Cells[0].Numerology.SlotDuration()
	sim.NewTicker(p.eng, 0, slotDur, p.onSlot)
	sim.NewTicker(p.eng, 0, p.cfg.Scheduler.Interval(), p.onSchedulerTick)
	// Phase-shift rotation off the slot grid so it observes the pool
	// mid-slot rather than at the idle instant between TTIs.
	sim.NewTicker(p.eng, rotatePeriod+rotatePeriod/7, rotatePeriod, p.onRotate)
	if p.trc != nil {
		// Metrics sampling, once per slot: registered after the slot ticker
		// so a sample at instant t observes the slot released at t.
		sim.NewTicker(p.eng, 0, slotDur, p.onSample)
	}
	if p.flt != nil && p.cfg.Accel != nil && p.flt.Config().DeviceResetPerSec > 0 {
		// Reconciliation loop: poll the per-device reset windows and
		// re-partition VF queue depths on membership transitions. 100 µs is
		// fine-grained against the millisecond-scale reset windows.
		sim.NewTicker(p.eng, 0, 100*sim.Microsecond, p.onReconcile)
	}
	p.eng.Run(duration)
	p.checkWorkConserving() // the state the last event left
	p.accountCoreTime(p.eng.Now())
	p.cfg.SLO.Flush(p.eng.Now())
	if p.flt != nil {
		p.report.Faults.Stats = p.flt.Stats()
	}
	p.report.Duration = duration
	rep := p.report
	p.handBack()
	return rep
}

// interference returns the effective cache pressure on RAN tasks right now.
// The baseline pressure comes from the active workloads; how much of it the
// RAN actually feels is governed by core churn — a pool that yields and
// reacquires cores constantly (vanilla FlexRAN) keeps landing on caches the
// workloads just polluted, while a pool that retains a small core set
// (Concordia) mostly suffers shared-LLC pressure only (Fig 9).
func (p *Pool) interference() float64 {
	base := p.interferenceBase()
	if base == 0 {
		return 0
	}
	churn := p.churnEWMA / 7.0
	if churn > 1 {
		churn = 1
	}
	return base * (0.25 + 0.75*churn)
}

func (p *Pool) env() costmodel.Env {
	cores := p.ranCores
	if cores < 1 {
		cores = 1
	}
	return costmodel.Env{PoolCores: cores, Interference: p.interference()}
}

// onSlot releases the new TTI's DAGs for every cell.
func (p *Pool) onSlot(now sim.Time) {
	ulBytes := p.ulTraf.NextSlot()
	dlBytes := p.dlTraf.NextSlot()
	slotDur := p.cfg.Cells[0].Numerology.SlotDuration()
	for i, cell := range p.cfg.Cells {
		deadline := now + p.cfg.Deadline
		if p.cfg.IncludeMAC {
			// The MAC schedules the next TTI: it runs every slot and must
			// finish within the slot.
			ues := 1 + (ulBytes[i]+dlBytes[i])/4096
			if ues > cell.MaxUEs {
				ues = cell.MaxUEs
			}
			p.releaseDAG(ran.BuildMACDAGInto(p.getDAG(), cell, p.slotIndex, now, now+slotDur, ues))
		}
		// Fronthaul faults act on the cell's PHY data for this TTI (the MAC
		// above schedules from its own state and is unaffected). The DAGs are
		// still built on a drop so the allocation RNG stream stays aligned
		// with the fault-free schedule; the data simply never arrives.
		release := p.releaseDAG
		if p.flt != nil {
			if delay, drop := p.flt.Fronthaul(int64(i), int64(p.slotIndex)); drop {
				p.faultTrace(now, faults.FronthaulDrop, int32(i), int32(p.slotIndex), -1, -1, 0)
				// The graph was built (to keep the RNG stream aligned) but never
				// admitted; hand it straight back to the freelist.
				release = func(d *ran.DAG) { p.putDAG(d) }
			} else if delay > 0 {
				// Late arrival: the DAG keeps its on-time release stamp and
				// deadline (the radio doesn't wait), but admission — and so
				// every prediction and enqueue — happens delay later.
				p.faultTrace(now, faults.FronthaulLate, int32(i), int32(p.slotIndex), -1, -1, delay)
				release = func(d *ran.DAG) {
					if d == nil {
						return
					}
					p.eng.After(delay, func() { p.releaseDAG(d) })
				}
			}
		}
		switch {
		case cell.Duplex == ran.FDD:
			release(p.buildDir(cell, p.slotIndex, now, deadline, ran.Uplink, ulBytes[i], p.rand))
			release(p.buildDir(cell, p.slotIndex, now, deadline, ran.Downlink, dlBytes[i], p.rand))
		default:
			switch cell.SlotDir(p.slotIndex) {
			case ran.Uplink:
				release(p.buildDir(cell, p.slotIndex, now, deadline, ran.Uplink, ulBytes[i], p.rand))
			case ran.Downlink:
				release(p.buildDir(cell, p.slotIndex, now, deadline, ran.Downlink, dlBytes[i], p.rand))
			case ran.Special:
				// Special slots carry guard symbols plus reduced downlink.
				release(p.buildDir(cell, p.slotIndex, now, deadline, ran.Downlink, dlBytes[i]/2, p.rand))
			}
		}
	}
	p.slotIndex++
	p.report.Slots++
	// Refresh the churn EWMA: scheduling events during the last slot.
	slotMs := p.cfg.Cells[0].Numerology.SlotDuration().Ms()
	rate := float64(p.report.SchedulingEvents-p.eventsLastSlot) / slotMs
	p.eventsLastSlot = p.report.SchedulingEvents
	p.churnEWMA = 0.95*p.churnEWMA + 0.05*rate
	// Refresh the utilization EWMA at slot granularity.
	owned := p.ranCores
	u := 0.0
	if owned > 0 {
		u = float64(p.busyCores()) / float64(owned)
	}
	p.utilEWMA = 0.8*p.utilEWMA + 0.2*u
}

// getDAG pops a recycled DAG (slab and scratch capacity intact) or
// allocates a fresh one.
func (p *Pool) getDAG() *ran.DAG {
	if n := len(p.freeDAGs); n > 0 {
		d := p.freeDAGs[n-1]
		p.freeDAGs = p.freeDAGs[:n-1]
		return d
	}
	return new(ran.DAG)
}

// putDAG returns a DAG to the freelist. LIFO order: deterministic and
// cache-warm.
func (p *Pool) putDAG(d *ran.DAG) {
	if d != nil {
		p.freeDAGs = append(p.freeDAGs, d)
	}
}

// acquireRun pops a recycled dagRun (or grows the table) and resets it for
// d. Every task field is overwritten at admission, so a recycled slab leaks
// nothing between runs.
func (p *Pool) acquireRun(d *ran.DAG) *dagRun {
	var run *dagRun
	if n := len(p.freeRuns); n > 0 {
		run = p.runTable[p.freeRuns[n-1]]
		p.freeRuns = p.freeRuns[:n-1]
	} else {
		run = &dagRun{id: int32(len(p.runTable))}
		p.runTable = append(p.runTable, run)
	}
	n := len(d.Tasks)
	if c := cap(run.tasks); c < n {
		// At least double, as ran.DAG's slab grows: runs of every DAG size
		// share one freelist.
		run.tasks = make([]task, max(n, 2*c))
	}
	run.tasks = run.tasks[:n]
	run.dag = d
	run.unfinished = n
	run.refs = 0
	run.retired = false
	run.seq = 0
	run.remainingWork = 0
	run.frontier = run.frontier[:0]
	run.dropped = false
	run.cpuTime = 0
	run.offloadTime = 0
	p.pc.acquire(run)
	return run
}

// maybeRecycle returns a retired, unreferenced run (and its DAG) to the
// freelists. Callers invoke it wherever a reference drops; the guard makes
// over-calling harmless.
func (p *Pool) maybeRecycle(run *dagRun) {
	if !run.retired || run.refs != 0 {
		return
	}
	p.pc.recycle(run)
	run.retired = false // also guards against a double recycle
	p.putDAG(run.dag)
	run.dag = nil
	p.freeRuns = append(p.freeRuns, run.id)
}

// buildDir constructs the DAG for one direction, or nil for an idle slot.
// The graph comes from the DAG freelist; ownership passes to the released
// run (or back to the freelist on a fronthaul drop).
func (p *Pool) buildDir(cell ran.CellConfig, slot int, release, deadline sim.Time, dir ran.SlotDir, bytes int, r *rng.Rand) *ran.DAG {
	if bytes <= 0 {
		return nil
	}
	allocs := p.slotAlloc.Allocate(cell, bytes, r)
	if len(allocs) == 0 {
		return nil
	}
	if dir == ran.Uplink {
		return ran.BuildUplinkDAGInto(p.getDAG(), cell, slot, release, deadline, allocs)
	}
	return ran.BuildDownlinkDAGInto(p.getDAG(), cell, slot, release, deadline, allocs)
}

// releaseDAG admits a DAG: predicts every task's WCET, computes tail
// critical paths, and puts the roots on the frontier and enqueues them.
//
// lint:pool-owner — this is the pool's admission path. It checks the run out
// of the freelist and retains it (p.dags, task back-pointers) precisely
// because the pool owns run lifetimes from here until maybeRecycle.
func (p *Pool) releaseDAG(d *ran.DAG) {
	if d == nil {
		return
	}
	run := p.acquireRun(d)
	run.seq = p.dagSeq
	p.dagSeq++
	for _, n := range d.Tasks {
		pred := p.predictTask(n)
		run.tasks[n.ID] = task{dag: run, node: n, predicted: pred, missing: len(n.Deps), heapIndex: -1}
		run.remainingWork += pred
	}
	// Tail critical path: longest predicted path from each task to a sink,
	// computed in reverse topological (reverse ID) order.
	for i := len(run.tasks) - 1; i >= 0; i-- {
		t := &run.tasks[i]
		var best sim.Time
		for _, s := range t.node.Succs {
			if run.tasks[s].tailCP > best {
				best = run.tasks[s].tailCP
			}
		}
		t.tailCP = best + t.predicted
	}
	p.dags = append(p.dags, run)
	p.report.DAGsReleased++
	now := p.eng.Now()
	if p.trc != nil {
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvDAGRelease,
			Core: -1, Cell: int32(d.CellID), Slot: int32(d.Slot), Task: -1,
			A: run.seq, B: int64(d.Dir),
		})
	}
	for _, id := range d.Roots() {
		run.frontier = append(run.frontier, id)
		p.enqueue(&run.tasks[id], now)
	}
}

// predictTask returns the WCET prediction for one task, falling back to a
// margin over the cost model when the predictor set has no model (or no
// data) for the kind.
func (p *Pool) predictTask(n *ran.Task) sim.Time {
	if p.cfg.Accel != nil && p.cfg.Accel.Offloads(n.Kind) {
		cbs := int(n.Features.Get(ran.FCodeblocks))
		// A device that cannot produce an estimate (invalid rate) must not
		// predict "free" — fall through to the predictor/cost-model paths.
		if exp, err := p.cfg.Accel.Expected(n.Kind, cbs); err == nil {
			return p.cfg.Accel.SubmitCost() + exp
		}
	}
	if p.cfg.Predict != nil {
		if v := p.cfg.Predict.Predict(n.Kind, n.Features); v > 0 {
			return v
		}
	}
	// Fallback: 1.5× the isolated mean — a deliberately loose margin so an
	// absent model errs toward over-reservation.
	return sim.Time(1.5 * float64(p.cfg.CostModel.Mean(n.Kind, &n.Features, costmodel.Env{PoolCores: 1})))
}

// queueIndex maps a cell to its ready queue, and a core to the queue it
// serves: static partitioning binds core i to cell i mod cells, while the
// global pool serves one shared queue.
func (p *Pool) queueIndex(i int) int {
	if len(p.queues) == 1 {
		return 0
	}
	return i % len(p.queues)
}

func (p *Pool) readyTotal() int {
	n := 0
	for qi := range p.queues {
		n += p.queues[qi].Len()
	}
	return n
}

// pushReady marks t ready at now and inserts it into its EDF queue. Every
// heap insertion goes through here so the queueing-delay accounting and the
// task_enqueue trace event cover all paths (roots, successors, rotation
// handoffs).
func (p *Pool) pushReady(t *task, now sim.Time) {
	p.pc.checkLive(t.dag)
	t.readyAt = now
	p.queues[p.queueIndex(t.node.CellID)].push(t)
	if p.trc != nil {
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvTaskEnqueue,
			Core: -1, Cell: int32(t.node.CellID), Slot: int32(t.dag.dag.Slot),
			Task: int32(t.node.Kind), A: t.dag.seq, B: int64(t.node.ID),
		})
	}
}

// enqueue inserts a ready task and immediately dispatches if a RAN core is
// idle.
func (p *Pool) enqueue(t *task, now sim.Time) {
	p.pushReady(t, now)
	p.dispatch(now)
}

// dispatch assigns ready tasks to idle RAN cores (EDF order within each
// queue; in static-partition mode a core only serves its own cell's queue).
func (p *Pool) dispatch(now sim.Time) {
	for qi := range p.queues {
		for p.queues[qi].Len() > 0 {
			ci := p.idleRANCoreFor(qi)
			if ci < 0 {
				break
			}
			t := p.queues[qi].pop()
			p.startTask(ci, t, now)
		}
	}
}

func (p *Pool) idleRANCoreFor(qi int) int {
	for i := range p.cores {
		if p.cores[i].state == coreIdleRAN && p.queueIndex(i) == qi {
			return i
		}
	}
	return -1
}

func (p *Pool) idleRANCore() int {
	for i := range p.cores {
		if p.cores[i].state == coreIdleRAN {
			return i
		}
	}
	return -1
}

// startTask runs t on core ci. Offloadable tasks occupy the core only for
// the accelerator submit cost; the device completes them asynchronously.
func (p *Pool) startTask(ci int, t *task, now sim.Time) {
	p.accountCoreTime(now)
	p.dispatchTask(t, ci, now)
	c := &p.cores[ci]
	c.state = coreBusyRAN
	if p.cfg.Accel != nil && !t.noOffload && p.cfg.Accel.Offloads(t.node.Kind) {
		dur := p.cfg.Accel.SubmitCost()
		c.task = t
		p.eng.AfterKind(dur, p.kOffloadSubmitted, int64(ci), 0)
		return
	}
	p.execOnCore(ci, t, now)
}

// dispatchTask starts t at now: its run gains a reference (the core, or a
// batch follower's completion event) and its queueing delay is accounted.
// ci is the core taking t, or -1 for a follower riding a batch transfer.
func (p *Pool) dispatchTask(t *task, ci int, now sim.Time) {
	p.pc.checkLive(t.dag)
	t.dag.refs++
	t.running = true
	t.started = now
	p.report.TasksExecuted++
	if p.trc != nil {
		delay := now - t.readyAt
		p.report.observeQueueDelay(t.node.CellID, delay)
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvTaskDispatch,
			Core: int32(ci), Cell: int32(t.node.CellID), Slot: int32(t.dag.dag.Slot),
			Task: int32(t.node.Kind), Dur: delay, A: t.dag.seq, B: int64(t.node.ID),
		})
	}
}

// taskDuration samples t's software execution time, applying any injected
// WCET overrun. The overrun decision is keyed on the task's identity, not
// the attempt, so a task that overruns keeps overrunning on retry — it
// models a mispredicted input, not transient noise.
func (p *Pool) taskDuration(t *task, now sim.Time) sim.Time {
	dur := p.cfg.CostModel.Sample(t.node.Kind, &t.node.Features, p.env())
	if p.flt != nil {
		if factor, ok := p.flt.Overrun(t.dag.seq, int64(t.node.ID)); ok {
			extra := sim.Time(float64(dur) * (factor - 1))
			dur += extra
			p.taskFault(now, faults.TaskOverrun, t, extra)
		}
	}
	return dur
}

// execOnCore runs t's software path on core ci: every CPU task, including
// the fallback for offloads that were rejected, failed, or timed out.
func (p *Pool) execOnCore(ci int, t *task, now sim.Time) {
	c := &p.cores[ci]
	dur := p.taskDuration(t, now)
	c.task = t
	p.eng.AfterKind(dur, p.kTaskDone, int64(ci), 0)
}

// onOffloadSubmitted hands the core's current task to the accelerator and
// frees the core for other work.
func (p *Pool) onOffloadSubmitted(ci int) {
	now := p.eng.Now()
	p.accountCoreTime(now)
	c := &p.cores[ci]
	t := c.task
	c.task = nil
	run := t.dag
	run.cpuTime += p.cfg.Accel.SubmitCost()
	if p.flt != nil && p.flt.LaneFails(run.seq, int64(t.node.ID), t.retries) {
		// Injected lane failure: the device rejects the transfer outright.
		p.offloadRejected(ci, t, now, errLaneFailure)
		return
	}
	if p.flt != nil && p.flt.OffloadStuck(run.seq, int64(t.node.ID), t.retries) {
		// Injected stuck offload: the request vanishes inside the device and
		// no completion will ever fire. A virtual-time watchdog detects the
		// loss; the core moves on in the meantime. The core's run ref moves to
		// the watchdog event (net zero).
		timeout := p.flt.StuckTimeout()
		p.taskFault(now, faults.StuckOffload, t, timeout)
		p.eng.AfterKind(timeout, p.kOffloadTimeout, int64(run.id), int64(t.node.ID))
		p.coreAfterTask(ci, nil, now)
		return
	}
	p.submitOffload(ci, t, now)
}

// errLaneFailure routes an injected lane failure through offloadRejected.
var errLaneFailure = errors.New("pool: injected lane failure")

// offloadRejected recovers a task whose offload never reached the device —
// an injected lane failure, or a submission the device rejected (wrong
// kind, invalid rate, VF queue backpressure, or the whole fleet in reset) —
// by executing it in software on the submitting core (the core keeps its run
// ref; execOnCore re-attaches the task).
func (p *Pool) offloadRejected(ci int, t *task, now sim.Time, err error) {
	class, injected := faults.LaneFailure, false
	switch err {
	case errLaneFailure:
		injected = true
	case accel.ErrDeviceDown:
		// Whole-fleet outage: inject a device-reset fault event keyed on
		// this DAG so the autopsy can attribute the miss to the reset.
		class, injected = faults.DeviceReset, true
	case accel.ErrQueueFull:
		p.report.OffloadQueueFull++
	}
	if p.flt != nil {
		p.report.Faults.CPUFallbacks++
		if injected {
			p.taskFault(now, class, t, 0)
		}
		p.taskRecover(now, class, recoverCPUFallback, t)
	}
	p.execOnCore(ci, t, now)
}

// batchLess orders batch followers by the ready queue's EDF key (deadline,
// readyAt, node ID) extended with the DAG release sequence, making the order
// total — two cells' tasks can tie on the heap key, and scratch selection
// must not depend on heap layout.
func batchLess(a, b *task) bool {
	if a.dag.dag.Deadline != b.dag.dag.Deadline {
		return a.dag.dag.Deadline < b.dag.dag.Deadline
	}
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	if a.dag.seq != b.dag.seq {
		return a.dag.seq < b.dag.seq
	}
	return a.node.ID < b.node.ID
}

// batchInsert keeps batchTasks[1:] the EDF-least candidates seen so far,
// sorted, capped so the whole batch (lead included) stays within limit.
func (p *Pool) batchInsert(cand *task, limit int) {
	bt := p.batchTasks
	if len(bt) < limit {
		p.batchTasks = append(bt, cand)
	} else if batchLess(cand, bt[len(bt)-1]) {
		bt[len(bt)-1] = cand
	} else {
		return
	}
	bt = p.batchTasks
	for i := len(bt) - 1; i > 1 && batchLess(bt[i], bt[i-1]); i-- {
		bt[i], bt[i-1] = bt[i-1], bt[i]
	}
}

// clearBatch drops the scratch's task references so recycled runs are never
// reachable from the pool between batches.
func (p *Pool) clearBatch() {
	for i := range p.batchTasks {
		p.batchTasks[i] = nil
	}
	p.batchTasks = p.batchTasks[:0]
}

// submitOffload hands the lead task to the accelerator as one DMA transfer;
// per-task submission is a batch of one. With OffloadBatch > 1 the transfer
// also carries ready offloadable tasks of the same kind from the lead's
// queue, amortizing SubmitCost across the batch. Scheduler-aware admission:
// followers join in EDF order and only while the no-queueing device
// estimate still meets their deadline — a task the batch would make late
// keeps its own core-paced submission. Followers the device rejects (queue
// full, device down) simply stay queued and retry through the normal
// dispatch path; a rejected lead falls back to the CPU.
func (p *Pool) submitOffload(ci int, lead *task, now sim.Time) {
	kind := lead.node.Kind
	qi := p.queueIndex(lead.node.CellID)
	p.batchTasks = append(p.batchTasks[:0], lead)
	// A batch of one must not scan: batchInsert would replace the lead.
	if p.cfg.OffloadBatch > 1 {
		for _, cand := range p.queues[qi] {
			if cand.node.Kind != kind || cand.noOffload {
				continue
			}
			est, err := p.cfg.Accel.Expected(kind, int(cand.node.Features.Get(ran.FCodeblocks)))
			if err != nil || now+est > cand.dag.dag.Deadline {
				continue
			}
			p.batchInsert(cand, p.cfg.OffloadBatch)
		}
	}
	p.batchCbs = p.batchCbs[:0]
	for _, bt := range p.batchTasks {
		p.batchCbs = append(p.batchCbs, int(bt.node.Features.Get(ran.FCodeblocks)))
	}
	if cap(p.batchDones) < len(p.batchTasks) {
		p.batchDones = make([]sim.Time, len(p.batchTasks))
	}
	dones := p.batchDones[:len(p.batchTasks)]
	accepted, err := p.cfg.Accel.SubmitBatch(now, kind, p.batchCbs, dones)
	if accepted == 0 {
		p.clearBatch()
		p.offloadRejected(ci, lead, now, err)
		return
	}
	// Each accepted task's run ref moves to its completion event: the lead's
	// from the core (net zero), a follower's from dispatchTask.
	for i, t := range p.batchTasks[:accepted] {
		if i > 0 {
			p.dispatchTask(t, -1, now)
			p.queues[qi].removeAt(t.heapIndex)
		}
		t.dag.offloadTime += dones[i] - now
		p.eng.AtKind(dones[i], p.kOffloadDone, int64(t.dag.id), int64(t.node.ID))
	}
	if accepted > 1 {
		p.report.OffloadBatches++
		p.report.BatchedTasks += uint64(accepted - 1)
		saved := sim.Time(accepted-1) * p.cfg.Accel.SubmitCost()
		p.report.SubmitSaved += saved
		if p.trc != nil {
			totalCbs := 0
			for _, cbs := range p.batchCbs[:accepted] {
				totalCbs += cbs
			}
			p.trc.Emit(telemetry.Event{
				At: now, Kind: telemetry.EvBatchSubmit,
				Core: int32(ci), Cell: int32(lead.node.CellID), Slot: int32(lead.dag.dag.Slot),
				Task: int32(kind), Dur: saved, A: int64(accepted), B: int64(totalCbs),
			})
		}
	}
	p.clearBatch()
	p.coreAfterTask(ci, nil, now)
}

// onReconcile is the device-fleet reconciliation loop: poll each device's
// injected reset window, propagate membership transitions to the
// accelerator, and re-partition VF queue depths when membership changed.
// Degradation is graceful by construction — a submission hitting a downed
// fleet flows through offloadRejected's CPU-fallback path.
func (p *Pool) onReconcile(now sim.Time) {
	acc := p.cfg.Accel
	changed := false
	for d := range acc.DeviceCount() {
		down := p.flt.DeviceDown(d, now)
		if !acc.SetDeviceDown(d, down) {
			continue
		}
		changed = true
		if p.trc != nil {
			state := int64(0)
			if down {
				state = 1
			}
			p.trc.Emit(telemetry.Event{
				At: now, Kind: telemetry.EvDeviceReset,
				Core: -1, Cell: -1, Slot: -1, Task: -1,
				A: int64(d), B: state,
			})
		}
	}
	if changed {
		alive := acc.Reconcile()
		if p.trc != nil {
			p.trc.Emit(telemetry.Event{
				At: now, Kind: telemetry.EvReconcile,
				Core: -1, Cell: -1, Slot: -1, Task: -1,
				A: int64(alive), B: int64(acc.DeviceCount()),
			})
		}
	}
}

// onOffloadTimeout fires the stuck-offload watchdog: the submitted request
// is declared lost. The task retries (with deterministic virtual-time
// backoff) while its bounded retry budget lasts; after that it is pinned to
// the CPU path, and if its DAG is already past deadline by then the DAG is
// abandoned and counted rather than left to wedge the pool.
func (p *Pool) onOffloadTimeout(t *task) {
	run := t.dag
	run.refs-- // the watchdog event just fired
	if t.done || run.dropped {
		p.maybeRecycle(run)
		return
	}
	now := p.eng.Now()
	p.report.Faults.OffloadTimeouts++
	t.running = false
	t.retries++
	if t.retries > p.flt.MaxRetries() {
		t.noOffload = true
		if now > run.dag.Deadline {
			p.taskRecover(now, faults.StuckOffload, recoverAbandon, t)
			p.report.Faults.AbandonedDAGs++
			p.retireDAG(run, now, true)
			return
		}
		p.report.Faults.CPUFallbacks++
		p.taskRecover(now, faults.StuckOffload, recoverCPUFallback, t)
	} else {
		p.report.Faults.OffloadRetries++
		p.taskRecover(now, faults.StuckOffload, recoverOffloadRetry, t)
	}
	// The backoff event holds a ref: fault paths are rare, so a closure here
	// is fine — but it must keep the run alive until it fires.
	run.refs++
	p.eng.After(p.flt.Backoff(t.retries), func() {
		run.refs--
		if t.done || run.dropped {
			p.maybeRecycle(run)
			return
		}
		p.enqueue(t, p.eng.Now())
	})
}

// onOffloadDone completes an accelerator task (no core is involved).
func (p *Pool) onOffloadDone(t *task) {
	now := p.eng.Now()
	p.completeTask(t, -1, now)
	p.dispatch(now)
}

// onTaskDone completes the task on core ci and either continues with a
// successor (the cache-locality "keep one task" rule), picks the EDF head,
// or yields the core if the scheduler shrank the pool.
func (p *Pool) onTaskDone(ci int) {
	now := p.eng.Now()
	p.accountCoreTime(now)
	c := &p.cores[ci]
	t := c.task
	c.task = nil
	p.coreAfterTask(ci, p.completeTask(t, ci, now), now)
}

// completeTask records t's completion at now, takes t off its DAG's
// frontier and, unless the DAG was dropped (its data is gone), releases its
// successors and retires the DAG after its last task. ci is the core that
// ran t, or -1 when the accelerator did; a core keeps the first ready
// successor, which is returned, for cache locality.
func (p *Pool) completeTask(t *task, ci int, now sim.Time) (keep *task) {
	t.running = false
	t.done = true
	run := t.dag
	run.refs-- // the core or the completion event detaches
	run.unfinished--
	f := run.frontier
	i := slices.Index(f, t.node.ID)
	f[i] = f[len(f)-1]
	run.frontier = f[:len(f)-1]
	run.remainingWork -= t.predicted
	if run.remainingWork < 0 {
		run.remainingWork = 0
	}
	elapsed := now - t.started
	if ci >= 0 {
		run.cpuTime += elapsed
		// Online training: feed the measured software runtime back.
		if p.cfg.Predict != nil {
			p.cfg.Predict.Observe(t.node.Kind, t.node.Features, elapsed)
		}
	}
	p.cfg.SLO.RecordTask(now, int32(t.node.CellID), elapsed)
	p.report.observeTask(t.node.Kind, elapsed)
	if p.trc != nil {
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvTaskComplete,
			Core: int32(ci), Cell: int32(t.node.CellID), Slot: int32(run.dag.Slot),
			Task: int32(t.node.Kind), Dur: elapsed, A: run.seq, B: int64(t.node.ID),
		})
		p.predictSample(now, t, elapsed)
	}
	if run.dropped {
		p.maybeRecycle(run)
		return nil
	}
	keep = p.releaseSuccessors(t, now, ci >= 0)
	if run.unfinished == 0 {
		p.retireDAG(run, now, false)
	}
	return keep
}

// releaseSuccessors moves every successor of t whose last dependency t
// was onto the frontier and queues it. With keepOne the first of them is
// returned instead of queued.
func (p *Pool) releaseSuccessors(t *task, now sim.Time, keepOne bool) (keep *task) {
	for _, s := range t.node.Succs {
		st := &t.dag.tasks[s]
		st.missing--
		if st.missing != 0 {
			continue
		}
		t.dag.frontier = append(t.dag.frontier, s)
		if keepOne && keep == nil {
			keep = st
		} else {
			p.pushReady(st, now)
		}
	}
	return keep
}

// coreAfterTask decides what core ci does after finishing (or handing off)
// a task: drain for rotation, continue with a kept successor, pick the EDF
// head of its queue, yield if the scheduler shrank the pool, or idle.
func (p *Pool) coreAfterTask(ci int, keep *task, now sim.Time) {
	c := &p.cores[ci]
	if c.drain {
		// Rotation drain: hand this core back regardless of target.
		c.drain = false
		if keep != nil {
			p.pushReady(keep, now)
		}
		p.yieldCore(ci, now)
		p.dispatch(now)
		return
	}
	// The storm query stays at every completion: the injector counts a
	// storm only when it is asked inside it, and a storm can be shorter
	// than a scheduler interval.
	avail := p.stormAvail(now)
	target := -1 // not asked yet
	if !p.lazyTarget {
		// A policy with side effects is asked at every completion: its ±1
		// state steps, or its decisions are counted, on each call.
		target = p.coreTarget(now, avail)
	}
	qi := p.queueIndex(ci)
	switch {
	case keep != nil:
		// Cache locality: continue with one spawned successor directly. The
		// task is ready the instant it starts, so its queueing delay is zero.
		keep.readyAt = now
		p.startTask(ci, keep, now)
		p.dispatch(now)
	case p.queues[qi].Len() > 0:
		// An owned core always drains pending work before yielding — idling
		// a held core while its queue is non-empty only adds latency.
		next := p.queues[qi].pop()
		p.startTask(ci, next, now)
	default:
		// A core beyond the target yields at once, unless a release
		// hysteresis keeps it reserved whatever the target: the periodic
		// release sweep yields it once it has lingered idle past that.
		if p.cfg.ReleaseHysteresis == 0 {
			if target < 0 {
				target = p.coreTarget(now, avail)
			}
			if p.ranCores > target {
				p.yieldCore(ci, now)
				return
			}
		}
		c.state = coreIdleRAN
		c.idleSince = now
	}
}

// coreTarget asks the policy for its core target at now, capped at avail,
// the cores a yield storm leaves.
func (p *Pool) coreTarget(now sim.Time, avail int) int {
	return min(p.cfg.Scheduler.Cores(p.schedulerState(now)), avail)
}

// stormAvail returns how many pool cores the RAN may own right now: all of
// them normally, fewer during an injected core-yield storm (the host yanks
// cores back for its own work; at least one always remains).
func (p *Pool) stormAvail(now sim.Time) int {
	avail := p.cfg.PoolCores
	if p.flt != nil {
		if stolen := p.flt.StolenCores(now, p.cfg.PoolCores); stolen > 0 {
			avail -= stolen
			if avail < 1 {
				avail = 1
			}
		}
	}
	return avail
}

// retireDAG takes a DAG out of flight at now and scores it against the
// deadline — the reliability every figure reports. A dropped DAG (expired
// under DropLateDAGs, or abandoned by stuck-offload recovery) is a miss: its
// queued tasks are withdrawn and its running ones finish without spawning
// successors. The run is recycled once its last reference resolves.
func (p *Pool) retireDAG(run *dagRun, now sim.Time, dropped bool) {
	if i := slices.Index(p.dags, run); i >= 0 {
		p.dags = slices.Delete(p.dags, i, i+1)
	}
	d := run.dag
	latency := now - d.Release
	// Every DAG is scored against the PHY deadline, MAC DAGs included,
	// although theirs is one slot.
	missed := dropped || latency > p.cfg.Deadline
	if dropped {
		run.dropped = true
		for i := range run.tasks {
			t := &run.tasks[i]
			if t.done || t.running {
				continue
			}
			if t.heapIndex >= 0 {
				p.queues[p.queueIndex(t.node.CellID)].removeAt(t.heapIndex)
			}
			t.done = true
		}
		p.report.DAGsDropped++
	} else {
		p.report.observeDAGTimes(d.Dir, run.cpuTime, run.offloadTime, latency)
	}
	p.cfg.SLO.RecordDAG(now, int32(d.CellID), latency, missed)
	p.report.observeDAG(d.Dir, latency, missed)
	p.report.observeCellDAG(d.CellID, missed, dropped)
	if p.trc != nil {
		ev := telemetry.Event{
			At: now, Kind: telemetry.EvDAGComplete,
			Core: -1, Cell: int32(d.CellID), Slot: int32(d.Slot), Task: -1,
			Dur: latency, A: run.seq, B: int64(d.Dir),
		}
		if dropped {
			ev.Kind = telemetry.EvDAGDrop
		}
		p.trc.Emit(ev)
		if missed {
			ev.Kind = telemetry.EvDeadlineMiss
			p.trc.Emit(ev)
		}
	}
	run.retired = true
	p.maybeRecycle(run)
}

// schedulerState snapshots the pool for the scheduling policy.
func (p *Pool) schedulerState(now sim.Time) scheduler.PoolState {
	st := scheduler.PoolState{
		Now:          now,
		TotalCores:   p.cfg.PoolCores,
		Utilization:  p.utilEWMA,
		RunningTasks: p.busyCores(),
	}
	st.ReadyTasks = p.readyTotal()
	if st.ReadyTasks > 0 {
		var oldest sim.Time = -1
		for qi := range p.queues {
			for _, t := range p.queues[qi] {
				if oldest < 0 || t.readyAt < oldest {
					oldest = t.readyAt
				}
			}
		}
		st.OldestReadyAge = now - oldest
	}
	// st.DAGs reuses the pool's scratch slice; policies must not retain it
	// past the Cores call (none do — see scheduler package contract).
	// Only frontier tasks can run, and every other unfinished task descends
	// from one whose tail is at least its own, so the frontier gives the
	// same work and critical path as a scan of every task (DESIGN.md §4).
	st.DAGs = p.stDAGs[:0]
	for _, run := range p.dags {
		work := run.remainingWork
		var cp sim.Time
		for _, id := range run.frontier {
			t := &run.tasks[id]
			tail := t.tailCP
			if t.running {
				elapsed := now - t.started
				if elapsed < t.predicted {
					tail -= elapsed
					work -= elapsed
				} else {
					tail -= t.predicted
					work -= t.predicted
				}
			}
			if tail > cp {
				cp = tail
			}
		}
		if work < 0 {
			work = 0
		}
		st.DAGs = append(st.DAGs, scheduler.DAGState{
			Deadline:              run.dag.Deadline,
			RemainingWork:         work,
			RemainingCriticalPath: cp,
		})
	}
	p.stDAGs = st.DAGs
	return st
}

// onSchedulerTick applies the policy's core target.
func (p *Pool) onSchedulerTick(now sim.Time) {
	if p.cfg.DropLateDAGs {
		p.dropExpired(now)
	}
	target := p.cfg.Scheduler.Cores(p.schedulerState(now))
	if p.trc != nil && target != p.lastTarget {
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvSchedDecision,
			Core: int32(p.ranCores), Cell: -1, Slot: -1, Task: -1,
			A: int64(p.lastTarget), B: int64(target),
		})
		p.lastTarget = target
	}
	p.applyTarget(target, now)
}

// dropExpired drops every in-flight DAG whose deadline has passed.
func (p *Pool) dropExpired(now sim.Time) {
	for i := 0; i < len(p.dags); {
		if run := p.dags[i]; now > run.dag.Deadline && run.unfinished > 0 {
			p.retireDAG(run, now, true) // removes p.dags[i]
			continue
		}
		i++
	}
}

// applyTarget acquires or releases cores toward the target count. Policies
// that compensate for slow wakeups (Concordia) discount cores stuck in the
// waking state beyond two scheduling intervals and acquire replacements —
// the §6.2 mechanism that keeps one non-preemptible kernel episode from
// stalling a DAG.
func (p *Pool) applyTarget(target int, now sim.Time) {
	if target > p.cfg.PoolCores {
		target = p.cfg.PoolCores
	}
	stormAvail := p.stormAvail(now)
	if target > stormAvail {
		target = stormAvail
	}
	stuck := 0
	if p.cfg.Scheduler.CompensatesWakeups() {
		threshold := 2 * p.cfg.Scheduler.Interval()
		for i := range p.cores {
			if p.cores[i].state == coreWaking && now-p.cores[i].wakeStart > threshold {
				stuck++
			}
		}
	}
	for p.ranCores-stuck < target && p.ranCores < p.cfg.PoolCores {
		ci := p.acquirableCore()
		if ci < 0 {
			break
		}
		p.acquireCore(ci, now)
	}
	// Release surplus idle cores (busy cores release on completion).
	for p.ranCores-stuck > target {
		ci := p.releasableNonStuckCore(now, stuck > 0)
		if ci < 0 {
			break
		}
		p.yieldCore(ci, now)
	}
	// Yield storm: the host is yanking cores back right now, so surplus
	// non-busy cores go immediately, hysteresis notwithstanding (a busy core
	// finishes its task first; coreAfterTask then weighs it against the
	// target capped at the storm's avail).
	for p.ranCores > stormAvail {
		ci := p.stormYieldCandidate()
		if ci < 0 {
			break
		}
		p.yieldCore(ci, now)
		p.report.Faults.StormYields++
		p.recoverTrace(now, faults.YieldStorm, recoverStormYield, -1, -1, -1)
	}
}

// stormYieldCandidate prefers idle cores, then waking ones; busy cores are
// never interrupted mid-task.
func (p *Pool) stormYieldCandidate() int {
	for i := range p.cores {
		if p.cores[i].state == coreIdleRAN {
			return i
		}
	}
	for i := range p.cores {
		if p.cores[i].state == coreWaking {
			return i
		}
	}
	return -1
}

// releasableNonStuckCore prefers idle cores that have lingered past the
// release hysteresis; when stuck compensation is active, waking cores are
// kept (they will be released once awake and surplus).
func (p *Pool) releasableNonStuckCore(now sim.Time, keepWaking bool) int {
	for i := range p.cores {
		if p.cores[i].state == coreIdleRAN && now-p.cores[i].idleSince >= p.cfg.ReleaseHysteresis {
			return i
		}
	}
	if keepWaking {
		return -1
	}
	for i := range p.cores {
		if p.cores[i].state == coreWaking {
			return i
		}
	}
	return -1
}

// acquirableCore picks the next core to acquire, preferring partitions with
// pending work when statically partitioned.
func (p *Pool) acquirableCore() int {
	if len(p.queues) > 1 {
		for i := range p.cores {
			if p.cores[i].state == coreBestEffort && p.queues[p.queueIndex(i)].Len() > 0 {
				return i
			}
		}
	}
	return p.bestEffortCore()
}

func (p *Pool) bestEffortCore() int {
	for i := range p.cores {
		if p.cores[i].state == coreBestEffort {
			return i
		}
	}
	return -1
}

// acquireCore preempts best-effort work on core ci; the RAN worker becomes
// runnable after the OS wakeup latency.
func (p *Pool) acquireCore(ci int, now sim.Time) {
	p.accountCoreTime(now)
	c := &p.cores[ci]
	c.state = coreWaking
	c.wakeStart = now
	p.ranCores++
	p.report.SchedulingEvents++
	p.report.Preemptions++
	retention := float64(p.ranCores) / float64(p.cfg.PoolCores)
	lat := p.cfg.Platform.WakeupLatency(platform.WakeupEnv{
		Interference: p.interferenceBase(),
		Retention:    retention,
	})
	p.report.observeWakeup(lat)
	if p.trc != nil {
		active := 0
		if p.cfg.Workload != nil {
			active = len(p.cfg.Workload.ActiveAt(now))
		}
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvCoreAcquire,
			Core: int32(ci), Cell: -1, Slot: -1, Task: -1,
			A: int64(p.ranCores), B: int64(active),
		})
	}
	c.wakeEv = p.eng.AfterKind(lat, p.kCoreAwake, int64(ci), 0)
}

// interferenceBase is the workload pressure unscaled by core share (kernel
// noise follows the machine-wide workload, not the RAN's share).
func (p *Pool) interferenceBase() float64 {
	base := 0.0
	if p.cfg.Workload != nil {
		base = p.cfg.Workload.InterferenceAt(p.eng.Now())
	}
	if p.flt != nil {
		base = workloads.CombineInterference(base, p.flt.BurstInterference(p.eng.Now()))
	}
	return base
}

func (p *Pool) onCoreAwake(ci int) {
	c := &p.cores[ci]
	if c.state != coreWaking {
		return
	}
	c.wakeEv = sim.EventHandle{}
	c.state = coreIdleRAN
	c.idleSince = p.eng.Now()
	if p.trc != nil {
		p.trc.Emit(telemetry.Event{
			At: p.eng.Now(), Kind: telemetry.EvCoreAwake,
			Core: int32(ci), Cell: -1, Slot: -1, Task: -1, Dur: p.eng.Now() - c.wakeStart,
		})
	}
	p.dispatch(p.eng.Now())
}

// yieldCore returns core ci to best-effort workloads.
func (p *Pool) yieldCore(ci int, now sim.Time) {
	p.accountCoreTime(now)
	c := &p.cores[ci]
	if c.state == coreWaking && c.wakeEv.Valid() {
		p.eng.Cancel(c.wakeEv)
		c.wakeEv = sim.EventHandle{}
	}
	c.state = coreBestEffort
	p.ranCores--
	p.report.SchedulingEvents++
	if p.trc != nil {
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvCoreYield,
			Core: int32(ci), Cell: -1, Slot: -1, Task: -1,
			A: int64(p.ranCores),
		})
	}
}

// rotatePeriod is the core-rotation interval (2 ms in the paper).
const rotatePeriod = 2 * sim.Millisecond

// onRotate swaps one owned core for an unowned one (the 2 ms rotation that
// lets unmigratable kernel work run on every core eventually). An idle RAN
// core swaps immediately; a busy one is marked to drain — it yields when its
// current task completes while a replacement is acquired now.
func (p *Pool) onRotate(now sim.Time) {
	if p.ranCores == 0 || p.ranCores == p.cfg.PoolCores {
		return
	}
	if ci := p.idleRANCore(); ci >= 0 {
		if bj := p.partnerCore(ci); bj >= 0 {
			p.yieldCore(ci, now)
			p.acquireCore(bj, now)
			p.noteRotation(ci, bj, now)
		}
		return
	}
	for i := range p.cores {
		if p.cores[i].state == coreBusyRAN && !p.cores[i].drain {
			bj := p.partnerCore(i)
			if bj < 0 {
				continue
			}
			p.cores[i].drain = true
			p.acquireCore(bj, now)
			p.noteRotation(i, bj, now)
			return
		}
	}
	// No idle or busy candidate: move a still-waking worker to a different
	// physical core (the signal simply lands elsewhere).
	for i := range p.cores {
		if p.cores[i].state == coreWaking {
			bj := p.partnerCore(i)
			if bj < 0 {
				continue
			}
			p.yieldCore(i, now)
			p.acquireCore(bj, now)
			p.noteRotation(i, bj, now)
			return
		}
	}
}

// noteRotation records one rotation swap (core from yielded, core to
// acquired) in the report and the telemetry stream.
func (p *Pool) noteRotation(from, to int, now sim.Time) {
	p.report.Rotations++
	if p.trc != nil {
		p.trc.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvCoreRotate,
			Core: int32(from), Cell: -1, Slot: -1, Task: -1,
			A: int64(to),
		})
	}
}

// partnerCore returns a best-effort core that can replace core ci in a
// rotation: any core in global-pool mode, a same-partition core otherwise.
func (p *Pool) partnerCore(ci int) int {
	for j := range p.cores {
		if p.cores[j].state != coreBestEffort {
			continue
		}
		if len(p.queues) == 1 || p.queueIndex(j) == p.queueIndex(ci) {
			return j
		}
	}
	return -1
}

// busyCores counts the cores executing a RAN task.
func (p *Pool) busyCores() int {
	busy := 0
	for i := range p.cores {
		if p.cores[i].state == coreBusyRAN {
			busy++
		}
	}
	return busy
}

// accountCoreTime integrates RAN-owned and best-effort core time up to now.
func (p *Pool) accountCoreTime(now sim.Time) {
	dt := now - p.lastAcc
	if dt <= 0 {
		return
	}
	p.lastAcc = now
	seconds := dt.Seconds()
	p.report.RANCoreSeconds += seconds * float64(p.ranCores)
	p.report.BusyCoreSeconds += seconds * float64(p.busyCores())
	be := float64(p.cfg.PoolCores - p.ranCores)
	p.report.BestEffortCoreSeconds += seconds * be
	if p.cfg.Workload != nil {
		active := p.cfg.Workload.ActiveAt(now)
		if len(active) > 0 {
			share := seconds * be / float64(len(active))
			for _, k := range active {
				p.report.workloadCoreSeconds[k] += share
			}
		}
	}
}

func (c coreState) String() string {
	switch c {
	case coreBestEffort:
		return "best-effort"
	case coreWaking:
		return "waking"
	case coreIdleRAN:
		return "idle"
	case coreBusyRAN:
		return "busy"
	default:
		return fmt.Sprintf("coreState(%d)", int(c))
	}
}

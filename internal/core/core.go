// Package core assembles the complete Concordia system: the offline
// profiling and training pipeline (Algorithm 1 per signal-processing task),
// the per-task quantile-tree predictor set, and the vRAN pool with the
// chosen scheduler, traffic, platform and collocated workloads. It is the
// integration layer the public concordia package and the experiment harness
// build on.
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"concordia/internal/accel"
	"concordia/internal/costmodel"
	"concordia/internal/faults"
	"concordia/internal/parallel"
	"concordia/internal/platform"
	"concordia/internal/pool"
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

// SchedulerKind selects the core-allocation policy.
type SchedulerKind string

// Supported policies.
const (
	SchedConcordia   SchedulerKind = "concordia"
	SchedFlexRAN     SchedulerKind = "flexran"
	SchedShenango    SchedulerKind = "shenango"
	SchedUtilization SchedulerKind = "utilization"
)

// Config describes one Concordia deployment scenario.
type Config struct {
	Cells       []ran.CellConfig
	PoolCores   int
	Scheduler   SchedulerKind
	Workload    workloads.Kind
	Load        float64
	Deadline    sim.Time
	PeakULBytes int
	PeakDLBytes int
	Seed        uint64
	// UseAccel offloads LDPC processing to the modeled FPGA (§7).
	UseAccel bool
	// AccelDevices > 1 replaces the single default FPGA with a fleet of
	// ACC100-like cards, each with two engines; AccelVFs partitions each card
	// into SR-IOV virtual functions and AccelQueueDepth bounds each VF's
	// per-queue-group admission (0 = unbounded). Ignored unless UseAccel.
	AccelDevices    int
	AccelVFs        int
	AccelQueueDepth int
	// OffloadBatch > 1 lets a submitting core coalesce up to that many
	// same-kind ready offloadable tasks into one DMA transfer, amortizing
	// the submit cost (the accelsweep experiment sweeps this knob).
	OffloadBatch int
	// IncludeMAC multiplexes the §7 MAC-layer scheduling extension on the
	// same pool (one MAC DAG per cell per slot, one-slot deadline).
	IncludeMAC bool
	// ULTrace/DLTrace replay captured traces instead of synthetic traffic
	// (looped; volumes scaled by TraceScale). Both must cover the cell
	// count.
	ULTrace, DLTrace *traffic.Trace
	// TraceScale multiplies replayed volumes (the paper scales its LTE
	// captures >10x for 5G benchmarks); 0 means 1.
	TraceScale float64
	// TrainingSlots is the number of offline profiling TTIs used to build
	// the quantile trees (0 selects the default).
	TrainingSlots int
	// Workers bounds the worker goroutines used for parallelizable setup
	// work (per-task-kind predictor training): 0 = runtime.NumCPU(), 1 =
	// fully serial. The trained system is bit-for-bit identical for every
	// setting — each task kind trains from its own sample set.
	Workers int
	// Predictor overrides the trained quantile trees when non-nil
	// (experiments inject linear/boosting/EVT baselines through this).
	Predictor pool.Predictors
	// Ablation disables individual Concordia mechanisms for the ablation
	// study; the zero value is the full system.
	Ablation Ablation
	// Telemetry, when non-nil, records the structured event trace and metrics
	// time series for the run (internal/telemetry); export with the System's
	// WriteChromeTrace / WriteMetricsCSV. Nil (the default) disables telemetry
	// at near-zero cost.
	Telemetry *telemetry.Recorder
	// SLO, when non-nil, attaches the streaming SLO plane (internal/slo):
	// windowed quantile sketches, per-slice burn-rate alerts and the health
	// report, exported with WriteSLOCSV / WriteSLOReport. A zero Deadline in
	// the options inherits the system deadline; events flow into Telemetry's
	// tracer when that is also enabled.
	SLO *slo.Options
	// Faults, when non-nil with positive rates, enables the deterministic
	// chaos injector (internal/faults): lane failures, stuck offloads, WCET
	// overruns, interference bursts, core-yield storms, and late/dropped
	// fronthaul. Nil or all-zero leaves every output byte-identical.
	Faults *faults.Config
	// DropLateDAGs abandons a DAG's remaining work once its deadline passes
	// (counted as a dropped miss). Chaos runs enable it so one faulted slot
	// cannot cascade into its successors.
	DropLateDAGs bool
}

// Ablation switches off individual Concordia mechanisms so their
// contribution can be measured (the design choices DESIGN.md calls out).
type Ablation struct {
	// NoWakeupCompensation disables stuck-core replacement at the 20 µs tick.
	NoWakeupCompensation bool
	// NoOnlineAdaptation freezes the predictors after offline training
	// (Algorithm 2's training step skipped).
	NoOnlineAdaptation bool
	// NoHysteresis releases idle cores immediately instead of bridging
	// inter-TTI gaps.
	NoHysteresis bool
}

// frozenPredictors wraps a predictor set and drops online observations.
type frozenPredictors struct{ inner pool.Predictors }

func (f frozenPredictors) Predict(kind ran.TaskKind, fv ran.FeatureVector) sim.Time {
	return f.inner.Predict(kind, fv)
}

func (f frozenPredictors) Observe(ran.TaskKind, ran.FeatureVector, sim.Time) {}

// The baselines' thresholds (§6.3) and the margin on tree predictions.
const (
	// shenangoThreshold is the Shenango baseline's queueing-delay threshold.
	shenangoThreshold = 25 * sim.Microsecond
	// utilizationThreshold is the utilization baseline's threshold.
	utilizationThreshold = 0.6
	// predictorMargin scales tree predictions: 1.0 is Algorithm 2 exactly.
	predictorMargin = 1.0
)

// DefaultTrainingSlots is the offline profiling length when unspecified:
// enough TTIs that every task kind collects thousands of samples (the paper
// gathers 500 K samples offline).
const DefaultTrainingSlots = 4000

// Scenario presets matching the paper's Table 1/2.
//
// Scenario100MHz returns the 2-cell 100 MHz TDD deployment (1.5 ms
// deadline, 12-core-class pool).
func Scenario100MHz(cells, cores int) Config {
	return Config{
		Cells:       ran.Cells100MHz(cells),
		PoolCores:   cores,
		Scheduler:   SchedConcordia,
		Workload:    workloads.None,
		Load:        0.5,
		Deadline:    sim.FromMs(1.5),
		PeakULBytes: 10000, // 160 Mb/s over 0.5 ms slots
		PeakDLBytes: 94000, // 1.5 Gb/s over 0.5 ms slots
	}
}

// Scenario20MHz returns the 7-cell 20 MHz FDD deployment (2 ms deadline,
// 8-core-class pool).
func Scenario20MHz(cells, cores int) Config {
	return Config{
		Cells:       ran.Cells20MHz(cells),
		PoolCores:   cores,
		Scheduler:   SchedConcordia,
		Workload:    workloads.None,
		Load:        0.5,
		Deadline:    sim.FromMs(2),
		PeakULBytes: 20000, // 160 Mb/s over 1 ms slots
		PeakDLBytes: 47500, // 380 Mb/s over 1 ms slots
	}
}

func (c *Config) fillDefaults() {
	if c.Scheduler == "" {
		c.Scheduler = SchedConcordia
	}
	if c.TrainingSlots == 0 {
		c.TrainingSlots = DefaultTrainingSlots
	}
}

func (c *Config) buildScheduler() (scheduler.Scheduler, error) {
	switch c.Scheduler {
	case SchedConcordia:
		s := scheduler.NewConcordia()
		s.DisableWakeupCompensation = c.Ablation.NoWakeupCompensation
		return s, nil
	case SchedFlexRAN:
		return scheduler.FlexRAN{}, nil
	case SchedShenango:
		return scheduler.NewShenango(shenangoThreshold), nil
	case SchedUtilization:
		return scheduler.NewUtilization(utilizationThreshold), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q", c.Scheduler)
	}
}

// System is a fully assembled deployment ready to run.
type System struct {
	cfg        Config
	pool       *pool.Pool
	slo        *slo.Tracker
	Predictors pool.PredictorSet

	workload *workloads.Schedule
	// ranFor is the duration of the last Run, bounding the workload-span
	// timeline in trace exports.
	ranFor sim.Time
}

// Profile generates the offline training dataset (§4.2): TTIs with
// transmission parameters swept across the input space, executed in
// isolation, with per-task (features, runtime) samples. Both link
// directions are profiled.
func Profile(cells []ran.CellConfig, slots int, model *costmodel.Model, poolCores int, seed uint64) map[ran.TaskKind][]predictor.Sample {
	r := rng.New(seed)
	env := costmodel.Env{PoolCores: poolCores}
	out := map[ran.TaskKind][]predictor.Sample{}
	// One DAG and one allocator serve every slot: each DAG is recorded
	// before the next is built into the same slab, and SlotAllocator draws
	// from r exactly as AllocateSlot does.
	var (
		dag   ran.DAG
		alloc ran.SlotAllocator
	)
	record := func(d *ran.DAG) {
		for _, t := range d.Tasks {
			s := out[t.Kind]
			if s == nil {
				// Most kinds run at least once a slot, so each starts at
				// slots entries instead of growing from empty. Past that,
				// append's 1.25× steps: doubling copies less but keeps up to
				// twice each kind's samples live through training.
				s = make([]predictor.Sample, 0, slots)
			}
			out[t.Kind] = append(s, predictor.Sample{
				Features: t.Features,
				Runtime:  model.Sample(t.Kind, t.Features, env),
			})
		}
	}
	for s := 0; s < slots; s++ {
		cell := cells[s%len(cells)]
		// Sweep the input space: uniform random volumes up to a generous
		// per-slot ceiling, including empty slots.
		ulPeak := 1 + r.Intn(64*1024)
		dlPeak := 1 + r.Intn(128*1024)
		record(ran.BuildUplinkDAGInto(&dag, cell, s, 0, sim.FromMs(2), alloc.Allocate(cell, ulPeak, r)))
		record(ran.BuildDownlinkDAGInto(&dag, cell, s, 0, sim.FromMs(2), alloc.Allocate(cell, dlPeak, r)))
		record(ran.BuildMACDAGInto(&dag, cell, s, 0, cell.Numerology.SlotDuration(), 1+r.Intn(cell.MaxUEs)))
	}
	return out
}

// TrainPredictorsWorkers runs Algorithm 1 for every profiled task kind:
// feature selection (distance correlation + backwards elimination +
// hand-picked) followed by quantile-tree training, on at most workers
// goroutines (0 = runtime.NumCPU()). Each kind's tree depends only on that
// kind's samples, so the resulting predictor set is identical for every
// worker count; kinds are processed in sorted order so error reporting is
// deterministic too.
func TrainPredictorsWorkers(data map[ran.TaskKind][]predictor.Sample, margin float64, workers int) (pool.PredictorSet, error) {
	if len(data) == 0 {
		return nil, errors.New("core: empty training data")
	}
	kinds := make([]ran.TaskKind, 0, len(data))
	for kind, samples := range data {
		if len(samples) < 200 {
			continue // too little data; the pool's fallback margin covers it
		}
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	trees, err := parallel.Map(workers, len(kinds), func(i int) (*predictor.QuantileTree, error) {
		kind := kinds[i]
		samples := data[kind]
		feats := predictor.SelectFeatures(kind, samples, 6, 3)
		tree, err := predictor.TrainQuantileTree(kind, feats, samples, predictor.TreeConfig{Margin: margin})
		if err != nil {
			return nil, fmt.Errorf("core: training %v: %w", kind, err)
		}
		return tree, nil
	})
	if err != nil {
		return nil, err
	}
	set := pool.PredictorSet{}
	for i, kind := range kinds {
		set[kind] = trees[i]
	}
	return set, nil
}

// NewSystem checks the configuration, then profiles, trains, and assembles
// a deployment: a refused configuration pays for no training.
func NewSystem(cfg Config) (*System, error) {
	cfg.fillDefaults()
	sched, err := cfg.buildScheduler()
	if err != nil {
		return nil, err
	}
	var dev *accel.Accelerator
	if cfg.UseAccel {
		// DefaultFPGA's per-engine calibration, spread over a fleet of
		// two-engine cards; the zero shape is the single default FPGA.
		dev = accel.NewFleet(cfg.AccelDevices, cfg.AccelVFs, 2, cfg.AccelQueueDepth,
			sim.FromUs(18), sim.FromUs(2))
	}
	var wl *workloads.Schedule
	if cfg.Workload != workloads.None {
		wl = workloads.NewSchedule(cfg.Workload, 12*sim.Second*3600, cfg.Seed^0x3141)
	}
	if cfg.Telemetry != nil {
		// Observe every policy decision (periodic ticks and completion-
		// boundary re-evaluations alike) through the transparent decorator.
		m := cfg.Telemetry.Metrics
		decisions := m.Counter("sched_decisions")
		escalations := m.Counter("sched_critical_escalations")
		sched = scheduler.Instrumented{Inner: sched, Observe: func(critical bool) {
			decisions.Inc()
			if critical {
				escalations.Inc()
			}
		}}
	}
	var ulSrc, dlSrc traffic.Source
	if cfg.ULTrace != nil {
		ulSrc, err = traffic.NewReplayer(cfg.ULTrace, cfg.TraceScale)
		if err != nil {
			return nil, err
		}
	}
	if cfg.DLTrace != nil {
		dlSrc, err = traffic.NewReplayer(cfg.DLTrace, cfg.TraceScale)
		if err != nil {
			return nil, err
		}
	}
	var sloTracker *slo.Tracker
	if cfg.SLO != nil {
		opts := *cfg.SLO
		if opts.Deadline <= 0 {
			opts.Deadline = cfg.Deadline
		}
		var trc *telemetry.Tracer
		if cfg.Telemetry != nil {
			trc = cfg.Telemetry.Trace
		}
		sloTracker = slo.New(opts, trc)
	}
	pcfg := pool.Config{
		Cells:           cfg.Cells,
		PoolCores:       cfg.PoolCores,
		Scheduler:       sched,
		CostModel:       costmodel.New(cfg.Seed ^ 0xc0de),
		Platform:        platform.New(cfg.Seed ^ 0x9e37),
		Workload:        wl,
		Deadline:        cfg.Deadline,
		Load:            cfg.Load,
		PeakULBytes:     cfg.PeakULBytes,
		PeakDLBytes:     cfg.PeakDLBytes,
		Seed:            cfg.Seed,
		ULSource:        ulSrc,
		DLSource:        dlSrc,
		Accel:           dev,
		OffloadBatch:    cfg.OffloadBatch,
		IncludeMAC:      cfg.IncludeMAC,
		StaticPartition: cfg.Scheduler == SchedFlexRAN,
		Telemetry:       cfg.Telemetry,
		SLO:             sloTracker,
		Faults:          cfg.Faults,
		DropLateDAGs:    cfg.DropLateDAGs,
	}
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	// Concordia's proactive reservation bridges inter-TTI gaps; baselines
	// release the instant their condition clears.
	if cfg.Scheduler == SchedConcordia && !cfg.Ablation.NoHysteresis {
		pcfg.ReleaseHysteresis = 2 * cfg.Cells[0].Numerology.SlotDuration()
	}
	var set pool.PredictorSet
	pcfg.Predict = cfg.Predictor
	if pcfg.Predict == nil {
		// Profile must draw the cost model's first samples; the parts built
		// above each have their own seed, so they may be built first.
		data := Profile(cfg.Cells, cfg.TrainingSlots, pcfg.CostModel, cfg.PoolCores, cfg.Seed^0x0ff1)
		set, err = TrainPredictorsWorkers(data, predictorMargin, cfg.Workers)
		if err != nil {
			return nil, err
		}
		pcfg.Predict = set
	}
	if cfg.Ablation.NoOnlineAdaptation {
		pcfg.Predict = frozenPredictors{inner: pcfg.Predict}
	}
	p, err := pool.New(pcfg)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, pool: p, slo: sloTracker, Predictors: set, workload: wl}, nil
}

// Run executes the deployment for the given duration.
func (s *System) Run(duration sim.Time) *pool.Report {
	s.ranFor = duration
	return s.pool.Run(duration)
}

// Telemetry returns the recorder the system was configured with (nil when
// telemetry is disabled).
func (s *System) Telemetry() *telemetry.Recorder { return s.cfg.Telemetry }

// WriteChromeTrace exports the last run's event trace as Chrome trace-event
// JSON (Perfetto-loadable): one process for the pool with a thread per core,
// one for the accelerator, one for the collocated-workload timeline.
func (s *System) WriteChromeTrace(w io.Writer) error {
	rec := s.cfg.Telemetry
	if rec == nil {
		return errors.New("core: telemetry not enabled")
	}
	meta := telemetry.ChromeTraceMeta{
		Process: "vran-pool/" + string(s.cfg.Scheduler),
		Cores:   s.cfg.PoolCores,
	}
	for _, span := range s.workload.Spans(s.ranFor) {
		meta.Workloads = append(meta.Workloads, telemetry.WorkloadSpan{
			Name: span.Kind.String(), From: span.From, To: span.To,
		})
	}
	return telemetry.WriteChromeTrace(w, rec.Trace, meta)
}

// WriteMetricsCSV exports the last run's metrics time series as CSV.
func (s *System) WriteMetricsCSV(w io.Writer) error {
	rec := s.cfg.Telemetry
	if rec == nil {
		return errors.New("core: telemetry not enabled")
	}
	return rec.Metrics.WriteMetricsCSV(w)
}

// SLO returns the streaming SLO tracker (nil when disabled).
func (s *System) SLO() *slo.Tracker { return s.slo }

// WriteSLOCSV exports the last run's SLO window rows as CSV.
func (s *System) WriteSLOCSV(w io.Writer) error {
	if s.slo == nil {
		return errors.New("core: SLO tracking not enabled")
	}
	return s.slo.WriteCSV(w)
}

// WriteSLOReport writes the markdown SLO health report for the last run.
func (s *System) WriteSLOReport(w io.Writer) error {
	if s.slo == nil {
		return errors.New("core: SLO tracking not enabled")
	}
	return s.slo.WriteHealthReport(w)
}

// MinimumCores searches for the smallest pool size that meets the deadline
// with the required reliability at the configured load, following the
// paper's methodology ("we use the minimum number of cores required to meet
// the vRAN processing deadline"). Each candidate runs for probe duration;
// feasibility is monotone in cores, so a binary search suffices.
func MinimumCores(cfg Config, maxCores int, reliability float64, probe sim.Time) (int, error) {
	cfg.fillDefaults()
	feasible := func(cores int) (bool, error) {
		c := cfg
		c.PoolCores = cores
		sys, err := NewSystem(c)
		if err != nil {
			return false, err
		}
		return sys.Run(probe).Reliability() >= reliability, nil
	}
	ok, err := feasible(maxCores)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("core: no core count up to %d meets %.5f reliability", maxCores, reliability)
	}
	lo, hi := 1, maxCores // invariant: hi is feasible
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}

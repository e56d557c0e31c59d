package experiments

import (
	"fmt"
	"strings"

	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/parallel"
	"concordia/internal/pool"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/workloads"
)

// Loads is the Fig 8 x-axis.
var Loads = []float64{0.05, 0.25, 0.50, 0.75, 1.00}

// table2Scenario returns the Fig 8 deployment for a bandwidth class, with
// the paper's Table 2 core counts scaled to this substrate's measured
// minimums (recorded in EXPERIMENTS.md).
func table2Scenario(is100MHz bool, o Options) core.Config {
	if is100MHz {
		cfg := core.Scenario100MHz(2, 6)
		cfg.PeakULBytes = 10000
		cfg.PeakDLBytes = 94000 // peak 1.5 Gb/s
		cfg.Seed = o.Seed
		cfg.TrainingSlots = o.training()
		return cfg
	}
	cfg := core.Scenario20MHz(7, 8)
	cfg.Seed = o.Seed
	cfg.TrainingSlots = o.training()
	return cfg
}

// Fig8aPoint is one (load, reclaim) measurement.
type Fig8aPoint struct {
	Load       float64
	Reclaimed  float64
	UpperBound float64
	Reliable   float64
}

// Fig8aResult holds the reclaimed-CPU curves for both configurations.
type Fig8aResult struct {
	Points100MHz []Fig8aPoint
	Points20MHz  []Fig8aPoint
}

// RunFig8Reclaimed sweeps cell traffic load and measures the CPU share
// Concordia returns to best-effort workloads versus the ideal bound.
func RunFig8Reclaimed(o Options) (*Fig8aResult, error) {
	dur := o.dur(60 * sim.Second)
	// 100 MHz points occupy indices [0, len(Loads)), 20 MHz the rest — the
	// legacy sweep order, preserved by the ordered fan-out.
	pts, err := parallel.Map(o.workers(), 2*len(Loads), func(j int) (Fig8aPoint, error) {
		is100 := j < len(Loads)
		cfg := table2Scenario(is100, o)
		cfg.Load = Loads[j%len(Loads)]
		cfg.Workload = workloads.Redis
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return Fig8aPoint{}, err
		}
		rep := sys.Run(dur)
		return Fig8aPoint{
			Load:       cfg.Load,
			Reclaimed:  rep.ReclaimedFraction(),
			UpperBound: rep.IdealReclaimable(),
			Reliable:   rep.Reliability(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8aResult{Points100MHz: pts[:len(Loads)], Points20MHz: pts[len(Loads):]}, nil
}

// String implements fmt.Stringer.
func (r *Fig8aResult) String() string {
	var sb strings.Builder
	header(&sb, "Fig 8a: reclaimed CPU vs cell traffic load")
	fmt.Fprintf(&sb, "%6s | %12s %12s | %12s %12s\n",
		"load", "100MHz recl", "100MHz bound", "20MHz recl", "20MHz bound")
	for i := range r.Points100MHz {
		a, b := r.Points100MHz[i], r.Points20MHz[i]
		fmt.Fprintf(&sb, "%5.0f%% | %12s %12s | %12s %12s\n",
			100*a.Load, pct(a.Reclaimed), pct(a.UpperBound), pct(b.Reclaimed), pct(b.UpperBound))
	}
	sb.WriteString("paper: >70% reclaimed at low load; 38% (100MHz) and 0% (20MHz) at peak\n")
	return sb.String()
}

// Fig8bRow is one collocated-workload throughput measurement.
type Fig8bRow struct {
	Workload    workloads.Kind
	Load        float64
	Achieved    float64
	Ideal       float64 // no-vRAN reference on the same core count
	FracOfIdeal float64
	RANReliable float64
}

// Fig8bResult is the collocated-workload performance figure (8b-8d + the
// omitted MLPerf panel).
type Fig8bResult struct{ Rows []Fig8bRow }

// RunFig8Workloads measures achieved workload throughput against the
// no-vRAN ideal across loads, for the 100 MHz configuration.
func RunFig8Workloads(o Options) (*Fig8bResult, error) {
	dur := o.dur(60 * sim.Second)
	wls := []workloads.Kind{workloads.Redis, workloads.Nginx, workloads.TPCC, workloads.MLPerf}
	loads := []float64{0.05, 0.50, 1.00}
	rows, err := parallel.Map(o.workers(), len(wls)*len(loads), func(j int) (Fig8bRow, error) {
		wl := wls[j/len(loads)]
		load := loads[j%len(loads)]
		prof, _ := workloads.ProfileOf(wl)
		cfg := table2Scenario(true, o)
		cfg.Load = load
		cfg.Workload = wl
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return Fig8bRow{}, err
		}
		rep := sys.Run(dur)
		achieved := rep.WorkloadThroughput(wl)
		ideal := prof.Ideal(cfg.PoolCores, dur.Seconds())
		return Fig8bRow{
			Workload:    wl,
			Load:        load,
			Achieved:    achieved,
			Ideal:       ideal,
			FracOfIdeal: achieved / ideal,
			RANReliable: rep.Reliability(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8bResult{Rows: rows}, nil
}

// String implements fmt.Stringer.
func (r *Fig8bResult) String() string {
	var sb strings.Builder
	header(&sb, "Fig 8b-d: collocated workload throughput (100 MHz, 2 cells)")
	fmt.Fprintf(&sb, "%-8s %6s %14s %14s %10s %12s\n",
		"workload", "load", "achieved/s", "ideal/s", "of ideal", "ran reliab")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-8s %5.0f%% %14.0f %14.0f %10s %12s\n",
			row.Workload, 100*row.Load, row.Achieved/60, row.Ideal/60,
			pct(row.FracOfIdeal), nines(row.RANReliable))
	}
	sb.WriteString("paper at low load: redis 76.6%, nginx 82.2%, tpcc 72%, mlperf 78% of ideal\n")
	return sb.String()
}

// Fig13Result compares the quantile-tree predictor against the conventional
// single-value EVT/pWCET predictor (§6.3).
type Fig13Result struct {
	Loads          []float64
	ReclaimQDT     []float64
	ReclaimPWCET   []float64
	TailQDTUs      float64
	TailPWCETUs    float64
	ReliabilityQDT float64
	ReliabilityPW  float64
}

// evtPredictorSet trains a single-value EVT predictor per task kind.
type evtPredictorSet map[ran.TaskKind]*predictor.EVTPredictor

func (s evtPredictorSet) Predict(kind ran.TaskKind, f ran.FeatureVector) sim.Time {
	if p, ok := s[kind]; ok {
		return p.Predict(f)
	}
	return 0
}

func (s evtPredictorSet) Observe(kind ran.TaskKind, f ran.FeatureVector, rt sim.Time) {
	if p, ok := s[kind]; ok {
		p.Observe(f, rt)
	}
}

// trainEVTSet builds the pWCET baseline from the same offline data.
func trainEVTSet(cfg core.Config) (pool.Predictors, error) {
	model := costmodel.New(cfg.Seed ^ 0xc0de)
	data := core.Profile(cfg.Cells, cfg.TrainingSlots, model, cfg.PoolCores, cfg.Seed^0x0ff1)
	set := evtPredictorSet{}
	for kind, samples := range data {
		if len(samples) < 200 {
			continue
		}
		p, err := predictor.TrainEVT(samples, 0.99999)
		if err != nil {
			return nil, err
		}
		set[kind] = p
	}
	return set, nil
}

// RunFig13PWCET sweeps load for the 20 MHz configuration under both
// predictors.
func RunFig13PWCET(o Options) (*Fig13Result, error) {
	dur := o.dur(60 * sim.Second)
	type point struct {
		reclaimQ, reclaimE float64
		tailQ, tailE       float64
		reliabQ, reliabE   float64
	}
	// One job per load point; each job runs its QDT/pWCET pair back to back.
	pts, err := parallel.Map(o.workers(), len(Loads), func(j int) (point, error) {
		cfg := table2Scenario(false, o)
		cfg.Load = Loads[j]
		cfg.Workload = workloads.Redis

		sysQ, err := core.NewSystem(cfg)
		if err != nil {
			return point{}, err
		}
		repQ := sysQ.Run(dur)

		cfgE := cfg
		cfgE.TrainingSlots = o.training()
		evt, err := trainEVTSet(cfgE)
		if err != nil {
			return point{}, err
		}
		cfgE.Predictor = evt
		sysE, err := core.NewSystem(cfgE)
		if err != nil {
			return point{}, err
		}
		repE := sysE.Run(dur)
		return point{
			reclaimQ: repQ.ReclaimedFraction(),
			reclaimE: repE.ReclaimedFraction(),
			tailQ:    repQ.TailLatencyUs(0.9999),
			tailE:    repE.TailLatencyUs(0.9999),
			reliabQ:  repQ.Reliability(),
			reliabE:  repE.Reliability(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Loads: Loads}
	for i, pt := range pts {
		res.ReclaimQDT = append(res.ReclaimQDT, pt.reclaimQ)
		res.ReclaimPWCET = append(res.ReclaimPWCET, pt.reclaimE)
		if Loads[i] == 0.25 {
			res.TailQDTUs = pt.tailQ
			res.TailPWCETUs = pt.tailE
			res.ReliabilityQDT = pt.reliabQ
			res.ReliabilityPW = pt.reliabE
		}
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *Fig13Result) String() string {
	var sb strings.Builder
	header(&sb, "Fig 13: Concordia QDT vs conventional pWCET (20 MHz)")
	fmt.Fprintf(&sb, "%6s %14s %14s\n", "load", "QDT reclaim", "pWCET reclaim")
	for i, load := range r.Loads {
		fmt.Fprintf(&sb, "%5.0f%% %14s %14s\n", 100*load, pct(r.ReclaimQDT[i]), pct(r.ReclaimPWCET[i]))
	}
	fmt.Fprintf(&sb, "tail p99.99 at 25%% load: QDT %.0f us vs pWCET %.0f us (paper: ~5 us apart)\n",
		r.TailQDTUs, r.TailPWCETUs)
	fmt.Fprintf(&sb, "reliability: QDT %s, pWCET %s\n", nines(r.ReliabilityQDT), nines(r.ReliabilityPW))
	sb.WriteString("paper: QDT reclaims up to 20% more CPU than pWCET\n")
	return sb.String()
}

// Fig15bResult is the TTI-deadline sweep (Fig 15b).
type Fig15bResult struct {
	DeadlinesUs []float64
	TailUs      []float64
	Reclaimed   []float64
}

// RunFig15Deadline sweeps the DAG deadline for the 20 MHz configuration at
// 25% load and reports tail latency and reclaimed CPU.
func RunFig15Deadline(o Options) (*Fig15bResult, error) {
	dur := o.dur(60 * sim.Second)
	deadlines := []float64{1600, 1800, 2000}
	type point struct{ tail, reclaimed float64 }
	pts, err := parallel.Map(o.workers(), len(deadlines), func(j int) (point, error) {
		cfg := table2Scenario(false, o)
		cfg.Load = 0.25
		cfg.Workload = workloads.Redis
		cfg.Deadline = sim.FromUs(deadlines[j])
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return point{}, err
		}
		rep := sys.Run(dur)
		return point{tail: rep.TailLatencyUs(0.99999), reclaimed: rep.ReclaimedFraction()}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig15bResult{DeadlinesUs: deadlines}
	for _, pt := range pts {
		res.TailUs = append(res.TailUs, pt.tail)
		res.Reclaimed = append(res.Reclaimed, pt.reclaimed)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *Fig15bResult) String() string {
	var sb strings.Builder
	header(&sb, "Fig 15b: effect of TTI deadline (20 MHz, 25% load)")
	fmt.Fprintf(&sb, "%12s %16s %12s\n", "deadline us", "p99.999 lat us", "reclaimed")
	for i := range r.DeadlinesUs {
		fmt.Fprintf(&sb, "%12.0f %16.0f %12s\n", r.DeadlinesUs[i], r.TailUs[i], pct(r.Reclaimed[i]))
	}
	sb.WriteString("paper: longer deadlines trade tail latency for more reclaimed CPU\n")
	return sb.String()
}

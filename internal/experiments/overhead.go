package experiments

import (
	"fmt"
	"strings"
	"time"

	"concordia/internal/costmodel"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
)

// Fig15aResult measures the real wall-clock processing overhead of this
// implementation's Concordia scheduler decision and per-TTI WCET
// prediction, for a varying number of cells — the one experiment in the
// repository measured in host time rather than virtual time, because it
// characterizes the reproduction's own code (as Fig 15a characterizes the
// paper's C implementation).
type Fig15aResult struct {
	Cells       []int
	SchedulerUs []float64
	PredictorUs []float64
}

// RunFig15Overhead times scheduler decisions over representative states and
// full-TTI prediction batches for 1–7 cells.
func RunFig15Overhead(o Options) (*Fig15aResult, error) {
	res := &Fig15aResult{}
	model := costmodel.New(o.Seed)
	r := rng.New(o.Seed + 1)

	// Train one decode tree to time realistic predictions.
	train := genKindSamples(ran.TaskLDPCDecode, 6000, 2, costmodel.Env{PoolCores: 4}, model, o.Seed+9)
	tree, err := predictor.TrainQuantileTree(ran.TaskLDPCDecode,
		predictor.HandPicked[ran.TaskLDPCDecode], train, predictor.TreeConfig{})
	if err != nil {
		return nil, err
	}
	sched := scheduler.NewConcordia()

	for cells := 1; cells <= 7; cells++ {
		res.Cells = append(res.Cells, cells)
		// Scheduler: one decision over `cells` active DAG states.
		st := scheduler.PoolState{Now: 0, TotalCores: 8}
		for c := 0; c < cells; c++ {
			st.DAGs = append(st.DAGs, scheduler.DAGState{
				Deadline:              sim.FromMs(2),
				RemainingWork:         sim.FromUs(600),
				RemainingCriticalPath: sim.FromUs(120),
			})
		}
		const reps = 20000
		start := time.Now() //lint:allow walltime Fig 15a measures this reproduction's own host-time overhead, like the paper's Fig 15a measures its C implementation
		for i := 0; i < reps; i++ {
			_ = sched.Cores(st)
		}
		//lint:allow walltime host-time delta for the sanctioned Fig 15a overhead measurement
		res.SchedulerUs = append(res.SchedulerUs, float64(time.Since(start).Microseconds())/reps)

		// Predictor: one TTI's worth of task predictions per cell (a typical
		// slot has a handful of decode groups per cell).
		var feats []ran.FeatureVector
		for c := 0; c < cells; c++ {
			for k := 0; k < 6; k++ {
				var f ran.FeatureVector
				f.Set(ran.FCodeblocks, float64(1+r.Intn(15)))
				f.Set(ran.FSNRdB, r.Uniform(0, 32))
				feats = append(feats, f)
			}
		}
		// Fill each timed leaf's ring with the tree's own training runtimes,
		// so the timing reads full 5 K rings as the online phase does.
		for _, f := range feats {
			for _, s := range train[:predictor.DefaultRingSize] {
				tree.Observe(f, s.Runtime)
			}
		}
		start = time.Now() //lint:allow walltime Fig 15a measures this reproduction's own host-time overhead (predictor half)
		const predReps = 5000
		for i := 0; i < predReps; i++ {
			for _, f := range feats {
				_ = tree.Predict(f)
			}
		}
		//lint:allow walltime host-time delta for the sanctioned Fig 15a overhead measurement
		res.PredictorUs = append(res.PredictorUs, float64(time.Since(start).Microseconds())/predReps)
	}
	return res, nil
}

// String implements fmt.Stringer.
func (r *Fig15aResult) String() string {
	var sb strings.Builder
	header(&sb, "Fig 15a: Concordia scheduler & predictor overhead (host wall time)")
	fmt.Fprintf(&sb, "%6s %16s %16s\n", "cells", "scheduler (us)", "predictor (us)")
	for i, c := range r.Cells {
		fmt.Fprintf(&sb, "%6d %16.3f %16.3f\n", c, r.SchedulerUs[i], r.PredictorUs[i])
	}
	sb.WriteString("paper: scheduler <2us at 7 cells; predictor 4us (1 cell) to 24us (7 cells)\n")
	return sb.String()
}

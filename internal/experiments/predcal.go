package experiments

import (
	"fmt"
	"strings"

	"concordia/internal/analysis"
	"concordia/internal/costmodel"
	"concordia/internal/parallel"
	"concordia/internal/predictor"
	"concordia/internal/ran"
)

// PredCalRow is one (predictor, mode, task kind) cell of the calibration
// sweep. Mode "online" feeds every observation back (how the deployed pool
// runs its predictors); "frozen" deploys the offline model unchanged — the
// Ablation.NoOnlineAdaptation regime the calibration monitor exists to
// catch.
type PredCalRow struct {
	Predictor string
	Mode      string
	Kind      ran.TaskKind
	Cal       analysis.KindCalibration
}

// PredCalResult is the predictor calibration sweep: the four WCET predictors
// trained offline in isolation, then monitored by the analysis engine's
// calibration monitor while predicting a collocated (cache-contended)
// evaluation stream — once with online adaptation, once frozen. The frozen
// rows are the monitor's acceptance story: a predictor whose quantile was
// calibrated offline drifts out of coverage under the interference shift,
// and the monitor flags it while the adapting quantile tree stays within
// tolerance.
type PredCalResult struct {
	Target float64
	Rows   []PredCalRow // grouped by kind, (predictor, mode) order fixed
}

// predCalKinds are the monitored task kinds: the Fig 14 headline kind plus
// the appendix kinds.
var predCalKinds = []ran.TaskKind{
	ran.TaskLDPCDecode, ran.TaskLDPCEncode, ran.TaskPrecoding,
	ran.TaskChannelEstimation, ran.TaskEqualization,
}

// predCalNames is the fixed predictor ordering in rows and output.
var predCalNames = []string{"quantile-dt", "linear", "boosting", "evt"}

// RunPredCal trains the four predictors per task kind on isolated profiling
// samples, streams a collocated evaluation set through each (online and
// frozen), and runs the calibration monitor on the resulting
// predicted-vs-observed pairs.
func RunPredCal(o Options) (*PredCalResult, error) {
	const target = 0.99999
	model := costmodel.New(o.Seed)
	n := int(40000 * o.Scale)
	if n < 8000 {
		n = 8000
	}
	env := costmodel.Env{PoolCores: 4, Interference: 0.95} // the Fig 14 redis collocation
	isoEnv := costmodel.Env{PoolCores: 4}

	rowGroups, err := parallel.Map(o.workers(), len(predCalKinds), func(i int) ([]PredCalRow, error) {
		kind := predCalKinds[i]
		feats := predictor.HandPicked[kind]
		if len(feats) == 0 {
			feats = []ran.Feature{ran.FTBSBits}
		}
		train := genKindSamples(kind, n, 2, isoEnv, model, o.Seed+uint64(i)*43+11)
		eval := genKindSamples(kind, n/2, 2, env, model, o.Seed+uint64(i)*43+12)

		// Train fresh predictors per mode: the online pass mutates state.
		var rows []PredCalRow
		for _, mode := range []string{"online", "frozen"} {
			preds, err := trainPredCalSet(kind, feats, train, target)
			if err != nil {
				return nil, err
			}
			for pi, p := range preds {
				samples := streamPredictSamples(p, kind, eval, mode == "online")
				cals := analysis.CalibrateSamples(samples, target, 0)
				if len(cals) != 1 {
					return nil, fmt.Errorf("predcal: expected one calibration row, got %d", len(cals))
				}
				rows = append(rows, PredCalRow{
					Predictor: predCalNames[pi], Mode: mode, Kind: kind, Cal: cals[0]})
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	res := &PredCalResult{Target: target}
	for _, rows := range rowGroups {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// trainPredCalSet trains the four predictors (predCalNames order) offline.
func trainPredCalSet(kind ran.TaskKind, feats []ran.Feature, train []predictor.Sample, target float64) ([]predictor.Predictor, error) {
	qdt, err := predictor.TrainQuantileTree(kind, feats, train, predictor.TreeConfig{})
	if err != nil {
		return nil, err
	}
	lin, err := predictor.TrainLinear(feats, train, target)
	if err != nil {
		return nil, err
	}
	gb, err := predictor.TrainGradientBoosting(feats, train)
	if err != nil {
		return nil, err
	}
	evt, err := predictor.TrainEVT(train, target)
	if err != nil {
		return nil, err
	}
	return []predictor.Predictor{qdt, lin, gb, evt}, nil
}

// streamPredictSamples mirrors the deployed pool's prediction loop: predict,
// record the pair, and (when online) feed the observation back. The first
// quarter is a warm-up — adaptation runs but is not scored — matching
// evalModel.
func streamPredictSamples(p predictor.Predictor, kind ran.TaskKind, eval []predictor.Sample, online bool) []analysis.PredictSample {
	warm := len(eval) / 4
	out := make([]analysis.PredictSample, 0, len(eval)-warm)
	for i, s := range eval {
		if i >= warm {
			out = append(out, analysis.PredictSample{
				Kind:      int32(kind),
				Predicted: p.Predict(s.Features),
				Observed:  s.Runtime,
			})
		}
		if online {
			p.Observe(s.Features, s.Runtime)
		}
	}
	return out
}

// String implements fmt.Stringer.
func (r *PredCalResult) String() string {
	var sb strings.Builder
	header(&sb, "Predictor calibration monitor: coverage vs target quantile under collocation")
	fmt.Fprintf(&sb, "%-20s %-12s %-8s %8s %10s %12s %8s  %s\n",
		"kind", "predictor", "mode", "samples", "coverage", "headroom us", "drift", "verdict")
	for _, row := range r.Rows {
		verdict := "ok"
		if row.Cal.Miscalibrated {
			verdict = "MISCALIBRATED"
		}
		fmt.Fprintf(&sb, "%-20v %-12s %-8s %8d %10.5f %12.1f %8.4f  %s\n",
			row.Kind, row.Predictor, row.Mode, row.Cal.Samples, row.Cal.Coverage,
			row.Cal.MeanHeadroomUs, row.Cal.Drift, verdict)
	}
	fmt.Fprintf(&sb, "target quantile %.5f; tolerance is 3-sigma binomial floored at 3/n\n", r.Target)
	sb.WriteString("frozen baselines drift out of coverage under the interference shift (trained\n")
	sb.WriteString("isolated, evaluated collocated); online adaptation pulls them back in\n")
	return sb.String()
}

// CSV implements Tabular for the calibration sweep.
func (r *PredCalResult) CSV() ([]string, [][]string) {
	header := []string{
		"kind", "predictor", "mode", "samples", "coverage", "target",
		"mean_headroom_us", "mean_headroom_frac", "drift", "windows", "tolerance", "miscalibrated"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Kind.String(), row.Predictor, row.Mode, d(row.Cal.Samples),
			f(row.Cal.Coverage), f(row.Cal.Target),
			f(row.Cal.MeanHeadroomUs), f(row.Cal.MeanHeadroomFrac),
			f(row.Cal.Drift), d(row.Cal.Windows), f(row.Cal.Tolerance),
			fmt.Sprintf("%t", row.Cal.Miscalibrated)})
	}
	return header, rows
}

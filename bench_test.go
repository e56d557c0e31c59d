package concordia_test

// One benchmark per paper table and figure: each iteration executes the
// corresponding experiment harness at benchmark scale and reports the
// headline quantity as a custom metric. Run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// for a single regeneration pass, or larger -benchtime to average. The
// cmd/experiments binary prints the full tables; these benches track cost
// and the headline numbers.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"concordia/internal/experiments"
	"concordia/internal/fleet"
	"concordia/internal/ran"
	"concordia/internal/traffic"
)

func benchOpts() experiments.Options {
	o := experiments.Quick()
	o.Scale = 0.02
	o.TrainingSlots = 400
	return o
}

func BenchmarkFig3Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3Traffic(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SingleIdleFrac, "single-idle-frac")
		b.ReportMetric(r.AggregateIdleFrac, "agg-idle-frac")
	}
}

func BenchmarkPoolingGaussian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPoolingGaussian(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WasteRatio[len(r.WasteRatio)-1], "waste-growth-16cells")
	}
}

func BenchmarkFig4Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4Utilization(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].AvgUtil, "ulonly-util")
	}
}

func BenchmarkFig4Violations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4Violations(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		violated := 0
		for _, row := range r.Rows {
			if row.Violated {
				violated++
			}
		}
		b.ReportMetric(float64(violated), "violations")
	}
}

func BenchmarkFig6LDPCScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6LDPCScaling(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanUs[6][4]/r.MeanUs[1][4]-1, "multicore-penalty")
	}
}

func BenchmarkFig7Leaves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7Leaves(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PooledLeafVar/r.GlobalVariance, "leaf-var-ratio")
	}
}

func BenchmarkFig8Reclaimed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8Reclaimed(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points100MHz[0].Reclaimed, "lowload-reclaim-100mhz")
	}
}

func BenchmarkFig8Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8Workloads(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].FracOfIdeal, "redis-frac-of-ideal")
	}
}

func BenchmarkFig9Cache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig9Cache(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FlexRAN.StallCyclesPerInstrIncrease, "flexran-stall-inc")
		b.ReportMetric(r.Concordia.StallCyclesPerInstrIncrease, "concordia-stall-inc")
	}
}

func BenchmarkFig10SchedLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig10SchedLatency(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(r.Events["flexran/redis"]) / float64(r.Events["concordia/redis"])
		b.ReportMetric(ratio, "event-ratio")
	}
}

func BenchmarkFig11TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig11TailLatency(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		worstConcordia := 0.0
		for _, row := range r.Rows {
			if row.Scheduler == "concordia" && row.P99999Us > worstConcordia {
				worstConcordia = row.P99999Us
			}
		}
		b.ReportMetric(worstConcordia, "concordia-worst-p99999-us")
	}
}

func BenchmarkFig12Cores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig12Cores(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].P99999Us, "20mhz-8core-p99999-us")
	}
}

func BenchmarkFig13PWCET(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig13PWCET(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ReclaimQDT[1]-r.ReclaimPWCET[1], "qdt-reclaim-advantage")
	}
}

func BenchmarkFig14Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14Models(benchOpts(), ran.TaskLDPCDecode)
		if err != nil {
			b.Fatal(err)
		}
		var qdtErr, linErr float64
		for _, row := range r.Rows {
			switch row.Model {
			case "quantile-dt":
				qdtErr += row.AvgErrUs
			case "linear":
				linErr += row.AvgErrUs
			}
		}
		b.ReportMetric(qdtErr/6, "qdt-avg-err-us")
		b.ReportMetric(linErr/6, "linear-avg-err-us")
	}
}

func BenchmarkFig15Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15Overhead(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SchedulerUs[len(r.SchedulerUs)-1], "sched-7cell-us")
		b.ReportMetric(r.PredictorUs[len(r.PredictorUs)-1], "pred-7cell-us")
	}
}

func BenchmarkFig15Deadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15Deadline(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Reclaimed[len(r.Reclaimed)-1]-r.Reclaimed[0], "reclaim-gain-2ms-vs-1.6ms")
	}
}

func BenchmarkTable3FPGA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3FPGA(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[2].MinCores), "3cell-min-cores")
		b.ReportMetric(r.Rows[2].AvgUtil, "3cell-util")
	}
}

func BenchmarkTable4Offload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable4Offload(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ULTotalUs/r.ULNonOffloadedUs, "ul-total-over-cpu")
	}
}

func BenchmarkFig17PerTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig17PerTask(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.PerKind)), "kinds")
	}
}

// BenchmarkRunAllQuick regenerates every experiment once (the EXPERIMENTS.md
// refresh path).
func BenchmarkRunAllQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel contrasts the serial and fanned-out full
// regeneration: both produce identical bytes, the second spreads experiments
// and their internal sweeps across every core.
func BenchmarkRunAllParallel(b *testing.B) {
	// On a 1-CPU host the second setting would rerun workers=1.
	settings := []int{1}
	if runtime.NumCPU() > 1 {
		settings = append(settings, runtime.NumCPU())
	}
	for _, workers := range settings {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := benchOpts()
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				if err := experiments.RunAll(o, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Reliability, "full-reliability")
	}
}

func BenchmarkMACExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMACExtension(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ReliabilityMAC, "mac-reliability")
	}
}

func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCalibration(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RealUs[len(r.RealUs)-1]/r.RealUs[0], "cb-scaling-ratio")
	}
}

// BenchmarkFleetSweep regenerates the fleet pooling sweep and reports the
// stress point (largest grid, highest load): the deadline-miss rates of the
// static partition vs the migrating fleet, and the capacity-equalized
// pooling gain in cores.
func BenchmarkFleetSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFleet(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		static, pooled := r.Rows[len(r.Rows)-2], r.Rows[len(r.Rows)-1]
		b.ReportMetric(static.MissPct, "static-miss-pct")
		b.ReportMetric(pooled.MissPct, "pooled-miss-pct")
		b.ReportMetric(pooled.CoresSaved, "cores-saved")
	}
}

// BenchmarkFleetCoordination times the per-slot fleet-coordination path —
// folding every cell's slot volume through the placement into the demand
// tracker — in isolation. allocs/op must stay 0 (the fleet package's alloc
// gate enforces it; the benchmark keeps it visible in the BENCH_pool.json
// trajectory that bench-diff gates on).
func BenchmarkFleetCoordination(b *testing.B) {
	const cells, servers, slots = 200, 12, 64
	ul, err := traffic.GenerateScaledTrace(traffic.ScaleSpec{Cells: cells, Seed: 3}, slots)
	if err != nil {
		b.Fatal(err)
	}
	dl, err := traffic.GenerateScaledTrace(traffic.ScaleSpec{Cells: cells, Seed: 4}, slots)
	if err != nil {
		b.Fatal(err)
	}
	assign := make([]int, cells)
	for c := range assign {
		assign[c] = c % servers
	}
	demand := make([]float64, cells)
	d := fleet.NewDemandTracker(servers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// EndEpoch archives results (it allocates, once per epoch, by
		// design) — the zero-alloc contract covers the per-slot fold.
		d.BeginEpoch()
		fleet.AccumulateEpoch(d, ul, dl, 0, slots, assign, demand)
	}
}

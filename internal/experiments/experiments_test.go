package experiments

import (
	"bytes"
	"strings"
	"testing"

	"concordia/internal/ran"
	"concordia/internal/stats"
)

// The experiment suite runs at Quick scale in tests: the point is to verify
// every harness executes, produces sane structure, and preserves the
// paper's qualitative orderings. bench_test.go at the module root exercises
// them as benchmarks.

func quick(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness runs are skipped in -short mode")
	}
	return Quick()
}

func TestFig3(t *testing.T) {
	r, err := RunFig3Traffic(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleIdleFrac <= r.AggregateIdleFrac {
		t.Error("single cell must be idle more often than the aggregate")
	}
	if r.MedianKB <= 0 || r.P99KB < r.MedianKB {
		t.Errorf("volume quantiles out of order: med %.2f p99 %.2f", r.MedianKB, r.P99KB)
	}
	if !strings.Contains(r.String(), "Fig 3") {
		t.Error("missing header")
	}
}

func TestPooling(t *testing.T) {
	r, err := RunPoolingGaussian(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// CV must fall with pool size; absolute waste must grow.
	if r.CV[len(r.CV)-1] >= r.CV[0] {
		t.Errorf("CV did not fall with pooling: %v", r.CV)
	}
	if r.WasteRatio[len(r.WasteRatio)-1] <= r.WasteRatio[0] {
		t.Errorf("absolute waste did not grow with pooling: %v", r.WasteRatio)
	}
}

func TestFig4a(t *testing.T) {
	r, err := RunFig4Utilization(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MinCores < 1 {
			t.Errorf("%s: min cores %d", row.Name, row.MinCores)
		}
		// The paper's motivation: utilization well below 100% even at peak.
		if row.AvgUtil >= 0.8 {
			t.Errorf("%s: util %.2f too high for the motivation claim", row.Name, row.AvgUtil)
		}
		if row.AvgUtil <= 0.05 {
			t.Errorf("%s: util %.2f implausibly low", row.Name, row.AvgUtil)
		}
	}
}

func TestFig4b(t *testing.T) {
	r, err := RunFig4Violations(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// Interference must raise the tail versus isolated for each scenario.
	byScenario := map[string]map[string]float64{}
	for _, row := range r.Rows {
		if byScenario[row.Scenario] == nil {
			byScenario[row.Scenario] = map[string]float64{}
		}
		byScenario[row.Scenario][row.Workload.String()] = row.P9999Us
	}
	for sc, m := range byScenario {
		if m["redis"] <= m["isolated"] {
			t.Errorf("%s: redis tail %.0f not above isolated %.0f", sc, m["redis"], m["isolated"])
		}
	}
}

func TestFig6(t *testing.T) {
	r, err := RunFig6LDPCScaling(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// Linear in codeblocks; multi-core penalty within (0, 25%].
	m1 := r.MeanUs[1]
	if m1[len(m1)-1] <= m1[0]*3 {
		t.Errorf("decode not scaling with codeblocks: %v", m1)
	}
	inc := r.MeanUs[6][4]/r.MeanUs[1][4] - 1
	if inc <= 0.05 || inc > 0.27 { // model effect ≤25% plus sampling noise
		t.Errorf("6-core increase %.2f outside (5%%, 27%%]", inc)
	}
}

func TestFig7(t *testing.T) {
	r, err := RunFig7Leaves(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.PooledLeafVar >= r.GlobalVariance/4 {
		t.Errorf("leaf variance %.0f not ≪ global %.0f", r.PooledLeafVar, r.GlobalVariance)
	}
	if r.KSPValue > 0.001 {
		t.Errorf("KS p-value %.3g should be <<0.001 under interference", r.KSPValue)
	}
	if r.WorstLeafW1Us <= 0 {
		t.Error("no leaf distortion measured")
	}
}

func TestFig8a(t *testing.T) {
	r, err := RunFig8Reclaimed(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// Reclaim decreases with load; low-load reclaim is large.
	for _, pts := range [][]Fig8aPoint{r.Points100MHz, r.Points20MHz} {
		if pts[0].Reclaimed < 0.5 {
			t.Errorf("low-load reclaim %.2f want >0.5", pts[0].Reclaimed)
		}
		if pts[len(pts)-1].Reclaimed >= pts[0].Reclaimed {
			t.Errorf("reclaim did not fall with load: %v", pts)
		}
		for _, p := range pts {
			if p.Reclaimed > p.UpperBound+1e-9 {
				t.Errorf("reclaim %.3f above ideal bound %.3f", p.Reclaimed, p.UpperBound)
			}
		}
	}
}

func TestFig8b(t *testing.T) {
	r, err := RunFig8Workloads(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.FracOfIdeal <= 0 || row.FracOfIdeal >= 1 {
			t.Errorf("%v at %.0f%%: fraction of ideal %.2f out of (0,1)", row.Workload, 100*row.Load, row.FracOfIdeal)
		}
	}
}

func TestFig9(t *testing.T) {
	r, err := RunFig9Cache(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.FlexRAN.StallCyclesPerInstrIncrease <= r.Concordia.StallCyclesPerInstrIncrease {
		t.Errorf("FlexRAN stalls %.3f not above Concordia %.3f",
			r.FlexRAN.StallCyclesPerInstrIncrease, r.Concordia.StallCyclesPerInstrIncrease)
	}
	if r.ChurnFlexRAN <= r.ChurnConcordia {
		t.Errorf("FlexRAN churn %.2f not above Concordia %.2f", r.ChurnFlexRAN, r.ChurnConcordia)
	}
}

func TestFig10(t *testing.T) {
	r, err := RunFig10SchedLatency(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Events["flexran/redis"] <= r.Events["concordia/redis"] {
		t.Errorf("FlexRAN events %d not above Concordia %d",
			r.Events["flexran/redis"], r.Events["concordia/redis"])
	}
	if r.Hists["concordia/redis"].Total() == 0 {
		t.Error("empty concordia histogram")
	}
}

func TestFig11(t *testing.T) {
	r, err := RunFig11TailLatency(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// Concordia must never violate; FlexRAN must violate somewhere under
	// interference.
	flexViolations := 0
	for _, row := range r.Rows {
		if row.Scheduler == "concordia" && row.P99999Us > row.DeadlineUs {
			t.Errorf("Concordia violated: %+v", row)
		}
		if row.Scheduler == "flexran" && row.Workload.String() != "isolated" &&
			row.P99999Us > row.DeadlineUs {
			flexViolations++
		}
	}
	if flexViolations == 0 {
		t.Error("FlexRAN never violated under interference (Fig 11 shape lost)")
	}
}

func TestFig12(t *testing.T) {
	r, err := RunFig12Cores(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// Adding a core must not worsen the tail.
	for i := 0; i+1 < len(r.Rows); i += 2 {
		if r.Rows[i+1].P99999Us > r.Rows[i].P99999Us*1.2 {
			t.Errorf("%s: 9 cores tail %.0f much worse than 8 cores %.0f",
				r.Rows[i].Config, r.Rows[i+1].P99999Us, r.Rows[i].P99999Us)
		}
	}
}

func TestFig13(t *testing.T) {
	r, err := RunFig13PWCET(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// QDT must reclaim at least as much as the single-value pWCET at every
	// load, and strictly more somewhere.
	better := false
	for i := range r.Loads {
		if r.ReclaimQDT[i] < r.ReclaimPWCET[i]-0.02 {
			t.Errorf("load %.0f%%: QDT %.3f below pWCET %.3f",
				100*r.Loads[i], r.ReclaimQDT[i], r.ReclaimPWCET[i])
		}
		if r.ReclaimQDT[i] > r.ReclaimPWCET[i]+0.01 {
			better = true
		}
	}
	if !better {
		t.Error("QDT never reclaimed more than pWCET")
	}
}

func TestFig14(t *testing.T) {
	r, err := RunFig14Models(quick(t), ran.TaskLDPCDecode)
	if err != nil {
		t.Fatal(err)
	}
	// Per scenario: the quantile tree's average error must be below the
	// linear model's (Fig 14b's point).
	byScenario := map[string]map[string]ModelAccuracy{}
	for _, row := range r.Rows {
		if byScenario[row.Scenario] == nil {
			byScenario[row.Scenario] = map[string]ModelAccuracy{}
		}
		byScenario[row.Scenario][row.Model] = row
	}
	worseCount := 0
	for sc, m := range byScenario {
		if m["quantile-dt"].AvgErrUs >= m["linear"].AvgErrUs {
			t.Errorf("%s: QDT err %.1f not below linear %.1f",
				sc, m["quantile-dt"].AvgErrUs, m["linear"].AvgErrUs)
		}
		if m["quantile-dt"].MissedPct > 5 {
			worseCount++
		}
	}
	if worseCount > 2 {
		t.Errorf("QDT misses too often in %d scenarios", worseCount)
	}
	if len(r.FullDAG) != 6 {
		t.Fatalf("full-DAG rows %d", len(r.FullDAG))
	}
	for _, row := range r.FullDAG {
		if row.MissedPct > 0.2 {
			t.Errorf("full-DAG misses %.3f%% in %s", row.MissedPct, row.Scenario)
		}
	}
}

func TestFig15a(t *testing.T) {
	r, err := RunFig15Overhead(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Cells) - 1
	if r.SchedulerUs[last] > 2.0 {
		t.Errorf("scheduler decision %.3f us exceeds the paper's 2 us envelope", r.SchedulerUs[last])
	}
	if r.PredictorUs[last] > 24.0 {
		t.Errorf("per-TTI prediction %.3f us exceeds the paper's 24 us at %d cells", r.PredictorUs[last], r.Cells[last])
	}
	if r.PredictorUs[last] <= r.PredictorUs[0] {
		t.Error("predictor overhead should grow with cells")
	}
}

func TestFig15b(t *testing.T) {
	r, err := RunFig15Deadline(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// Longer deadlines must reclaim at least as much CPU.
	if r.Reclaimed[len(r.Reclaimed)-1] < r.Reclaimed[0]-0.02 {
		t.Errorf("reclaim did not grow with deadline: %v", r.Reclaimed)
	}
}

func TestTable3(t *testing.T) {
	r, err := RunTable3FPGA(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	prev := 0
	for _, row := range r.Rows {
		if row.MinCores < prev {
			t.Errorf("min cores not monotone in cells: %+v", r.Rows)
		}
		prev = row.MinCores
		if row.AvgUtil >= 0.9 {
			t.Errorf("accelerated util %.2f too high (paper: <60%%)", row.AvgUtil)
		}
	}
}

func TestTable4(t *testing.T) {
	r, err := RunTable4Offload(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.ULTotalUs <= r.ULNonOffloadedUs {
		t.Errorf("UL total %.0f not above CPU-only %.0f (blocking lost)", r.ULTotalUs, r.ULNonOffloadedUs)
	}
	if r.DLTotalUs <= r.DLNonOffloadedUs {
		t.Errorf("DL total %.0f not above CPU-only %.0f", r.DLTotalUs, r.DLNonOffloadedUs)
	}
	// The UL slot spends more CPU than DL (decode residue vs encode residue,
	// Table 4's asymmetry).
	if r.ULNonOffloadedUs <= r.DLNonOffloadedUs {
		t.Errorf("UL CPU %.0f not above DL CPU %.0f", r.ULNonOffloadedUs, r.DLNonOffloadedUs)
	}
}

func TestRunByName(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run("fig6", quick(t), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LDPC") {
		t.Error("missing output")
	}
	if _, err := Run("nope", Quick(), &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblation(t *testing.T) {
	r, err := RunAblation(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
	}
	full := byName["full system"]
	if full.Reliability < 0.999 {
		t.Errorf("full system reliability %.5f", full.Reliability)
	}
	// Removing hysteresis must raise the scheduling-event rate.
	if byName["no release hysteresis"].EventsPerMs <= full.EventsPerMs {
		t.Errorf("no-hysteresis events %.2f not above full %.2f",
			byName["no release hysteresis"].EventsPerMs, full.EventsPerMs)
	}
	// Removing compensation must not improve the tail.
	if byName["no wakeup compensation"].P9999Us < full.P9999Us*0.8 {
		t.Errorf("no-compensation tail %.0f suspiciously better than full %.0f",
			byName["no wakeup compensation"].P9999Us, full.P9999Us)
	}
}

func TestMACExtensionExperiment(t *testing.T) {
	r, err := RunMACExtension(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.ReliabilityMAC < 0.999 {
		t.Errorf("reliability with MAC %.5f", r.ReliabilityMAC)
	}
	if r.DAGsPerSlotMAC <= r.DAGsPerSlotPHY {
		t.Error("MAC extension did not add DAGs")
	}
	if r.MACTasksPerSec <= 0 {
		t.Error("no MAC tasks executed")
	}
	// Multiplexing more deadline tasks must cost some reclaim.
	if r.ReclaimedMAC > r.ReclaimedPHY {
		t.Errorf("MAC extension increased reclaim: %.3f vs %.3f", r.ReclaimedMAC, r.ReclaimedPHY)
	}
}

func TestCalibration(t *testing.T) {
	// Real decode time must grow roughly linearly with codeblocks. Each
	// point is a host-time measurement that a burst of load on the host can
	// inflate, so compare the median of several runs' timings per point.
	const runs = 7
	var r *CalibrationResult
	firstUs, lastUs := make([]float64, runs), make([]float64, runs)
	for i := range firstUs {
		var err error
		if r, err = RunCalibration(quick(t)); err != nil {
			t.Fatal(err)
		}
		firstUs[i], lastUs[i] = r.RealUs[0], r.RealUs[len(r.RealUs)-1]
	}
	n := len(r.Codeblocks)
	ratio := stats.Quantile(lastUs, 0.5) / stats.Quantile(firstUs, 0.5)
	expect := float64(r.Codeblocks[n-1]) / float64(r.Codeblocks[0])
	if ratio < expect*0.5 || ratio > expect*2.0 {
		t.Errorf("real codeblock scaling %.1fx for %vx blocks", ratio, expect)
	}
	// Real iterations must fall with SNR; model factor must track.
	if r.RealIters[0] <= r.RealIters[len(r.RealIters)-1] {
		t.Errorf("real iterations did not fall with SNR: %v", r.RealIters)
	}
	if r.ModelIters[0] <= r.ModelIters[len(r.ModelIters)-1] {
		t.Errorf("model factor did not fall with SNR: %v", r.ModelIters)
	}
}

func TestCSVExport(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	o := Quick()
	r, err := RunFig6LDPCScaling(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "codeblocks,cores,mean_us,p99_us") {
		t.Fatalf("bad header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if strings.Count(out, "\n") != 16 { // header + 15 rows
		t.Fatalf("row count wrong:\n%s", out)
	}
	if err := WriteCSV(&Fig7Result{}, &buf); err == nil {
		t.Fatal("result without a CSV form accepted")
	}
}

func TestChaos(t *testing.T) {
	r, err := RunChaos(quick(t), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1+8*3 {
		t.Fatalf("sweep rows %d, want baseline + 8 classes x 3 levels", len(r.Rows))
	}
	if r.Rows[0].Class != "none" || r.Rows[0].Injected != 0 {
		t.Fatalf("baseline row corrupted: %+v", r.Rows[0])
	}
	for _, row := range r.Rows[1:] {
		if row.Injected == 0 {
			t.Errorf("%s/%s (%s): no faults injected", row.Class, row.Level, row.Spec)
		}
		if row.Reliability <= 0 || row.Reliability > 1 {
			t.Errorf("%s/%s: reliability %v out of range", row.Class, row.Level, row.Reliability)
		}
	}
	if !strings.Contains(r.String(), "Chaos") {
		t.Error("missing header")
	}
	header, rows := r.CSV()
	if len(header) != 8 || len(rows) != len(r.Rows) {
		t.Fatalf("CSV shape %dx%d", len(header), len(rows))
	}
}

func TestChaosCustomSpec(t *testing.T) {
	r, err := RunChaos(quick(t), "lane=0.2,stuck=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("custom spec rows %d, want baseline + custom", len(r.Rows))
	}
	custom := r.Rows[1]
	if custom.Class != "custom" || custom.Injected == 0 {
		t.Fatalf("custom run injected nothing: %+v", custom)
	}
	if _, err := RunChaos(quick(t), "bogus=1"); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"concordia/internal/sim"
	"concordia/internal/slo"
)

// goldenSLODigest is the sha256 of goldenSLOOutputs for goldenSLOConfig.
// Change it only with a change that is meant to alter the fleet's output.
const goldenSLODigest = "d3c1e4b60646acf5aa6e024036e7f2b2da7a0e66edda0d09361d829fa5ec287c"

// goldenSLOConfig is an SLO-enabled fleet shaped like examples/fleet: 40
// cells over 4 servers with one forced migration at epoch 2, so the merged
// tracker folds per-server keys, rows and alerts across epochs and servers.
// Small servers under a heavier load make it miss and alert.
func goldenSLOConfig() Config {
	return Config{
		Cells: 40, Servers: 4, CoresPerServer: 4,
		Load: 0.6, Horizon: 500 * sim.Millisecond, Epochs: 5,
		ForceMigrateEpoch: 2,
		Seed:              11, TrainingSlots: 150, Workers: 2,
		SLO: &slo.Options{},
	}
}

// goldenSLOOutputs concatenates every byte the fleet-merged SLO plane
// exports: the run summary, the window-row CSV and the health report.
func goldenSLOOutputs(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(res.String())
	if err := res.SLO.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.SLO.WriteHealthReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFleetSLO pins the fleet-merged SLO bytes, the path that folds
// per-server trackers through MergeRemapped.
func TestGoldenFleetSLO(t *testing.T) {
	res, err := Run(goldenSLOConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := goldenSLOOutputs(t, res)
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != goldenSLODigest {
		t.Errorf("fleet SLO digest %s, want %s", got, goldenSLODigest)
	}
}

package experiments

import (
	"concordia/internal/core"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// CaptureTelemetry runs the canonical collocation scenario — the 7-cell
// 20 MHz pool sharing 8 cores with Redis under the Concordia scheduler —
// with telemetry enabled and returns the finished system, whose
// WriteChromeTrace and WriteMetricsCSV export the trace-event JSON and the
// metrics time series. The exported bytes are deterministic: fixed seed,
// virtual timestamps, sorted iteration — identical across runs and Workers
// counts.
func CaptureTelemetry(o Options) (*core.System, error) {
	cfg := core.Scenario20MHz(7, 8)
	cfg.Workload = workloads.Redis
	cfg.Load = 0.25
	cfg.Seed = o.Seed
	cfg.TrainingSlots = o.training()
	cfg.Workers = o.Workers
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.Run(o.dur(2 * sim.Second))
	return sys, nil
}

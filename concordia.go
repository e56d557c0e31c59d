// Package concordia is a from-scratch reproduction of "Concordia: Teaching
// the 5G vRAN to Share Compute" (Foukas & Radunovic, SIGCOMM 2021): a
// userspace deadline-scheduling framework that lets a virtualized RAN share
// CPU cores with best-effort workloads while meeting 99.999% of its
// sub-millisecond signal-processing deadlines.
//
// The package assembles the full system on a deterministic discrete-event
// platform (see DESIGN.md for the substitution rationale): a 5G PHY task
// substrate, per-TTI traffic generation, the quantile-decision-tree WCET
// predictor (the paper's §4 contribution), the federated mixed-criticality
// scheduler with its 20 µs re-evaluation loop (§3), baseline schedulers and
// predictors, collocated workload models, and the OS latency/cache effects
// the evaluation hinges on.
//
// Quick start:
//
//	cfg := concordia.Scenario20MHz(7, 8)   // 7 cells, 8-core pool
//	cfg.Workload = concordia.Redis          // collocate Redis
//	cfg.Load = 0.25                         // 25% of max average load
//	sys, err := concordia.NewSystem(cfg)    // offline profiling + training
//	if err != nil { ... }
//	report := sys.Run(concordia.Seconds(60))
//	fmt.Println(report)                     // reliability, tails, reclaim
package concordia

import (
	"concordia/internal/core"
	"concordia/internal/faults"
	"concordia/internal/fleet"
	"concordia/internal/pool"
	"concordia/internal/ran"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// Core types, re-exported from the internal assembly.
type (
	// Config describes one deployment scenario: cells, pool size,
	// scheduler, collocated workload, traffic load and deadline.
	Config = core.Config
	// System is a trained, assembled deployment. Create with NewSystem.
	System = core.System
	// Report carries everything a run measures: reliability, latency
	// tails, reclaimed CPU, scheduling events, workload throughput.
	Report = pool.Report
	// SchedulerKind selects the core-allocation policy.
	SchedulerKind = core.SchedulerKind
	// WorkloadKind selects the collocated best-effort workload.
	WorkloadKind = workloads.Kind
	// Time is a virtual-time instant or duration in nanoseconds.
	Time = sim.Time
	// Telemetry records a run's structured event trace and metrics time
	// series. Create with NewTelemetry, attach via Config.Telemetry, export
	// with System.WriteChromeTrace / System.WriteMetricsCSV.
	Telemetry = telemetry.Recorder
	// TelemetryOptions configures trace capacity and metrics sampling.
	TelemetryOptions = telemetry.Options
	// FaultsConfig enables the deterministic chaos injector: lane failures,
	// stuck offloads, WCET overruns, interference bursts, core-yield storms,
	// and late/dropped fronthaul. Attach via Config.Faults; build from a
	// "class=rate,..." spec with ParseFaults. A nil or all-zero config leaves
	// every run byte-identical to a fault-free one.
	FaultsConfig = faults.Config
	// FleetConfig describes a pooled C-RAN cluster run: N Concordia servers,
	// hundreds of cells placed by fronthaul latency, migration under
	// sustained pressure (DESIGN.md §5h). Run with RunFleet.
	FleetConfig = fleet.Config
	// FleetResult is a fleet run's outcome: placement and migration counts,
	// fleet-wide deadline misses, and the pooling-gain accounting.
	FleetResult = fleet.Result
	// SLOOptions enables the streaming SLO plane (DESIGN.md §5j): windowed
	// mergeable quantile sketches, per-slice burn-rate alerts, and the fleet
	// health report over the URLLC and eMBB slices. Attach via Config.SLO
	// (the zero value selects the defaults); export with System.WriteSLOCSV /
	// System.WriteSLOReport or inspect with System.SLO.
	SLOOptions = slo.Options
	// SLOTracker is the live SLO aggregation state: window rows, the alert
	// timeline, and per-slice/per-cell summaries.
	SLOTracker = slo.Tracker
)

// Scheduling policies.
const (
	// SchedConcordia is the paper's federated mixed-criticality scheduler
	// driven by quantile-tree WCET predictions, re-evaluated every 20 µs.
	SchedConcordia = core.SchedConcordia
	// SchedFlexRAN is the vanilla queue-driven baseline with static
	// per-cell core partitioning.
	SchedFlexRAN = core.SchedFlexRAN
	// SchedShenango is the queueing-delay baseline of §6.3.
	SchedShenango = core.SchedShenango
	// SchedUtilization is the utilization-threshold baseline of §6.3.
	SchedUtilization = core.SchedUtilization
)

// Collocated workloads (§6's evaluation set).
const (
	Isolated = workloads.None
	Redis    = workloads.Redis
	Nginx    = workloads.Nginx
	TPCC     = workloads.TPCC
	MLPerf   = workloads.MLPerf
	Mix      = workloads.Mix
)

// NewSystem profiles the configured cells offline, trains one quantile
// decision tree per signal-processing task (Algorithm 1), and assembles the
// vRAN pool with the chosen scheduler and workloads.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// NewTelemetry returns an enabled telemetry recorder. The zero Options value
// selects the defaults (256 Ki event ring, one metrics sample per slot).
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// ParseFaults builds a fault-injection config from a comma-separated spec,
// e.g. "lane=0.05,stuck=0.01,burst=5" or the "all" preset. An empty spec
// returns the zero (disabled) config.
func ParseFaults(spec string) (FaultsConfig, error) { return faults.Parse(spec) }

// RunFleet simulates a pooled C-RAN cluster: every server is a full
// Concordia pool+sim instance, cells are admitted within their fronthaul
// budget and migrate between servers under sustained pressure. Byte-identical
// at any FleetConfig.Workers count.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// Scenario20MHz returns the paper's 7×20 MHz FDD deployment preset
// (2 ms slot deadline). Adjust cells/cores as needed.
func Scenario20MHz(cells, cores int) Config { return core.Scenario20MHz(cells, cores) }

// Scenario100MHz returns the paper's 2×100 MHz TDD deployment preset
// (1.5 ms slot deadline, 0.5 ms slots, 4×4 MIMO).
func Scenario100MHz(cells, cores int) Config { return core.Scenario100MHz(cells, cores) }

// ScenarioLTE returns a 4G deployment preset: 20 MHz FDD cells with turbo
// data coding (the cell class behind the paper's §2.2 trace measurements).
func ScenarioLTE(cells, cores int) Config {
	cfg := core.Scenario20MHz(cells, cores)
	cfg.Cells = ran.CellsLTE(cells)
	return cfg
}

// MinimumCores finds the smallest pool that meets the deadline with the
// given reliability at the configured load (the paper's provisioning
// methodology).
func MinimumCores(cfg Config, maxCores int, reliability float64, probe Time) (int, error) {
	return core.MinimumCores(cfg, maxCores, reliability, probe)
}

// Seconds converts seconds to Time.
func Seconds(s float64) Time { return Time(s * float64(sim.Second)) }

// Milliseconds converts milliseconds to Time.
func Milliseconds(ms float64) Time { return sim.FromMs(ms) }

// Microseconds converts microseconds to Time.
func Microseconds(us float64) Time { return sim.FromUs(us) }

package slo

import (
	"concordia/internal/sim"
)

// objective is one slice's service-level objective: a latency-quantile
// target plus a deadline-miss error budget evaluated by burn-rate rules.
// The latency target is Options.Deadline.
type objective struct {
	// name labels the slice in reports.
	name string
	// quantile is the latency quantile the target applies to.
	quantile float64
	// missBudget is the tolerated deadline-miss fraction (the error
	// budget): burn rate = observed miss rate / missBudget.
	missBudget float64
}

// objectives is the slice table; slice IDs index it. URLLC (slice 0)
// carries the paper's five-nines ambition scaled to windowed observation (a
// 1e-4 budget burns at 100x under a 1% miss rate, so chaos-grade
// degradation alerts within one fast window); eMBB (slice 1) tolerates two
// orders of magnitude more.
var objectives = [...]objective{
	{name: "urllc", quantile: 0.999, missBudget: 1e-4},
	{name: "embb", quantile: 0.99, missBudget: 1e-2},
}

// Window geometry, alerting thresholds and bounds.
const (
	// DefaultWindow is the tumbling sub-window width.
	DefaultWindow = 20 * sim.Millisecond
	// fastWindows / slowWindows size the multi-window burn rule in
	// sub-windows: fast = 1 window (20 ms by default), slow = 8 (160 ms).
	// The sliding windows are sums over the ring of the most recent
	// sub-windows, so they inherit the sketch layer's mergeability and
	// determinism.
	fastWindows = 1
	slowWindows = 8
	// DefaultBurnThreshold is the multi-window trigger (the SRE-style
	// "14.4x budget velocity" page threshold): an alert fires when both the
	// fast and the slow window burn at or above it.
	DefaultBurnThreshold = 14.4
	// rowCapacity bounds the window-row ring; alertCapacity the alert
	// timeline. Overflow is counted, not grown.
	rowCapacity   = 1 << 14
	alertCapacity = 1 << 10
	// faultHorizon is how long after a fault injection on a cell a miss on
	// that cell is counted under the fault's class. This is the online
	// (streaming) attribution heuristic; the autopsy's post-hoc partition
	// stays the ground truth.
	faultHorizon = 10 * sim.Millisecond
)

// Options configures a Tracker.
type Options struct {
	// Window is the tumbling sub-window width (0 selects DefaultWindow).
	Window sim.Time
	// BurnThreshold is the multi-window alert trigger (0 selects
	// DefaultBurnThreshold).
	BurnThreshold float64
	// Deadline is the DAG processing deadline, used to derive slack and as
	// every slice's latency target. Required (the integration layers fill
	// it from their own config).
	Deadline sim.Time
	// Cells maps the cell IDs the tracker records (a fleet server's pool
	// numbers its cells from 0) to their global IDs; nil means the IDs are
	// already global. A stream is keyed by its cell's global ID, and the
	// ID's parity is its slice: even cells are URLLC (slice 0), odd cells
	// eMBB (slice 1).
	Cells []int32
	// Server stamps every key and event this tracker produces (fleet runs
	// give each per-server tracker its index; single-pool runs use 0).
	Server int32
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = DefaultBurnThreshold
	}
	return o
}

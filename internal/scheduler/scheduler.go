// Package scheduler implements the core-allocation policies of §3 and §6.3:
// the Concordia federated mixed-criticality scheduler (after Li et al.,
// "Mixed-criticality federated scheduling for parallel real-time tasks"),
// the vanilla FlexRAN queue-based baseline, a Shenango-style queueing-delay
// scheduler, and a utilization-based scheduler.
//
// A scheduler answers one question at each invocation: how many CPU cores
// should the vRAN pool hold right now? The pool maps that count onto
// physical cores (with 2 ms rotation), preempting or releasing best-effort
// work accordingly. Concordia is invoked every 20 µs; the baselines are
// invoked on their own triggers but are driven through the same interface.
package scheduler

import (
	"math"

	"concordia/internal/sim"
)

// DAGState is the scheduler's view of one in-flight signal-processing DAG.
// Work and critical-path values come from the WCET predictor — feeding
// predictions rather than measurements into the allocator is the paper's
// central design decision.
type DAGState struct {
	Deadline sim.Time
	// RemainingWork is the summed predicted WCET of unfinished tasks (the
	// C_i term), including the remainder of currently running tasks.
	RemainingWork sim.Time
	// RemainingCriticalPath is the predicted longest dependency chain
	// among unfinished tasks (the L_i term).
	RemainingCriticalPath sim.Time
}

// PoolState is the scheduler's input at a decision point.
type PoolState struct {
	Now        sim.Time
	TotalCores int
	DAGs       []DAGState
	// ReadyTasks is the number of tasks currently runnable (dependencies
	// met, not yet started); RunningTasks the number executing.
	ReadyTasks   int
	RunningTasks int
	// OldestReadyAge is how long the oldest ready task has waited.
	OldestReadyAge sim.Time
	// Utilization is the pool's recent core-utilization EWMA (0..1),
	// measured over the allocated cores.
	Utilization float64
}

// Scheduler decides the vRAN pool's core allocation.
type Scheduler interface {
	// Cores returns how many cores the vRAN should hold given the state.
	Cores(s PoolState) int
	// Interval is the re-evaluation period the policy is designed for.
	Interval() sim.Time
	// CompensatesWakeups reports whether the policy allocates extra cores
	// when a scheduled core is slow to wake (Concordia's 20 µs
	// re-evaluation absorbs stuck wakeups; the baselines do not).
	CompensatesWakeups() bool
}

// sideEffectFree marks the policies whose Cores reads its PoolState and
// changes nothing: no state of the policy's own steps, nothing is counted.
type sideEffectFree interface{ sideEffectFree() }

func (*Concordia) sideEffectFree() {}
func (FlexRAN) sideEffectFree()    {}

// SideEffectFree reports whether s's Cores has no side effects, so a caller
// may leave out a call whose answer it would not read and change nothing
// else. It decides by the policy's type: Concordia and FlexRAN are; Shenango
// and Utilization step their ±1 state on every call; and any other type,
// Instrumented and every wrapper included, counts as having side effects.
func SideEffectFree(s Scheduler) bool {
	_, ok := s.(sideEffectFree)
	return ok
}

// Concordia is the federated mixed-criticality allocator of §3. For every
// active DAG it computes the minimum core count that finishes the remaining
// predicted work by the deadline,
//
//	n_i = ceil((C_i − L_i) / (D_i − now − L_i)),
//
// and escalates to every pool core (evicting all best-effort work) when a
// DAG enters its critical stage — when the slack beyond the critical path
// falls below κ × L_i. Allocations are re-evaluated every 20 µs, which is
// also how mispredictions and slow core wakeups are absorbed (§6.4:
// per-task accuracy is below five nines, full-DAG reliability is not).
type Concordia struct {
	// DisableWakeupCompensation turns off the stuck-core replacement
	// mechanism (ablation studies only).
	DisableWakeupCompensation bool
}

// The paper's parameters for Concordia.
const (
	// criticalFactor κ controls critical-stage entry; a DAG is critical
	// when (D − now) ≤ (1 + κ)·L.
	criticalFactor = 0.5
	// concordiaPeriod is the re-evaluation interval.
	concordiaPeriod = 20 * sim.Microsecond
)

// NewConcordia returns the scheduler with the paper's parameters.
func NewConcordia() *Concordia { return &Concordia{} }

// Interval implements Scheduler.
func (c *Concordia) Interval() sim.Time { return concordiaPeriod }

// CompensatesWakeups implements Scheduler: the fine-grained re-evaluation
// replaces cores that fail to wake in time (§3, §6.2).
func (c *Concordia) CompensatesWakeups() bool { return !c.DisableWakeupCompensation }

// edfShareBound is the schedulable-utilization bound used for the shared
// cores that serve the low-utilization DAG class (Li et al. run the low
// class under partitioned EDF on the leftover cores).
const edfShareBound = 0.75

// Cores implements the federated allocation of Li et al. (Table 3 of [61]):
// high-utilization DAGs — those whose remaining work cannot meet the
// deadline on one core — receive ⌈(C−L)/(D−now−L)⌉ dedicated cores each;
// low-utilization DAGs are pooled onto shared cores sized by their summed
// density C/(D−now) against an EDF schedulability bound. Without the
// low-utilization class, every in-flight slot DAG of a many-cell pool would
// pin its own core and nothing would ever be reclaimed.
func (c *Concordia) Cores(s PoolState) int {
	if len(s.DAGs) == 0 {
		return 0
	}
	total := 0
	lowDensity := 0.0
	for _, d := range s.DAGs {
		if d.RemainingWork <= 0 {
			continue
		}
		slack := d.Deadline - s.Now
		l := d.RemainingCriticalPath
		if c.dagCritical(d, s.Now) {
			// Critical stage: all cores, evict best-effort work.
			return s.TotalCores
		}
		denom := float64(slack - l)
		work := float64(d.RemainingWork - l)
		n := 1
		if work > 0 && denom > 0 {
			n = int(math.Ceil(work / denom))
			if n < 1 {
				n = 1
			}
		}
		if n >= 2 {
			total += n
			continue
		}
		density := float64(d.RemainingWork) / float64(slack)
		if density > edfShareBound {
			total++
		} else {
			lowDensity += density
		}
	}
	if lowDensity > 0 {
		total += int(math.Ceil(lowDensity / edfShareBound))
	}
	if total > s.TotalCores {
		total = s.TotalCores
	}
	return total
}

// dagCritical reports whether one DAG is inside its critical stage: the
// remaining slack no longer exceeds (1+κ) times the predicted critical path.
func (c *Concordia) dagCritical(d DAGState, now sim.Time) bool {
	return d.Deadline-now <= sim.Time(float64(d.RemainingCriticalPath)*(1+criticalFactor))
}

// Critical reports whether any in-flight DAG is in its critical stage — the
// condition under which Cores escalates to the full pool and evicts all
// best-effort work. Telemetry uses it to count escalation decisions.
func (c *Concordia) Critical(s PoolState) bool {
	for _, d := range s.DAGs {
		if d.RemainingWork > 0 && c.dagCritical(d, s.Now) {
			return true
		}
	}
	return false
}

// FlexRAN is the vanilla baseline: the queue-driven worker model that
// acquires cores while tasks are waiting and releases them the moment the
// queues drain. It has no notion of deadlines or predicted work.
type FlexRAN struct{}

// Interval implements Scheduler: the queue model reacts at a fine grain
// (every queue transition); the pool drives it at the same 20 µs tick for
// comparability.
func (FlexRAN) Interval() sim.Time { return 20 * sim.Microsecond }

// CompensatesWakeups implements Scheduler.
func (FlexRAN) CompensatesWakeups() bool { return false }

// Cores implements Scheduler: one core per runnable-or-running task.
func (FlexRAN) Cores(s PoolState) int {
	n := s.ReadyTasks + s.RunningTasks
	if n > s.TotalCores {
		n = s.TotalCores
	}
	return n
}

// Shenango is the queueing-delay baseline of §6.3: it adds one core
// whenever the oldest ready task has waited longer than Threshold, and
// drops one when the pool goes idle. It keeps internal state across calls.
type Shenango struct {
	Threshold sim.Time
	current   int
}

// NewShenango returns the baseline with the given queueing-delay threshold
// (the paper sweeps 5 µs to 200 µs without finding a universally safe
// value).
func NewShenango(threshold sim.Time) *Shenango {
	return &Shenango{Threshold: threshold}
}

// Interval implements Scheduler (Shenango's IOKernel polls every 5 µs; we
// drive it at the same 20 µs tick for comparability).
func (s *Shenango) Interval() sim.Time { return 20 * sim.Microsecond }

// CompensatesWakeups implements Scheduler.
func (s *Shenango) CompensatesWakeups() bool { return false }

// Cores implements the ±1 core adjustment.
func (s *Shenango) Cores(st PoolState) int {
	busy := st.ReadyTasks + st.RunningTasks
	if busy == 0 {
		s.current = 0
		return 0
	}
	if s.current == 0 {
		s.current = 1
	}
	if st.OldestReadyAge > s.Threshold && s.current < st.TotalCores {
		s.current++
	}
	if s.current > st.TotalCores {
		s.current = st.TotalCores
	}
	return s.current
}

// Utilization is the utilization-threshold baseline of §6.3: it wakes an
// additional worker when recent pool utilization exceeds Threshold and
// parks one when it falls below half the threshold.
type Utilization struct {
	Threshold float64
	current   int
}

// NewUtilization returns the baseline with the given utilization threshold
// (the paper uses 60 % for 20 MHz and 30 % for 100 MHz configurations).
func NewUtilization(threshold float64) *Utilization {
	return &Utilization{Threshold: threshold}
}

// Interval implements Scheduler: utilization reacts at TTI granularity; the
// pool drives it at 100 µs.
func (u *Utilization) Interval() sim.Time { return 100 * sim.Microsecond }

// CompensatesWakeups implements Scheduler.
func (u *Utilization) CompensatesWakeups() bool { return false }

// Cores implements the threshold adjustment.
func (u *Utilization) Cores(st PoolState) int {
	busy := st.ReadyTasks + st.RunningTasks
	if busy == 0 {
		u.current = 0
		return 0
	}
	if u.current == 0 {
		u.current = 1
		return u.current
	}
	if st.Utilization > u.Threshold && u.current < st.TotalCores {
		u.current++
	} else if st.Utilization < u.Threshold/2 && u.current > 1 {
		u.current--
	}
	if u.current > st.TotalCores {
		u.current = st.TotalCores
	}
	return u.current
}

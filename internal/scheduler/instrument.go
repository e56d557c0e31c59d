package scheduler

import "concordia/internal/sim"

// Instrumented wraps a policy so every Cores call is reported to Observe
// before the decision is returned. The wrapper is transparent: Interval and
// CompensatesWakeups forward to the inner policy, so the pool treats an
// instrumented scheduler exactly like the bare one.
type Instrumented struct {
	Inner Scheduler
	// Observe receives whether the decision was a Concordia critical-stage
	// escalation (always false for the baselines, which have no notion of a
	// critical stage).
	Observe func(critical bool)
}

// Interval implements Scheduler.
func (i Instrumented) Interval() sim.Time { return i.Inner.Interval() }

// CompensatesWakeups implements Scheduler.
func (i Instrumented) CompensatesWakeups() bool { return i.Inner.CompensatesWakeups() }

// Cores implements Scheduler, reporting the decision to the observer.
func (i Instrumented) Cores(s PoolState) int {
	n := i.Inner.Cores(s)
	if i.Observe != nil {
		critical := false
		if c, ok := i.Inner.(*Concordia); ok && n == s.TotalCores && len(s.DAGs) > 0 {
			critical = c.Critical(s)
		}
		i.Observe(critical)
	}
	return n
}

package scheduler

import (
	"slices"
	"testing"
	"testing/quick"

	"concordia/internal/sim"
)

func ms(v float64) sim.Time { return sim.FromMs(v) }
func us(v float64) sim.Time { return sim.FromUs(v) }

func TestConcordiaIdle(t *testing.T) {
	c := NewConcordia()
	if got := c.Cores(PoolState{TotalCores: 8}); got != 0 {
		t.Fatalf("idle pool allocated %d cores", got)
	}
}

func TestConcordiaSingleDAGMinimalCores(t *testing.T) {
	c := NewConcordia()
	// Work 2 ms, critical path 0.2 ms, deadline 1.5 ms away:
	// n = ceil((2000-200)/(1500-200)) = ceil(1.38) = 2.
	s := PoolState{
		Now:        0,
		TotalCores: 8,
		DAGs: []DAGState{{
			Deadline:              ms(1.5),
			RemainingWork:         ms(2.0),
			RemainingCriticalPath: ms(0.2),
		}},
	}
	if got := c.Cores(s); got != 2 {
		t.Fatalf("cores %d want 2", got)
	}
}

func TestConcordiaParallelismGrowsAsDeadlineNears(t *testing.T) {
	c := NewConcordia()
	mk := func(now sim.Time) int {
		return c.Cores(PoolState{
			Now:        now,
			TotalCores: 16,
			DAGs: []DAGState{{
				Deadline:              ms(1.5),
				RemainingWork:         ms(3.0),
				RemainingCriticalPath: us(100),
			}},
		})
	}
	early := mk(0)
	late := mk(ms(1.0))
	if late <= early {
		t.Fatalf("allocation must grow as deadline approaches: %d -> %d", early, late)
	}
}

func TestConcordiaCriticalStageEscalation(t *testing.T) {
	c := NewConcordia()
	// Slack 120 µs with a 100 µs critical path: inside (1+κ)·L for κ=0.5.
	s := PoolState{
		Now:        ms(1.38),
		TotalCores: 8,
		DAGs: []DAGState{{
			Deadline:              ms(1.5),
			RemainingWork:         us(300),
			RemainingCriticalPath: us(100),
		}},
	}
	if got := c.Cores(s); got != 8 {
		t.Fatalf("critical stage allocated %d cores, want all 8", got)
	}
}

func TestConcordiaSumsOverDAGs(t *testing.T) {
	c := NewConcordia()
	d := DAGState{Deadline: ms(1.5), RemainingWork: ms(1.0), RemainingCriticalPath: us(100)}
	one := c.Cores(PoolState{TotalCores: 16, DAGs: []DAGState{d}})
	three := c.Cores(PoolState{TotalCores: 16, DAGs: []DAGState{d, d, d}})
	if three <= one {
		t.Fatalf("multi-DAG allocation %d not above single %d", three, one)
	}
}

func TestConcordiaCappedAtTotal(t *testing.T) {
	c := NewConcordia()
	var dags []DAGState
	for i := 0; i < 20; i++ {
		dags = append(dags, DAGState{
			Deadline: ms(1.5), RemainingWork: ms(5), RemainingCriticalPath: us(50)})
	}
	if got := c.Cores(PoolState{TotalCores: 8, DAGs: dags}); got != 8 {
		t.Fatalf("allocation %d exceeds pool", got)
	}
}

func TestConcordiaFinishedDAGsIgnored(t *testing.T) {
	c := NewConcordia()
	s := PoolState{TotalCores: 8, DAGs: []DAGState{{
		Deadline: ms(1.5), RemainingWork: 0, RemainingCriticalPath: 0}}}
	if got := c.Cores(s); got != 0 {
		t.Fatalf("finished DAG allocated %d cores", got)
	}
}

// Property: allocation is monotone — more remaining work never yields fewer
// cores, and a nearer deadline never yields fewer cores.
func TestConcordiaMonotonicity(t *testing.T) {
	c := NewConcordia()
	err := quick.Check(func(workUs, extraUs uint16, slackUs uint32) bool {
		l := us(50)
		work := us(float64(workUs%5000) + 100)
		slack := us(float64(slackUs%3000) + 200)
		base := PoolState{TotalCores: 64, DAGs: []DAGState{{
			Deadline: slack, RemainingWork: work, RemainingCriticalPath: l}}}
		more := PoolState{TotalCores: 64, DAGs: []DAGState{{
			Deadline: slack, RemainingWork: work + us(float64(extraUs%2000)), RemainingCriticalPath: l}}}
		return c.Cores(more) >= c.Cores(base)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlexRANFollowsQueue(t *testing.T) {
	f := FlexRAN{}
	if got := f.Cores(PoolState{TotalCores: 8}); got != 0 {
		t.Fatalf("idle flexran allocated %d", got)
	}
	if got := f.Cores(PoolState{TotalCores: 8, ReadyTasks: 3, RunningTasks: 2}); got != 5 {
		t.Fatalf("flexran cores %d want 5", got)
	}
	if got := f.Cores(PoolState{TotalCores: 4, ReadyTasks: 10}); got != 4 {
		t.Fatalf("flexran cores %d want cap 4", got)
	}
}

func TestShenangoRampsOnQueueDelay(t *testing.T) {
	s := NewShenango(us(25))
	st := PoolState{TotalCores: 8, ReadyTasks: 2, RunningTasks: 1}
	if got := s.Cores(st); got != 1 {
		t.Fatalf("initial shenango cores %d want 1", got)
	}
	st.OldestReadyAge = us(30)
	if got := s.Cores(st); got != 2 {
		t.Fatalf("after delay breach cores %d want 2", got)
	}
	if got := s.Cores(st); got != 3 {
		t.Fatalf("sustained breach cores %d want 3", got)
	}
	// Queue drains: release everything.
	if got := s.Cores(PoolState{TotalCores: 8}); got != 0 {
		t.Fatalf("drained shenango cores %d want 0", got)
	}
}

func TestShenangoCapped(t *testing.T) {
	s := NewShenango(us(5))
	st := PoolState{TotalCores: 3, ReadyTasks: 5, OldestReadyAge: us(100)}
	for i := 0; i < 10; i++ {
		if got := s.Cores(st); got > 3 {
			t.Fatalf("shenango exceeded pool: %d", got)
		}
	}
}

func TestUtilizationScheduler(t *testing.T) {
	u := NewUtilization(0.6)
	st := PoolState{TotalCores: 8, ReadyTasks: 1, RunningTasks: 1, Utilization: 0.9}
	if got := u.Cores(st); got != 1 {
		t.Fatalf("initial util cores %d want 1", got)
	}
	if got := u.Cores(st); got != 2 {
		t.Fatalf("high-util cores %d want 2", got)
	}
	st.Utilization = 0.1
	if got := u.Cores(st); got != 1 {
		t.Fatalf("low-util cores %d want 1", got)
	}
	if got := u.Cores(PoolState{TotalCores: 8}); got != 0 {
		t.Fatalf("idle util cores %d want 0", got)
	}
}

func TestNamesAndIntervals(t *testing.T) {
	for _, s := range []Scheduler{NewConcordia(), FlexRAN{}, NewShenango(us(25)), NewUtilization(0.5)} {
		if s.Interval() <= 0 {
			t.Errorf("%T has non-positive interval", s)
		}
	}
	if NewConcordia().Interval() != 20*sim.Microsecond {
		t.Error("Concordia must re-evaluate every 20 µs")
	}
}

// TestSideEffectFree pins which policies the pool may ask only where it reads
// the answer: a side-effect-free Cores called twice on one state answers
// the same and leaves the state's DAGs as they were; each of the others
// shows the effect that keeps it off the list.
func TestSideEffectFree(t *testing.T) {
	st := PoolState{
		Now: ms(0.4), TotalCores: 8, ReadyTasks: 3, RunningTasks: 2,
		OldestReadyAge: us(60), Utilization: 0.9,
		DAGs: []DAGState{
			{Deadline: ms(1.5), RemainingWork: ms(2.0), RemainingCriticalPath: ms(0.2)},
			{Deadline: ms(2.0), RemainingWork: us(300), RemainingCriticalPath: us(100)},
			{Deadline: ms(1.9), RemainingWork: 0},
		},
	}
	want := append([]DAGState(nil), st.DAGs...)
	for _, s := range []Scheduler{NewConcordia(), &Concordia{DisableWakeupCompensation: true}, FlexRAN{}} {
		if !SideEffectFree(s) {
			t.Errorf("%T (%+v) not side-effect free", s, s)
		}
		if first, second := s.Cores(st), s.Cores(st); first != second {
			t.Errorf("%T answered %d, then %d on the same state", s, first, second)
		}
		if !slices.Equal(st.DAGs, want) {
			t.Errorf("%T changed the state's DAGs: %+v, want %+v", s, st.DAGs, want)
		}
	}

	for _, s := range []Scheduler{NewShenango(us(25)), NewUtilization(0.6)} {
		if SideEffectFree(s) {
			t.Errorf("%T classified side-effect free", s)
		}
		if first, second := s.Cores(st), s.Cores(st); first == second {
			t.Errorf("%T answered %d twice on the same state: its ±1 state did not step", s, first)
		}
	}
	calls := 0
	inst := Instrumented{Inner: NewConcordia(), Observe: func(bool) { calls++ }}
	if SideEffectFree(inst) {
		t.Error("Instrumented classified side-effect free")
	}
	inst.Cores(st)
	inst.Cores(st)
	if calls != 2 {
		t.Errorf("Instrumented reported %d of 2 calls to Observe", calls)
	}
}

func BenchmarkConcordiaCores(b *testing.B) {
	c := NewConcordia()
	dags := make([]DAGState, 7)
	for i := range dags {
		dags[i] = DAGState{Deadline: ms(2), RemainingWork: ms(1), RemainingCriticalPath: us(150)}
	}
	s := PoolState{TotalCores: 8, DAGs: dags}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Cores(s)
	}
}

package pool

import (
	"errors"

	"concordia/internal/ran"
	"concordia/internal/scheduler"
)

// Arena is memory that pools built one after another borrow in turn, so a
// caller that builds many short-lived pools (the fleet builds one per server
// per placement epoch) allocates their freelists and report storage once.
// The zero value is ready to use.
//
// An Arena serves one Pool at a time. New takes its memory and Run hands it
// back when it returns, runs still in flight at the horizon included, so the
// next New on the same Arena starts from it. The Report a Pool returns keeps
// its samples in the Arena and stays valid until the Arena's next New. A
// Pool that is built but never run keeps its Arena. An Arena is not safe for
// concurrent use (DESIGN.md §5f).
type Arena struct {
	mem  arenaMem
	lent bool // a Pool holds mem: New has taken it and Run has not returned
}

// errArenaLent refuses a second pool on an arena whose first has not run.
var errArenaLent = errors.New("pool: arena is lent to a pool that has not finished Run")

// arenaMem is everything a Pool borrows from its Arena. Pool embeds it, so
// the hot path reaches each buffer directly.
type arenaMem struct {
	// runTable/freeRuns implement the dagRun freelist; freeDAGs recycles the
	// slot-scoped *ran.DAG graphs (slabs, Deps/Succs capacity and all).
	runTable []*dagRun
	freeRuns []int32
	freeDAGs []*ran.DAG
	// slotAlloc reuses the per-slot UE allocation buffers.
	slotAlloc ran.SlotAllocator
	// stDAGs is the schedulerState scratch; policies must not retain it.
	stDAGs []scheduler.DAGState
	// report is the run's report; newReport resets the previous run's
	// sample storage in place.
	report *Report
	// pc is the poolcheck sanitizer state (DESIGN.md §5g): empty struct and
	// no-op hooks unless built with -tags poolcheck. It shadows runTable, so
	// it travels with it.
	pc poolPC
}

// handBack ends p's loan. Every run still in flight or still referenced by
// a pending event at the horizon is recycled, and so poisoned and marked
// freed under poolcheck; then all of p's borrowed memory returns to its
// arena. p.dags keeps its length, the DAGs in flight at the horizon, but no
// longer points at any run.
func (p *Pool) handBack() {
	for _, run := range p.runTable {
		if run.dag != nil { // off the freelist
			run.retired, run.refs = true, 0
			p.maybeRecycle(run)
		}
	}
	clear(p.dags)
	p.cfg.Arena.mem = p.arenaMem
	p.arenaMem = arenaMem{}
	p.cfg.Arena.lent = false
}

//go:build poolcheck

package pool

import (
	"fmt"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

// PoolcheckEnabled reports whether the poolcheck sanitizer (DESIGN.md §5g)
// is compiled in.
const PoolcheckEnabled = true

// Poison and canary values. The 0xDD ("dead") patterns make a recycled
// object unmistakable in a debugger and poison every quantity downstream
// code computes with: a poisoned predicted/tailCP is hugely negative (EDF
// ordering goes visibly insane rather than subtly wrong), a poisoned
// heapIndex crashes any heap fix-up, and a poisoned node pointer (nil)
// crashes the first dereference. The canary is a distinctive non-poison
// value planted past the slab's live length to detect out-of-bounds writes
// between checkout and recycle.
const (
	pcPoisonTime = sim.Time(-0xDDDDDDDD)
	pcPoisonIdx  = -0xDD
	pcCanary     = sim.Time(0x5AFE5AFE5AFE5AFE)
)

// poolPC shadows the dagRun freelist with a freed bit and the owning release
// seq per run-table slot. checkLive turns a use-after-recycle into a panic
// naming the run and the release that freed it; without the tag the same bug
// corrupts whichever run has reused the slab.
type poolPC struct {
	freed    []bool
	freedSeq []int64
}

func (pc *poolPC) grow(id int32) {
	for int32(len(pc.freed)) <= id {
		pc.freed = append(pc.freed, false)
		pc.freedSeq = append(pc.freedSeq, -1)
	}
}

// acquire marks the run live and plants a canary in the first spare slab
// entry beyond the live length, when the recycled capacity has one.
func (pc *poolPC) acquire(run *dagRun) {
	pc.grow(run.id)
	pc.freed[run.id] = false
	if n := len(run.tasks); cap(run.tasks) > n {
		spare := &run.tasks[:cap(run.tasks)][n]
		spare.predicted = pcCanary
		spare.heapIndex = pcPoisonIdx
	}
}

// recycle verifies the canary, poisons the slab, and marks the run freed.
// The DAG is poisoned here too, before maybeRecycle hands it to the DAG
// freelist and nils run.dag.
func (pc *poolPC) recycle(run *dagRun) {
	pc.grow(run.id)
	if pc.freed[run.id] {
		panic(fmt.Sprintf(
			"pool: poolcheck: double recycle of dagRun %d (first release seq %d, now seq %d)",
			run.id, pc.freedSeq[run.id], run.seq))
	}
	if n := len(run.tasks); cap(run.tasks) > n {
		if spare := &run.tasks[:cap(run.tasks)][n]; spare.predicted != pcCanary {
			panic(fmt.Sprintf(
				"pool: poolcheck: slab canary clobbered on dagRun %d (seq %d): "+
					"a write ran past the %d live tasks into spare capacity",
				run.id, run.seq, n))
		}
	}
	for i := range run.tasks {
		t := &run.tasks[i]
		t.node = nil // first stale dereference crashes
		// t.dag stays: checkLive reads it through recycled task pointers.
		t.predicted = pcPoisonTime
		t.readyAt = pcPoisonTime
		t.started = pcPoisonTime
		t.tailCP = pcPoisonTime
		t.heapIndex = pcPoisonIdx
	}
	for i := range run.frontier {
		run.frontier[i] = pcPoisonIdx // a stale frontier read indexes out of range
	}
	ran.PoolcheckPoison(run.dag, run.seq)
	pc.freed[run.id] = true
	pc.freedSeq[run.id] = run.seq
}

// checkLive panics when run has already been recycled. Call sites are the
// entry points stale references arrive through: queue insertion, dispatch,
// and the typed offload-completion events.
func (pc *poolPC) checkLive(run *dagRun) {
	if run == nil || int32(len(pc.freed)) <= run.id || !pc.freed[run.id] {
		return
	}
	panic(fmt.Sprintf(
		"pool: poolcheck: use-after-recycle of dagRun %d (owning release seq %d)",
		run.id, pc.freedSeq[run.id]))
}

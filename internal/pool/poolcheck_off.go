//go:build !poolcheck

package pool

// PoolcheckEnabled reports whether the poolcheck sanitizer (DESIGN.md §5g)
// is compiled in. Normal builds carry an empty poolPC and no-op hooks, so
// the freelist hot path pays nothing.
const PoolcheckEnabled = false

// poolPC is the per-pool poolcheck state; empty in normal builds.
type poolPC struct{}

func (*poolPC) acquire(run *dagRun)   {}
func (*poolPC) recycle(run *dagRun)   {}
func (*poolPC) checkLive(run *dagRun) {}

func (*Pool) checkWorkConserving() {}

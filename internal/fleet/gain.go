package fleet

import (
	"math"

	"concordia/internal/traffic"
)

// DemandTracker folds per-slot per-server offered traffic into per-epoch
// sustained demand peaks — the raw material of the pooling-gain accounting.
// The per-slot path (BeginSlot/Add/EndSlot, and AccumulateEpoch which
// drives them) is allocation-free: it runs once per TTI per fleet run and
// the alloc gate in fleet_test.go holds it to zero allocations.
//
// A "peak" here is the mean of an epoch's topPeakSlots worst slots, not the
// single worst slot: cell activity is bursty, so one-slot maxima are noisy
// enough to drown the systematic balance improvements migration buys, while
// the sustained peak is what a provisioner sizes against.
//
// The conversion from bytes to cores happens once at the end of the run:
// the fleet calibrates kappa (busy core-seconds per offered byte) from its
// own simulation, so a server's required cores for an epoch is
// kappa × sustained-peak-bytes / slot-seconds — the core count that absorbs
// the epoch's worst sustained burst at the measured efficiency.
type DemandTracker struct {
	servers int

	cur    []float64 // current slot, per server
	curAgg float64
	topk   []float64 // current epoch per-server top slot volumes (servers × topPeakSlots)
	tkAgg  [topPeakSlots]float64
	slots  int // slots folded into the current epoch

	epochs  [][]float64 // closed epochs' per-server sustained peaks
	aggPeak []float64   // closed epochs' fleet-aggregate sustained peaks
	total   float64     // total offered bytes across the run
}

// topPeakSlots is the number of worst slots averaged into a sustained peak.
const topPeakSlots = 4

// NewDemandTracker sizes a tracker for the fleet.
func NewDemandTracker(servers int) *DemandTracker {
	return &DemandTracker{
		servers: servers,
		cur:     make([]float64, servers),
		topk:    make([]float64, servers*topPeakSlots),
	}
}

// BeginEpoch resets the per-epoch peaks.
func (d *DemandTracker) BeginEpoch() {
	for i := range d.topk {
		d.topk[i] = 0
	}
	for i := range d.tkAgg {
		d.tkAgg[i] = 0
	}
	d.slots = 0
}

// BeginSlot resets the per-slot accumulators.
func (d *DemandTracker) BeginSlot() {
	for i := range d.cur {
		d.cur[i] = 0
	}
	d.curAgg = 0
}

// Add credits one cell's slot volume to its server.
func (d *DemandTracker) Add(server, bytes int) {
	d.cur[server] += float64(bytes)
	d.curAgg += float64(bytes)
	d.total += float64(bytes)
}

// EndSlot folds the slot into the epoch's top-slot sets.
func (d *DemandTracker) EndSlot() {
	for i, v := range d.cur {
		replaceMin(d.topk[i*topPeakSlots:(i+1)*topPeakSlots], v)
	}
	replaceMin(d.tkAgg[:], d.curAgg)
	d.slots++
}

// replaceMin keeps top as the set of the largest values seen: if v beats the
// current minimum, it takes its place.
func replaceMin(top []float64, v float64) {
	min := 0
	for i := 1; i < len(top); i++ {
		if top[i] < top[min] {
			min = i
		}
	}
	if v > top[min] {
		top[min] = v
	}
}

// EndEpoch closes the epoch, archiving its sustained peaks.
func (d *DemandTracker) EndEpoch() {
	n := d.slots
	if n > topPeakSlots {
		n = topPeakSlots
	}
	peaks := make([]float64, d.servers)
	for s := range peaks {
		peaks[s] = sustained(d.topk[s*topPeakSlots:(s+1)*topPeakSlots], n)
	}
	d.epochs = append(d.epochs, peaks)
	d.aggPeak = append(d.aggPeak, sustained(d.tkAgg[:], n))
}

// sustained averages the populated top slots (n = min(slots, topPeakSlots)).
func sustained(top []float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	sum := 0.0
	for _, v := range top {
		sum += v
	}
	return sum / float64(n)
}

// Total returns the offered bytes accumulated across the run.
func (d *DemandTracker) Total() float64 { return d.total }

// EpochCores returns epoch e's fleet-wide core requirement: the sum over
// servers of the smallest integer core count absorbing that server's
// sustained peak at efficiency kappa (busy core-seconds per byte).
func (d *DemandTracker) EpochCores(e int, kappa, slotSec float64) int {
	n := 0
	for _, peak := range d.epochs[e] {
		n += coresFor(peak, kappa, slotSec)
	}
	return n
}

// RequiredDemand returns the run's time-averaged peak demand rate in
// bytes/second: the mean over epochs of the sum of per-server sustained
// peaks. It is the kappa-free core of the pooling-gain accounting —
// multiply by any kappa to get a core requirement, so two runs over the
// same traffic compare at a common calibration. With migrations rebalancing
// hot servers, later epochs' per-server peaks shrink, which the mean
// credits — the share of the fleet NOT required is what collocated
// workloads reclaim.
func (d *DemandTracker) RequiredDemand(slotSec float64) float64 {
	if len(d.epochs) == 0 || slotSec <= 0 {
		return 0
	}
	sum := 0.0
	for _, peaks := range d.epochs {
		for _, peak := range peaks {
			sum += peak
		}
	}
	return sum / slotSec / float64(len(d.epochs))
}

// IdealDemand returns the single-global-pool bound on the demand rate: the
// mean over epochs of the fleet-aggregate sustained peak. The gap between
// RequiredDemand and IdealDemand is the residual partitioning loss.
func (d *DemandTracker) IdealDemand(slotSec float64) float64 {
	if len(d.aggPeak) == 0 || slotSec <= 0 {
		return 0
	}
	sum := 0.0
	for _, peak := range d.aggPeak {
		sum += peak
	}
	return sum / slotSec / float64(len(d.aggPeak))
}

// coresFor converts a peak slot volume to a whole-core requirement. A
// server with any assigned traffic needs at least one core.
func coresFor(peakBytes, kappa, slotSec float64) int {
	if peakBytes <= 0 || kappa <= 0 || slotSec <= 0 {
		return 0
	}
	n := int(math.Ceil(kappa * peakBytes / slotSec))
	if n < 1 {
		n = 1
	}
	return n
}

// AccumulateEpoch drives the tracker through one epoch of the global traces
// under the current assignment, and writes each cell's mean per-slot volume
// into demand (for the placement engine's next decision round). Slots
// [lo, hi) of ul/dl; rejected cells (assign < 0) carry no served traffic.
// This is the per-slot fleet-coordination path: no allocations.
func AccumulateEpoch(d *DemandTracker, ul, dl *traffic.Trace, lo, hi int, assign []int, demand []float64) {
	for c := range demand {
		demand[c] = 0
	}
	for t := lo; t < hi; t++ {
		d.BeginSlot()
		ulRow, dlRow := ul.Volumes[t], dl.Volumes[t]
		for c, s := range assign {
			if s < 0 {
				continue
			}
			v := ulRow[c] + dlRow[c]
			d.Add(s, v)
			demand[c] += float64(v)
		}
		d.EndSlot()
	}
	if n := hi - lo; n > 0 {
		inv := 1 / float64(n)
		for c := range demand {
			demand[c] *= inv
		}
	}
}

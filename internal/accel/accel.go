// Package accel models the hardware-accelerator extension of §7 as a small
// fleet of FEC devices (ACC100-like; the paper's testbed uses a Terasic
// DE5-Net) that offload LDPC encoding and decoding. Each device partitions
// its processing engines behind SR-IOV virtual functions (VFs), and each VF
// exposes one admission queue per 4G/5G UL/DL queue group, mirroring how
// production FEC operators configure the hardware. Offloaded work leaves the
// CPU after a small submit cost and completes after queueing plus
// per-codeblock processing on one of the device's engines; the DAG cannot
// progress past the offloaded task until the device finishes — the blocking
// time Table 4 quantifies.
//
// The zero-shape configuration (Devices/VFsPerDevice ≤ 1, QueueDepth = 0)
// collapses to the original flat-lane FIFO model, so legacy callers see
// identical schedules.
package accel

import (
	"errors"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

// QueueGroup identifies a device admission queue class. Real FEC devices
// partition VF queues by radio generation and direction; the simulator's
// workloads only exercise the 5G groups today, but the 4G groups are modeled
// so depth re-partitioning matches the hardware's group-granular config.
type QueueGroup uint8

const (
	// QG5GUL carries 5G uplink FEC: LDPC decode.
	QG5GUL QueueGroup = iota
	// QG5GDL carries 5G downlink FEC: LDPC encode.
	QG5GDL
	// QG4GUL carries 4G uplink FEC (turbo decode); reserved.
	QG4GUL
	// QG4GDL carries 4G downlink FEC (turbo encode); reserved.
	QG4GDL

	numQueueGroups
)

var queueGroupNames = [numQueueGroups]string{"5g_ul", "5g_dl", "4g_ul", "4g_dl"}

func (g QueueGroup) String() string {
	if int(g) < len(queueGroupNames) {
		return queueGroupNames[g]
	}
	return "unknown"
}

// GroupFor maps an offloadable task kind to its device queue group. The
// second return value is false for kinds the device does not handle.
func GroupFor(kind ran.TaskKind) (QueueGroup, bool) {
	switch kind {
	case ran.TaskLDPCDecode:
		return QG5GUL, true
	case ran.TaskLDPCEncode:
		return QG5GDL, true
	default:
		return 0, false
	}
}

// Accelerator models the offload device fleet.
type Accelerator struct {
	// Lanes is the total number of independent processing engines across
	// the fleet, distributed round-robin over Devices (low-indexed devices
	// take the remainder).
	Lanes int
	// PerCodeblock is the device processing time per LDPC codeblock
	// (decode); encode runs at half that.
	PerCodeblock sim.Time
	// SubmitCost is the CPU-side cost of DMA setup per offload request.
	// A batched submission pays it once for the whole batch.
	SubmitCost sim.Time

	// Devices is the number of FEC devices the engines are spread across.
	// Values ≤ 1 mean a single device (the legacy model).
	Devices int
	// VFsPerDevice is the number of SR-IOV virtual functions per device.
	// Values ≤ 1 mean one VF per device.
	VFsPerDevice int
	// QueueDepth is the nominal per-VF, per-queue-group admission bound.
	// 0 means unbounded (the legacy model). Reconcile re-partitions the
	// aggregate depth across the devices currently up, so surviving VFs
	// deepen when a device resets.
	QueueDepth int

	// Probe, when non-nil, observes every accepted offload request at
	// submission time (telemetry attaches here). The record carries the
	// device-side schedule the model already decided — start, completion,
	// device/VF/engine — so the observer needs no further bookkeeping.
	Probe func(OffloadRecord)

	// Busy integrates device busy engine-time for utilization accounting.
	Busy sim.Time

	devs []device
	// shape caches the exported fields devs was built for, so submissions
	// reconcile lazily after field mutation (struct-literal construction,
	// Lanes raised after NewFleet).
	shape fleetShape
}

type fleetShape struct {
	lanes, devices, vfs, depth int
}

// device is one ACC100-like FEC card: a slice of processing engines plus the
// VFs admission routes through.
type device struct {
	// down marks a device in reset: it accepts no new submissions while
	// in-flight work drains.
	down bool
	// base is the global lane index of engine 0, so OffloadRecord.Lane
	// stays a fleet-wide identifier.
	base int
	// engineFree[i] is when engine i next becomes idle (FIFO per engine).
	engineFree []sim.Time
	vfs        []vf
}

// vf is one SR-IOV virtual function: per-queue-group admission queues.
type vf struct {
	// pending holds completion times of in-flight requests per queue
	// group; entries at or before now are drained at admission.
	pending [numQueueGroups][]sim.Time
	// depth is the re-partitioned admission bound per group (0 =
	// unbounded).
	depth [numQueueGroups]int
}

// OffloadRecord describes one accepted accelerator request.
type OffloadRecord struct {
	// Submitted is when the request entered the device queue; Start and Done
	// bound the device processing interval on the chosen engine.
	Submitted, Start, Done sim.Time
	Kind                   ran.TaskKind
	// Lane is the fleet-wide engine index (device base + engine).
	Lane int
	// Device and VF identify the admission route.
	Device, VF int
	Codeblocks int
}

// DefaultFPGA returns an accelerator calibrated so offloaded LDPC work is
// roughly an order of magnitude cheaper in CPU terms than software decoding,
// matching the Table 4 regime (total UL slot ≈ 2.7× the non-offloaded CPU
// time).
func DefaultFPGA() *Accelerator {
	return NewFleet(1, 1, 2, 0, sim.FromUs(18), sim.FromUs(2))
}

// NewFleet constructs an accelerator: devices cards, each with
// enginesPerDevice engines and vfsPerDevice VFs, each VF bounded to
// queueDepth in-flight requests per queue group (0 = unbounded). Shape
// values below one mean one device, engine and VF.
func NewFleet(devices, vfsPerDevice, enginesPerDevice, queueDepth int, perCodeblock, submitCost sim.Time) *Accelerator {
	if devices < 1 {
		devices = 1
	}
	if enginesPerDevice < 1 {
		enginesPerDevice = 1
	}
	a := &Accelerator{
		Lanes:        devices * enginesPerDevice,
		PerCodeblock: perCodeblock,
		SubmitCost:   submitCost,
		Devices:      devices,
		VFsPerDevice: vfsPerDevice,
		QueueDepth:   queueDepth,
	}
	a.reconcileShape()
	return a
}

// Offloads reports whether the device handles the given task kind.
func (a *Accelerator) Offloads(kind ran.TaskKind) bool {
	_, ok := GroupFor(kind)
	return ok
}

// ErrNotOffloadable is returned for task kinds the device does not handle.
var ErrNotOffloadable = errors.New("accel: task kind not offloadable")

// ErrNoLanes is returned by Submit when the device has no processing lanes
// (a zero-value or misconfigured Accelerator). Callers recover by executing
// on the CPU instead; previously this indexed an empty lane table and
// panicked.
var ErrNoLanes = errors.New("accel: accelerator has no processing lanes")

// ErrInvalidRate is returned by Submit when PerCodeblock is non-positive: a
// zero or negative processing rate would complete requests instantly or in
// the past, wedging or panicking the discrete-event engine downstream.
var ErrInvalidRate = errors.New("accel: non-positive per-codeblock processing time")

// ErrQueueFull is returned by Submit when every candidate VF queue for the
// request's queue group is at its admission bound. The pool treats it as
// backpressure and falls back to CPU execution.
var ErrQueueFull = errors.New("accel: VF queue group at admission bound")

// ErrDeviceDown is returned by Submit when every device in the fleet is in
// reset. The pool treats it like a lane failure: fall back to CPU execution
// and let the reconciliation loop restore service.
var ErrDeviceDown = errors.New("accel: all devices in reset")

// processing returns the device time for one request.
func (a *Accelerator) processing(kind ran.TaskKind, codeblocks int) (sim.Time, error) {
	if a.PerCodeblock <= 0 {
		return 0, ErrInvalidRate
	}
	if codeblocks < 1 {
		codeblocks = 1
	}
	switch kind {
	case ran.TaskLDPCDecode:
		return a.PerCodeblock * sim.Time(codeblocks), nil
	case ran.TaskLDPCEncode:
		// Multiply before halving: dividing PerCodeblock first truncated
		// away up to codeblocks/2 time units on odd rates.
		return a.PerCodeblock * sim.Time(codeblocks) / 2, nil
	default:
		return 0, ErrNotOffloadable
	}
}

// normalShape returns the exported shape fields clamped to their effective
// values (≥1 device and VF, depth ≥ 0).
func (a *Accelerator) normalShape() fleetShape {
	s := fleetShape{lanes: a.Lanes, devices: a.Devices, vfs: a.VFsPerDevice, depth: a.QueueDepth}
	if s.devices < 1 {
		s.devices = 1
	}
	if s.vfs < 1 {
		s.vfs = 1
	}
	if s.depth < 0 {
		s.depth = 0
	}
	return s
}

// reconcileShape rebuilds the device/VF topology whenever the exported shape
// fields changed since the last build (or were never built: struct-literal
// construction). Engine schedules are preserved by global lane index and
// down flags by device index, so raising Lanes mid-run keeps the in-flight
// FIFO state — the legacy model instead kept scanning a stale shorter table
// while Utilization divided by the new Lanes.
func (a *Accelerator) reconcileShape() {
	want := a.normalShape()
	if a.devs != nil && a.shape == want {
		return
	}
	var oldFree []sim.Time
	var oldDown []bool
	for i := range a.devs {
		oldFree = append(oldFree, a.devs[i].engineFree...)
		oldDown = append(oldDown, a.devs[i].down)
	}
	lanes := want.lanes
	if lanes < 0 {
		lanes = 0
	}
	a.devs = make([]device, want.devices)
	per, extra := lanes/want.devices, lanes%want.devices
	base := 0
	for di := range a.devs {
		n := per
		if di < extra {
			n++
		}
		d := &a.devs[di]
		d.base = base
		d.engineFree = make([]sim.Time, n)
		for ei := range d.engineFree {
			if g := base + ei; g < len(oldFree) {
				d.engineFree[ei] = oldFree[g]
			}
		}
		if di < len(oldDown) {
			d.down = oldDown[di]
		}
		d.vfs = make([]vf, want.vfs)
		base += n
	}
	a.shape = want
	a.partitionDepths()
}

// partitionDepths spreads the fleet's aggregate admission depth evenly
// (ceiling division) across the VFs of the devices currently up. With every
// device down, or with QueueDepth = 0, each VF keeps its nominal depth.
func (a *Accelerator) partitionDepths() {
	nominal := a.shape.depth
	aliveVFs := 0
	if nominal > 0 {
		for i := range a.devs {
			if !a.devs[i].down {
				aliveVFs += len(a.devs[i].vfs)
			}
		}
	}
	per := nominal
	if aliveVFs > 0 {
		total := nominal * a.shape.vfs * a.shape.devices
		per = (total + aliveVFs - 1) / aliveVFs
	}
	for di := range a.devs {
		for vi := range a.devs[di].vfs {
			for g := range a.devs[di].vfs[vi].depth {
				a.devs[di].vfs[vi].depth[g] = per
			}
		}
	}
}

// Reconcile re-partitions the per-VF queue-group depths across the devices
// currently up — the operator reconciliation loop reacting to a device
// leaving or rejoining the fleet. It returns the number of devices serving
// traffic.
func (a *Accelerator) Reconcile() int {
	a.reconcileShape()
	a.partitionDepths()
	alive := 0
	for i := range a.devs {
		if !a.devs[i].down {
			alive++
		}
	}
	return alive
}

// SetDeviceDown marks device dev as in reset (down=true) or back in service.
// It reports whether the state changed. A device in reset accepts no new
// submissions; in-flight work on its engines drains at the already-decided
// completion times.
func (a *Accelerator) SetDeviceDown(dev int, down bool) bool {
	a.reconcileShape()
	if dev < 0 || dev >= len(a.devs) || a.devs[dev].down == down {
		return false
	}
	a.devs[dev].down = down
	return true
}

// DeviceCount returns the number of devices in the fleet.
func (a *Accelerator) DeviceCount() int {
	a.reconcileShape()
	return len(a.devs)
}

// DeviceDown reports whether device dev is currently in reset.
func (a *Accelerator) DeviceDown(dev int) bool {
	a.reconcileShape()
	return dev >= 0 && dev < len(a.devs) && a.devs[dev].down
}

// drainPending removes completed entries (done ≤ now) in place.
func drainPending(q []sim.Time, now sim.Time) []sim.Time {
	w := 0
	for _, t := range q {
		if t > now {
			q[w] = t
			w++
		}
	}
	return q[:w]
}

// submitOne admits one request: pick the up device with the earliest-free
// engine, route through its least-loaded VF queue for the request's queue
// group, and schedule FIFO on the engine.
func (a *Accelerator) submitOne(now sim.Time, kind ran.TaskKind, codeblocks int) (sim.Time, error) {
	proc, err := a.processing(kind, codeblocks)
	if err != nil {
		return 0, err
	}
	if a.Lanes <= 0 {
		return 0, ErrNoLanes
	}
	a.reconcileShape()
	group, _ := GroupFor(kind)

	bestDev, bestEng := -1, -1
	var bestFree sim.Time
	for di := range a.devs {
		d := &a.devs[di]
		if d.down || len(d.engineFree) == 0 {
			continue
		}
		for ei, free := range d.engineFree {
			if bestDev < 0 || free < bestFree {
				bestDev, bestEng, bestFree = di, ei, free
			}
		}
	}
	if bestDev < 0 {
		return 0, ErrDeviceDown
	}
	d := &a.devs[bestDev]

	bestVF, bestLen := 0, -1
	for vi := range d.vfs {
		d.vfs[vi].pending[group] = drainPending(d.vfs[vi].pending[group], now)
		if n := len(d.vfs[vi].pending[group]); bestLen < 0 || n < bestLen {
			bestVF, bestLen = vi, n
		}
	}
	v := &d.vfs[bestVF]
	if dep := v.depth[group]; dep > 0 && bestLen >= dep {
		return 0, ErrQueueFull
	}

	start := bestFree
	if start < now {
		start = now
	}
	done := start + proc
	d.engineFree[bestEng] = done
	v.pending[group] = append(v.pending[group], done)
	a.Busy += proc
	if a.Probe != nil {
		a.Probe(OffloadRecord{
			Submitted: now, Start: start, Done: done,
			Kind: kind, Lane: d.base + bestEng,
			Device: bestDev, VF: bestVF, Codeblocks: codeblocks,
		})
	}
	return done, nil
}

// Submit enqueues a request at time now and returns its completion time.
// Admission routes through the up device with the earliest-free engine and
// that device's least-loaded VF queue for the request's queue group (FIFO per
// engine). A misconfigured or saturated fleet returns a typed error
// (ErrNoLanes, ErrInvalidRate, ErrQueueFull, ErrDeviceDown) so the pool can
// fall back to CPU execution.
func (a *Accelerator) Submit(now sim.Time, kind ran.TaskKind, codeblocks int) (sim.Time, error) {
	return a.submitOne(now, kind, codeblocks)
}

// SubmitBatch admits up to len(codeblocks) same-kind requests as one
// coalesced DMA transfer (the caller pays SubmitCost once, not per request)
// and fills dones[i] with the i-th completion time. Requests are admitted in
// order with the same routing as Submit; the batch stops at the first
// rejection. It returns the number admitted and the error that stopped the
// batch (nil when every request was admitted).
func (a *Accelerator) SubmitBatch(now sim.Time, kind ran.TaskKind, codeblocks []int, dones []sim.Time) (int, error) {
	if len(dones) < len(codeblocks) {
		return 0, errors.New("accel: dones buffer shorter than codeblocks")
	}
	for i, cbs := range codeblocks {
		done, err := a.submitOne(now, kind, cbs)
		if err != nil {
			return i, err
		}
		dones[i] = done
	}
	return len(codeblocks), nil
}

// Expected returns the no-queueing latency of a request, used for WCET
// prediction of offloaded tasks. The error is non-nil when the device cannot
// produce an estimate (wrong kind, invalid rate) — callers must not read a
// zero-with-error result as "free".
func (a *Accelerator) Expected(kind ran.TaskKind, codeblocks int) (sim.Time, error) {
	return a.processing(kind, codeblocks)
}

// Utilization returns device busy time over lanes × elapsed.
func (a *Accelerator) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return a.Busy.Seconds() / (float64(a.Lanes) * elapsed.Seconds())
}

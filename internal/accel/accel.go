// Package accel models the hardware-accelerator extension of §7 as a small
// fleet of FEC devices (ACC100-like; the paper's testbed uses a Terasic
// DE5-Net) that offload LDPC encoding and decoding. Each device partitions
// its processing engines behind SR-IOV virtual functions (VFs), and each VF
// exposes one admission queue per 5G UL/DL queue group, mirroring how
// production FEC operators configure the hardware. Offloaded work leaves the
// CPU after a small submit cost and completes after queueing plus
// per-codeblock processing on one of the device's engines; the DAG cannot
// progress past the offloaded task until the device finishes — the blocking
// time Table 4 quantifies.
//
// NewFleet fixes an accelerator's shape, as an operator provisions a card
// once and then offloads to it; afterwards only device resets
// (SetDeviceDown, Reconcile) change which devices serve.
package accel

import (
	"errors"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

// QueueGroup identifies a device admission queue class. Real FEC devices
// partition VF queues by radio generation and direction; the simulator
// offloads only 5G LDPC work, so only the 5G groups exist.
type QueueGroup uint8

const (
	// QG5GUL carries 5G uplink FEC: LDPC decode.
	QG5GUL QueueGroup = iota
	// QG5GDL carries 5G downlink FEC: LDPC encode.
	QG5GDL

	numQueueGroups
)

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

// Accelerator models the offload device fleet. NewFleet sets its shape.
type Accelerator struct {
	// Probe, when non-nil, observes every accepted offload request at
	// submission time (telemetry attaches here). The record carries the
	// device-side schedule the model already decided — start, completion,
	// device/VF/engine — so the observer needs no further bookkeeping.
	Probe func(OffloadRecord)

	// perCodeblock is the device time per LDPC codeblock (decode; encode
	// runs at half that). submitCost is the CPU-side DMA setup cost per
	// transfer.
	perCodeblock, submitCost sim.Time
	// depth is the nominal per-VF, per-queue-group admission bound (≤ 0 =
	// unbounded); vfDepth is the bound in force, which Reconcile
	// re-partitions across the devices up.
	depth, vfDepth int
	// devs all have the same number of engines and VFs.
	devs []device
}

// device is one ACC100-like FEC card: a slice of processing engines plus the
// VFs admission routes through.
type device struct {
	// down marks a device in reset: it accepts no new submissions while
	// in-flight work drains.
	down bool
	// engineFree[i] is when engine i next becomes idle (FIFO per engine).
	engineFree []sim.Time
	vfs        []vf
}

// vf is one SR-IOV virtual function: the completion times of its in-flight
// requests per queue group. Entries at or before now drain at admission.
type vf [numQueueGroups][]sim.Time

// OffloadRecord describes one accepted accelerator request.
type OffloadRecord struct {
	// Submitted is when the request entered the device queue; Start and Done
	// bound the device processing interval on the chosen engine.
	Submitted, Start, Done sim.Time
	Kind                   ran.TaskKind
	// Lane is the fleet-wide engine index (device × engines per device +
	// engine).
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
// queueDepth in-flight requests per queue group (≤ 0 = unbounded). Shape
// values below one mean one device, engine and VF. perCodeblock is the
// device time per decoded codeblock, submitCost the CPU-side cost of one
// DMA transfer.
func NewFleet(devices, vfsPerDevice, enginesPerDevice, queueDepth int, perCodeblock, submitCost sim.Time) *Accelerator {
	a := &Accelerator{
		perCodeblock: perCodeblock,
		submitCost:   submitCost,
		depth:        queueDepth,
		vfDepth:      queueDepth,
		devs:         make([]device, max(devices, 1)),
	}
	for i := range a.devs {
		a.devs[i].engineFree = make([]sim.Time, max(enginesPerDevice, 1))
		a.devs[i].vfs = make([]vf, max(vfsPerDevice, 1))
	}
	return a
}

// SubmitCost is the CPU-side cost of DMA setup per offload request. A
// batched submission pays it once for the whole batch.
func (a *Accelerator) SubmitCost() sim.Time { return a.submitCost }

// Offloads reports whether the device handles the given task kind.
func (a *Accelerator) Offloads(kind ran.TaskKind) bool {
	_, ok := GroupFor(kind)
	return ok
}

// ErrNotOffloadable is returned for task kinds the device does not handle.
var ErrNotOffloadable = errors.New("accel: task kind not offloadable")

// ErrInvalidRate is returned by Submit when the per-codeblock time is
// non-positive: a zero or negative processing rate would complete requests
// instantly or in the past, wedging or panicking the discrete-event engine
// downstream.
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
	if a.perCodeblock <= 0 {
		return 0, ErrInvalidRate
	}
	if codeblocks < 1 {
		codeblocks = 1
	}
	switch kind {
	case ran.TaskLDPCDecode:
		return a.perCodeblock * sim.Time(codeblocks), nil
	case ran.TaskLDPCEncode:
		// Multiply before halving: dividing the rate first truncated away
		// up to codeblocks/2 time units on odd rates.
		return a.perCodeblock * sim.Time(codeblocks) / 2, nil
	default:
		return 0, ErrNotOffloadable
	}
}

// Reconcile re-partitions the VF queue-group depths across the devices
// currently up — the operator reconciliation loop reacting to a device
// leaving or rejoining the fleet. The aggregate depth (nominal depth × VFs
// × devices) is spread evenly, by ceiling division, over the surviving VFs,
// so they deepen when a device resets; with every device down, or with an
// unbounded depth, each VF keeps the nominal depth. It returns the number of
// devices serving traffic.
func (a *Accelerator) Reconcile() int {
	alive := 0
	for i := range a.devs {
		if !a.devs[i].down {
			alive++
		}
	}
	a.vfDepth = a.depth
	if a.depth > 0 && alive > 0 {
		// Every device has the same VF count, so it cancels from the ratio.
		a.vfDepth = (a.depth*len(a.devs) + alive - 1) / alive
	}
	return alive
}

// SetDeviceDown marks device dev as in reset (down=true) or back in service.
// It reports whether the state changed. A device in reset accepts no new
// submissions; in-flight work on its engines drains at the already-decided
// completion times.
func (a *Accelerator) SetDeviceDown(dev int, down bool) bool {
	if dev < 0 || dev >= len(a.devs) || a.devs[dev].down == down {
		return false
	}
	a.devs[dev].down = down
	return true
}

// DeviceCount returns the number of devices in the fleet.
func (a *Accelerator) DeviceCount() int { return len(a.devs) }

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

// Submit enqueues a request at time now and returns its completion time.
// Admission picks the up device with the earliest-free engine (ties to the
// lowest index), routes through that device's least-loaded VF queue for the
// request's queue group, and schedules FIFO on the engine. A request the
// fleet cannot take returns a typed error (ErrNotOffloadable,
// ErrInvalidRate, ErrQueueFull, ErrDeviceDown) so the pool can fall back to
// CPU execution.
func (a *Accelerator) Submit(now sim.Time, kind ran.TaskKind, codeblocks int) (sim.Time, error) {
	proc, err := a.processing(kind, codeblocks)
	if err != nil {
		return 0, err
	}
	group, _ := GroupFor(kind)

	bestDev, bestEng := -1, -1
	var bestFree sim.Time
	for di := range a.devs {
		if a.devs[di].down {
			continue
		}
		for ei, free := range a.devs[di].engineFree {
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
		q := drainPending(d.vfs[vi][group], now)
		d.vfs[vi][group] = q
		if bestLen < 0 || len(q) < bestLen {
			bestVF, bestLen = vi, len(q)
		}
	}
	if a.vfDepth > 0 && bestLen >= a.vfDepth {
		return 0, ErrQueueFull
	}

	start := max(bestFree, now)
	done := start + proc
	d.engineFree[bestEng] = done
	d.vfs[bestVF][group] = append(d.vfs[bestVF][group], done)
	if a.Probe != nil {
		a.Probe(OffloadRecord{
			Submitted: now, Start: start, Done: done,
			Kind: kind, Lane: bestDev*len(d.engineFree) + bestEng,
			Device: bestDev, VF: bestVF, Codeblocks: codeblocks,
		})
	}
	return done, nil
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
		done, err := a.Submit(now, kind, cbs)
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

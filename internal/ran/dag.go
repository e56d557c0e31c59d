package ran

import (
	"fmt"

	"concordia/internal/sim"
)

// TaskKind identifies a signal-processing task type. Each kind has its own
// WCET prediction model (one quantile decision tree per kind, §4.2).
type TaskKind int

// Uplink and downlink task kinds, following Fig 1 and Fig 16.
const (
	// Uplink chain.
	TaskFFT               TaskKind = iota // per-antenna OFDM demodulation
	TaskChannelEstimation                 // DM-RS based LS estimation
	TaskEqualization                      // per-UE MMSE equalization
	TaskDemodulation                      // soft demapping to LLRs
	TaskRateDematch                       // circular-buffer LLR combining
	TaskLDPCDecode                        // min-sum decoding (dominant cost)
	TaskCRCCheck                          // TB/CB CRC verification
	TaskPolarDecode                       // uplink control (PUCCH)
	// Downlink chain.
	TaskLDPCEncode // systematic encoding
	TaskRateMatch  // circular-buffer selection
	TaskModulation // QAM mapping + scrambling
	TaskPrecoding  // multi-user ZF precoding
	TaskIFFT       // per-antenna OFDM modulation
	TaskPolarEncode
	// MAC-layer extension (§7): radio-resource scheduling viewed as
	// deadline tasks processed by the same pool.
	TaskMACUplinkSched
	TaskMACDownlinkSched
	TaskMACBuild
	// 4G/LTE coding path (§A.1): turbo codes replace LDPC for user data.
	TaskTurboDecode
	TaskTurboEncode
	NumTaskKinds
)

var taskKindNames = [NumTaskKinds]string{
	"fft", "channel_estimation", "equalization", "demodulation",
	"rate_dematch", "ldpc_decode", "crc_check", "polar_decode",
	"ldpc_encode", "rate_match", "modulation", "precoding", "ifft",
	"polar_encode", "mac_ul_sched", "mac_dl_sched", "mac_build",
	"turbo_decode", "turbo_encode",
}

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	if k < 0 || k >= NumTaskKinds {
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
	return taskKindNames[k]
}

// IsUplink reports whether the kind belongs to the uplink chain.
func (k TaskKind) IsUplink() bool { return k <= TaskPolarDecode }

// Task is one node of a slot's signal-processing DAG.
type Task struct {
	ID       int // index within the owning DAG
	Kind     TaskKind
	CellID   int
	UE       int // -1 for per-cell tasks
	Features FeatureVector
	Deps     []int // prerequisite task IDs
	Succs    []int // dependent task IDs (filled by finalize)
}

// DAG is the dependency graph of all signal-processing work for one cell
// and one slot direction, with its release time and absolute deadline.
//
// Memory discipline (DESIGN.md §5f): a DAG's Task nodes live in one backing
// slab owned by the DAG, sized before construction so the slab never
// reallocates mid-build (Tasks pointers and Deps backing arrays would alias
// a dead array otherwise). The *Into builder variants reuse a previous
// slot's slab, Deps/Succs capacity, and scratch, so steady-state DAG
// construction allocates nothing. Task pointers are only valid until the
// owning DAG is rebuilt; the pool's freelists enforce that lifetime.
type DAG struct {
	CellID   int
	Slot     int
	Dir      SlotDir
	Release  sim.Time
	Deadline sim.Time
	Tasks    []*Task

	slab  []Task // backing store for Tasks
	roots []int  // cached by finalize
	// Builder scratch, reused across rebuilds of this DAG value.
	scratchA []int // uplink: FFT IDs; downlink: modulation IDs
	scratchB []int // uplink: per-UE decode IDs; downlink: encode / precode deps
}

// prepare resets the DAG for a rebuild of exactly n tasks. Sizing the slab
// up front is what makes interior pointers safe: addTask never appends past
// the prepared length, so the backing array cannot move mid-build.
//
// A slab too small grows to at least twice its capacity and keeps its old
// entries, Deps/Succs capacity and all: DAGs of every size draw on one
// freelist, so growing to exactly n would reallocate it again and again.
func (d *DAG) prepare(cellID, slot int, dir SlotDir, release, deadline sim.Time, n int) {
	d.CellID = cellID
	d.Slot = slot
	d.Dir = dir
	d.Release = release
	d.Deadline = deadline
	if c := cap(d.slab); c < n {
		slab := make([]Task, max(n, 2*c))
		copy(slab, d.slab[:c])
		d.slab = slab
	}
	d.slab = d.slab[:n]
	if c := cap(d.Tasks); c < n {
		d.Tasks = make([]*Task, 0, max(n, 2*c))
	}
	d.Tasks = d.Tasks[:0]
	d.roots = d.roots[:0]
}

// addTask claims the next slab entry and returns its ID. Deps/Succs reuse
// the entry's previous capacity.
func (d *DAG) addTask(kind TaskKind, ue int, f FeatureVector, deps ...int) int {
	id := len(d.Tasks)
	if id >= len(d.slab) {
		panic(fmt.Sprintf("ran: DAG slab overflow at task %d (prepared %d)", id, len(d.slab)))
	}
	t := &d.slab[id]
	t.ID = id
	t.Kind = kind
	t.CellID = d.CellID
	t.UE = ue
	t.Features = f
	t.Deps = append(t.Deps[:0], deps...)
	t.Succs = t.Succs[:0]
	d.Tasks = append(d.Tasks, t)
	return id
}

// finalize fills successor lists, caches roots, and validates acyclicity
// (dependencies may only point backwards, which the builders guarantee by
// construction).
func (d *DAG) finalize() {
	for _, t := range d.Tasks {
		if len(t.Deps) == 0 {
			d.roots = append(d.roots, t.ID)
		}
		for _, dep := range t.Deps {
			if dep >= t.ID {
				panic(fmt.Sprintf("ran: forward dependency %d -> %d", t.ID, dep))
			}
			d.Tasks[dep].Succs = append(d.Tasks[dep].Succs, t.ID)
		}
	}
}

// Roots returns the IDs of tasks with no prerequisites. The slice is owned
// by the DAG and valid until the next rebuild; callers must not mutate it.
func (d *DAG) Roots() []int {
	if d.roots == nil && len(d.Tasks) > 0 {
		// DAG assembled outside the builders (tests): compute on demand.
		for _, t := range d.Tasks {
			if len(t.Deps) == 0 {
				d.roots = append(d.roots, t.ID)
			}
		}
	}
	return d.roots
}

// Validate checks structural invariants: dependencies in range, acyclic by
// topological index, and at least one root when non-empty.
func (d *DAG) Validate() error {
	for _, t := range d.Tasks {
		for _, dep := range t.Deps {
			if dep < 0 || dep >= len(d.Tasks) {
				return fmt.Errorf("ran: task %d has out-of-range dep %d", t.ID, dep)
			}
			if dep >= t.ID {
				return fmt.Errorf("ran: task %d depends forward on %d", t.ID, dep)
			}
		}
	}
	if len(d.Tasks) > 0 && len(d.Roots()) == 0 {
		return fmt.Errorf("ran: DAG has no roots")
	}
	return nil
}

// UEAlloc is one UE's allocation within a slot.
type UEAlloc struct {
	UE         int
	SNRdB      float64
	MCS        MCS
	Layers     int
	PRBs       int
	TBSBits    int
	Codeblocks int
}

// decodeGroupSize bounds the codeblocks covered by a single LDPC
// decode/encode task, enabling the intra-UE parallelism the paper describes
// ("multiple LDPC decoding operations on different cores").
const decodeGroupSize = 5

// baseFeatures fills the slot-wide portion of a feature vector.
func baseFeatures(cfg CellConfig, allocs []UEAlloc) FeatureVector {
	var f FeatureVector
	f.Set(FNumUEs, float64(len(allocs)))
	f.Set(FAntennas, float64(cfg.Antennas))
	var bytes int
	for _, a := range allocs {
		bytes += a.TBSBits / 8
	}
	f.Set(FSlotBytes, float64(bytes))
	return f
}

// ueFeatures extends base features with one UE's parameters.
func ueFeatures(base FeatureVector, a UEAlloc, cbs int) FeatureVector {
	f := base
	f.Set(FTBSBits, float64(a.TBSBits))
	f.Set(FCodeblocks, float64(cbs))
	f.Set(FMCSIndex, float64(a.MCS.Index))
	f.Set(FModOrder, float64(a.MCS.Modulation.BitsPerSymbol()))
	f.Set(FCodeRate, a.MCS.CodeRate)
	f.Set(FLayers, float64(a.Layers))
	f.Set(FSNRdB, a.SNRdB)
	f.Set(FPRBs, float64(a.PRBs))
	return f
}

// decodeGroups returns the number of parallel decode/encode tasks covering
// cb codeblocks.
func decodeGroups(cb int) int { return (cb + decodeGroupSize - 1) / decodeGroupSize }

// uplinkTaskCount sizes the uplink slab: per-antenna FFTs, the polar control
// branch, and per UE the CE→EQ→DM→RD chain, decode groups, and the CRC join.
func uplinkTaskCount(cfg CellConfig, allocs []UEAlloc) int {
	n := cfg.Antennas + 1
	for _, a := range allocs {
		n += 5 + decodeGroups(a.Codeblocks)
	}
	return n
}

// downlinkTaskCount sizes the downlink slab: polar control, per-UE encode
// groups plus rate-match and modulation, precoding, and per-antenna IFFTs.
func downlinkTaskCount(cfg CellConfig, allocs []UEAlloc) int {
	n := 2 + cfg.Antennas
	for _, a := range allocs {
		n += 2 + decodeGroups(a.Codeblocks)
	}
	return n
}

// BuildUplinkDAG constructs the Fig 1 uplink graph for one slot: per-antenna
// FFTs feed per-UE channel estimation → equalization → demodulation → rate
// dematching → parallel LDPC decode groups → a CRC join; uplink control
// (polar) decodes in parallel.
func BuildUplinkDAG(cfg CellConfig, slot int, release, deadline sim.Time, allocs []UEAlloc) *DAG {
	return BuildUplinkDAGInto(new(DAG), cfg, slot, release, deadline, allocs)
}

// BuildUplinkDAGInto rebuilds d in place as the uplink graph, reusing its
// slab and scratch. It returns d.
func BuildUplinkDAGInto(d *DAG, cfg CellConfig, slot int, release, deadline sim.Time, allocs []UEAlloc) *DAG {
	d.prepare(cfg.ID, slot, Uplink, release, deadline, uplinkTaskCount(cfg, allocs))
	base := baseFeatures(cfg, allocs)

	ffts := d.scratchA[:0]
	for a := 0; a < cfg.Antennas; a++ {
		f := base
		f.Set(FPRBs, float64(cfg.PRBs()))
		ffts = append(ffts, d.addTask(TaskFFT, -1, f))
	}
	d.scratchA = ffts
	// Uplink control decoding does not depend on data-path FFT output in
	// this simplified DAG; it is the parallel branch of Fig 1.
	ctl := base
	d.addTask(TaskPolarDecode, -1, ctl)

	for _, a := range allocs {
		f := ueFeatures(base, a, a.Codeblocks)
		// Channel estimation processes reference signals across the whole
		// configured band, not just the UE's allocation.
		cef := f
		cef.Set(FPRBs, float64(cfg.PRBs()))
		ce := d.addTask(TaskChannelEstimation, a.UE, cef, ffts...)
		eq := d.addTask(TaskEqualization, a.UE, f, ce)
		dm := d.addTask(TaskDemodulation, a.UE, f, eq)
		rd := d.addTask(TaskRateDematch, a.UE, f, dm)
		decodeKind := TaskLDPCDecode
		if cfg.Generation == LTE {
			decodeKind = TaskTurboDecode
		}
		decodes := d.scratchB[:0]
		for cb := 0; cb < a.Codeblocks; cb += decodeGroupSize {
			n := decodeGroupSize
			if cb+n > a.Codeblocks {
				n = a.Codeblocks - cb
			}
			g := ueFeatures(base, a, n)
			decodes = append(decodes, d.addTask(decodeKind, a.UE, g, rd))
		}
		if len(decodes) == 0 {
			decodes = append(decodes, rd)
		}
		d.scratchB = decodes
		d.addTask(TaskCRCCheck, a.UE, f, decodes...)
	}
	d.finalize()
	return d
}

// BuildDownlinkDAG constructs the Fig 16 downlink graph: per-UE LDPC encode
// groups → rate matching → modulation, joined by a cell-wide precoding task
// that feeds per-antenna IFFTs; downlink control (polar) encodes in
// parallel and also precedes precoding.
func BuildDownlinkDAG(cfg CellConfig, slot int, release, deadline sim.Time, allocs []UEAlloc) *DAG {
	return BuildDownlinkDAGInto(new(DAG), cfg, slot, release, deadline, allocs)
}

// BuildDownlinkDAGInto rebuilds d in place as the downlink graph, reusing
// its slab and scratch. It returns d.
func BuildDownlinkDAGInto(d *DAG, cfg CellConfig, slot int, release, deadline sim.Time, allocs []UEAlloc) *DAG {
	d.prepare(cfg.ID, slot, Downlink, release, deadline, downlinkTaskCount(cfg, allocs))
	base := baseFeatures(cfg, allocs)

	ctl := d.addTask(TaskPolarEncode, -1, base)
	encodeKind := TaskLDPCEncode
	if cfg.Generation == LTE {
		encodeKind = TaskTurboEncode
	}
	modTasks := d.scratchA[:0]
	for _, a := range allocs {
		f := ueFeatures(base, a, a.Codeblocks)
		encodes := d.scratchB[:0]
		for cb := 0; cb < a.Codeblocks; cb += decodeGroupSize {
			n := decodeGroupSize
			if cb+n > a.Codeblocks {
				n = a.Codeblocks - cb
			}
			g := ueFeatures(base, a, n)
			encodes = append(encodes, d.addTask(encodeKind, a.UE, g))
		}
		d.scratchB = encodes
		rm := d.addTask(TaskRateMatch, a.UE, f, encodes...)
		modTasks = append(modTasks, d.addTask(TaskModulation, a.UE, f, rm))
	}
	precodeDeps := append(modTasks, ctl)
	d.scratchA = precodeDeps
	pcF := base
	pcF.Set(FPRBs, float64(cfg.PRBs()))
	pc := d.addTask(TaskPrecoding, -1, pcF, precodeDeps...)
	for a := 0; a < cfg.Antennas; a++ {
		d.addTask(TaskIFFT, -1, pcF, pc)
	}
	d.finalize()
	return d
}

// BuildMACDAG constructs the §7 MAC-layer extension DAG for one slot: the
// uplink and downlink radio-resource schedulers run in parallel and a build
// step assembles their grants. MAC deadlines are one slot (the grant must be
// ready for the next TTI), far tighter than the PHY DAG deadline.
func BuildMACDAG(cfg CellConfig, slot int, release, deadline sim.Time, ues int) *DAG {
	return BuildMACDAGInto(new(DAG), cfg, slot, release, deadline, ues)
}

// BuildMACDAGInto rebuilds d in place as the MAC-extension graph. It
// returns d.
func BuildMACDAGInto(d *DAG, cfg CellConfig, slot int, release, deadline sim.Time, ues int) *DAG {
	d.prepare(cfg.ID, slot, Downlink, release, deadline, 3)
	var f FeatureVector
	f.Set(FNumUEs, float64(ues))
	f.Set(FAntennas, float64(cfg.Antennas))
	f.Set(FLayers, float64(cfg.MaxLayers))
	ul := d.addTask(TaskMACUplinkSched, -1, f)
	dl := d.addTask(TaskMACDownlinkSched, -1, f)
	d.addTask(TaskMACBuild, -1, f, ul, dl)
	d.finalize()
	return d
}

package accel

import (
	"cmp"
	"slices"
	"testing"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

func TestGroupFor(t *testing.T) {
	if g, ok := GroupFor(ran.TaskLDPCDecode); !ok || g != QG5GUL {
		t.Fatalf("decode → %v,%v want 5g_ul", g, ok)
	}
	if g, ok := GroupFor(ran.TaskLDPCEncode); !ok || g != QG5GDL {
		t.Fatalf("encode → %v,%v want 5g_dl", g, ok)
	}
	if _, ok := GroupFor(ran.TaskModulation); ok {
		t.Fatal("modulation must not map to a queue group")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	a := NewFleet(1, 1, 1, 2, sim.FromUs(10), sim.FromUs(1))
	for i := 0; i < 2; i++ {
		if _, err := a.Submit(0, ran.TaskLDPCDecode, 1); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, err := a.Submit(0, ran.TaskLDPCDecode, 1); err != ErrQueueFull {
		t.Fatalf("third request at depth 2: err = %v, want ErrQueueFull", err)
	}
	// Queue groups are independent: the 5G DL queue still has room.
	if _, err := a.Submit(0, ran.TaskLDPCEncode, 1); err != nil {
		t.Fatalf("encode into its own queue group: %v", err)
	}
	// Once the first decode drains (done=10µs), admission reopens.
	if _, err := a.Submit(sim.FromUs(10), ran.TaskLDPCDecode, 1); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestDeviceDownRoutesToSurvivors(t *testing.T) {
	a := NewFleet(2, 1, 2, 0, sim.FromUs(10), sim.FromUs(1))
	var last OffloadRecord
	a.Probe = func(r OffloadRecord) { last = r }

	if !a.SetDeviceDown(0, true) {
		t.Fatal("SetDeviceDown should report a state change")
	}
	if a.SetDeviceDown(0, true) {
		t.Fatal("repeated SetDeviceDown must be a no-op")
	}
	if _, err := a.Submit(0, ran.TaskLDPCDecode, 1); err != nil {
		t.Fatal(err)
	}
	if last.Device != 1 || last.Lane < 2 || last.Lane > 3 {
		t.Fatalf("request routed to device %d lane %d, want surviving device 1 (lanes 2-3)", last.Device, last.Lane)
	}

	a.SetDeviceDown(1, true)
	if _, err := a.Submit(0, ran.TaskLDPCDecode, 1); err != ErrDeviceDown {
		t.Fatalf("whole fleet down: err = %v, want ErrDeviceDown", err)
	}

	a.SetDeviceDown(0, false)
	if _, err := a.Submit(0, ran.TaskLDPCDecode, 1); err != nil {
		t.Fatalf("after device 0 rejoined: %v", err)
	}
	if last.Device != 0 {
		t.Fatalf("request routed to device %d, want rejoined device 0", last.Device)
	}
}

// Reconcile must spread the fleet's aggregate admission depth across the
// surviving devices: with half the fleet in reset, surviving VF queues
// double their depth, so total admission capacity is preserved.
func TestReconcileRepartitionsDepth(t *testing.T) {
	fill := func(a *Accelerator) int {
		n := 0
		for {
			if _, err := a.Submit(0, ran.TaskLDPCDecode, 1); err != nil {
				if err != ErrQueueFull {
					t.Fatalf("fill stopped on %v, want ErrQueueFull", err)
				}
				return n
			}
			n++
		}
	}

	// Before reconciliation: device 0 down, depths unchanged → device 1's
	// 2 VFs × depth 4 admit 8 decodes.
	a := NewFleet(2, 2, 1, 4, sim.FromUs(10), sim.FromUs(1))
	a.SetDeviceDown(0, true)
	if got := fill(a); got != 8 {
		t.Fatalf("pre-reconcile capacity %d, want 8", got)
	}

	// After reconciliation: aggregate depth 4×2×2=16 re-partitioned over
	// the 2 surviving VFs → depth 8 each, capacity preserved.
	b := NewFleet(2, 2, 1, 4, sim.FromUs(10), sim.FromUs(1))
	b.SetDeviceDown(0, true)
	if alive := b.Reconcile(); alive != 1 {
		t.Fatalf("Reconcile reported %d alive devices, want 1", alive)
	}
	if got := fill(b); got != 16 {
		t.Fatalf("post-reconcile capacity %d, want 16", got)
	}

	// Rejoin restores the nominal partition.
	b.SetDeviceDown(0, false)
	if alive := b.Reconcile(); alive != 2 {
		t.Fatalf("after rejoin Reconcile reported %d alive, want 2", alive)
	}
}

// Probe invariants under contention, across fleet shapes. Every accepted
// request's record must satisfy Done = Start + processing and carry in-range
// lane/device/VF ids, and each engine must run FIFO: a request starts at
// max(Submitted, its lane's previous Done), and a lane's [Start, Done)
// intervals never overlap.
func TestProbeInvariantsUnderContention(t *testing.T) {
	shapes := []struct {
		name                     string
		devices, vfs, eng, depth int
	}{
		{"legacy-1x2", 1, 1, 2, 0},
		{"fleet-2x2x2-d8", 2, 2, 2, 8},
		{"fleet-3x2x1-d4", 3, 2, 1, 4},
		{"fleet-4x1x3-d16", 4, 1, 3, 16},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			a := NewFleet(s.devices, s.vfs, s.eng, s.depth, sim.FromUs(18), sim.FromUs(2))
			lanes := s.devices * s.eng
			prevDone := make([]sim.Time, lanes)
			spans := make([][]OffloadRecord, lanes)
			a.Probe = func(r OffloadRecord) {
				proc, err := a.Expected(r.Kind, r.Codeblocks)
				if err != nil {
					t.Fatalf("Expected on accepted kind: %v", err)
				}
				if r.Done != r.Start+proc {
					t.Fatalf("Done %v != Start %v + proc %v", r.Done, r.Start, proc)
				}
				if r.Lane < 0 || r.Lane >= lanes {
					t.Fatalf("lane %d out of range [0,%d)", r.Lane, lanes)
				}
				if r.Device != r.Lane/s.eng {
					t.Fatalf("lane %d reported on device %d, want %d", r.Lane, r.Device, r.Lane/s.eng)
				}
				if r.VF < 0 || r.VF >= s.vfs {
					t.Fatalf("VF %d out of range [0,%d)", r.VF, s.vfs)
				}
				if want := max(r.Submitted, prevDone[r.Lane]); r.Start != want {
					t.Fatalf("lane %d: Start %v, want max(Submitted %v, previous Done %v)",
						r.Lane, r.Start, r.Submitted, prevDone[r.Lane])
				}
				prevDone[r.Lane] = r.Done
				spans[r.Lane] = append(spans[r.Lane], r)
			}
			kinds := [2]ran.TaskKind{ran.TaskLDPCDecode, ran.TaskLDPCEncode}
			for i := 0; i < 300; i++ {
				now := sim.Time(i) * sim.FromUs(3)
				_, err := a.Submit(now, kinds[i%2], 1+i%7)
				if err != nil && err != ErrQueueFull {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			accepted, queued := 0, 0
			for lane, recs := range spans {
				slices.SortFunc(recs, func(x, y OffloadRecord) int { return cmp.Compare(x.Start, y.Start) })
				for i, r := range recs {
					if i > 0 && r.Start < recs[i-1].Done {
						t.Fatalf("lane %d: [%v, %v) overlaps [%v, %v)", lane, r.Start, r.Done, recs[i-1].Start, recs[i-1].Done)
					}
					if r.Start > r.Submitted {
						queued++
					}
				}
				accepted += len(recs)
			}
			if accepted == 0 || queued == 0 {
				t.Fatalf("contention run accepted %d requests, %d of them queued; want both > 0", accepted, queued)
			}
		})
	}
}

// A batch must produce exactly the schedule the same requests get when
// submitted one by one: batching only amortizes the CPU-side submit cost, it
// does not change device-side admission.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	mk := func() *Accelerator { return NewFleet(2, 2, 2, 8, sim.FromUs(18), sim.FromUs(2)) }
	batched, serial := mk(), mk()
	var batchedRecs, serialRecs []OffloadRecord
	batched.Probe = func(r OffloadRecord) { batchedRecs = append(batchedRecs, r) }
	serial.Probe = func(r OffloadRecord) { serialRecs = append(serialRecs, r) }
	cbs := []int{3, 1, 7, 2, 5}
	dones := make([]sim.Time, len(cbs))
	now := sim.FromUs(50)

	for round := 0; round < 3; round++ {
		n, err := batched.SubmitBatch(now, ran.TaskLDPCDecode, cbs, dones)
		if err != nil || n != len(cbs) {
			t.Fatalf("SubmitBatch = %d, %v; want %d, nil", n, err, len(cbs))
		}
		for i, c := range cbs {
			want, err := serial.Submit(now, ran.TaskLDPCDecode, c)
			if err != nil {
				t.Fatal(err)
			}
			if dones[i] != want {
				t.Fatalf("round %d request %d: batched done %v != sequential %v", round, i, dones[i], want)
			}
		}
		now += sim.FromUs(20)
	}
	if len(batchedRecs) != 3*len(cbs) || len(serialRecs) != len(batchedRecs) {
		t.Fatalf("%d batched and %d sequential records, want %d each", len(batchedRecs), len(serialRecs), 3*len(cbs))
	}
	for i, b := range batchedRecs {
		if s := serialRecs[i]; b != s {
			t.Fatalf("record %d: batched %+v != sequential %+v", i, b, s)
		}
	}
}

func TestSubmitBatchStopsAtRejection(t *testing.T) {
	a := NewFleet(1, 1, 1, 3, sim.FromUs(10), sim.FromUs(1))
	cbs := []int{1, 1, 1, 1, 1}
	dones := make([]sim.Time, len(cbs))
	n, err := a.SubmitBatch(0, ran.TaskLDPCDecode, cbs, dones)
	if n != 3 || err != ErrQueueFull {
		t.Fatalf("SubmitBatch = %d, %v; want 3, ErrQueueFull", n, err)
	}
	for i := 0; i < n; i++ {
		if dones[i] != sim.FromUs(10)*sim.Time(i+1) {
			t.Fatalf("done[%d] = %v, want %v", i, dones[i], sim.FromUs(10)*sim.Time(i+1))
		}
	}
	if _, err := a.SubmitBatch(0, ran.TaskLDPCDecode, cbs, dones[:2]); err == nil {
		t.Fatal("short dones buffer must be rejected")
	}
}

func BenchmarkBatchedSubmit(b *testing.B) {
	a := NewFleet(2, 2, 2, 0, sim.FromUs(18), sim.FromUs(2))
	cbs := []int{5, 5, 5, 5, 5, 5, 5, 5}
	dones := make([]sim.Time, len(cbs))
	// Warm the admission queues so steady-state appends reuse capacity.
	for i := 0; i < 8; i++ {
		_, _ = a.SubmitBatch(sim.Time(i)*sim.FromUs(120), ran.TaskLDPCDecode, cbs, dones)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i+8) * sim.FromUs(120)
		if _, err := a.SubmitBatch(now, ran.TaskLDPCDecode, cbs, dones); err != nil {
			b.Fatal(err)
		}
	}
}

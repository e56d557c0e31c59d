package accel

import (
	"testing"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

func TestOffloadsOnlyLDPC(t *testing.T) {
	a := DefaultFPGA()
	if !a.Offloads(ran.TaskLDPCDecode) || !a.Offloads(ran.TaskLDPCEncode) {
		t.Fatal("FPGA must offload LDPC encode and decode")
	}
	if a.Offloads(ran.TaskChannelEstimation) || a.Offloads(ran.TaskPrecoding) {
		t.Fatal("FPGA must not offload other kinds")
	}
}

func TestSubmitErrNotOffloadable(t *testing.T) {
	a := DefaultFPGA()
	if _, err := a.Submit(0, ran.TaskModulation, 3); err != ErrNotOffloadable {
		t.Fatalf("got %v want ErrNotOffloadable", err)
	}
}

func TestSubmitSingleLane(t *testing.T) {
	a := NewFleet(1, 1, 1, 0, sim.FromUs(10), sim.FromUs(1))
	// Two back-to-back 2-codeblock decodes serialize on one lane.
	d1, err := a.Submit(0, ran.TaskLDPCDecode, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != sim.FromUs(20) {
		t.Fatalf("first completion %v want 20us", d1)
	}
	d2, _ := a.Submit(0, ran.TaskLDPCDecode, 2)
	if d2 != sim.FromUs(40) {
		t.Fatalf("queued completion %v want 40us", d2)
	}
}

func TestSubmitParallelLanes(t *testing.T) {
	a := NewFleet(1, 1, 2, 0, sim.FromUs(10), sim.FromUs(1))
	d1, _ := a.Submit(0, ran.TaskLDPCDecode, 2)
	d2, _ := a.Submit(0, ran.TaskLDPCDecode, 2)
	if d1 != d2 || d1 != sim.FromUs(20) {
		t.Fatalf("two lanes should complete in parallel: %v %v", d1, d2)
	}
	d3, _ := a.Submit(0, ran.TaskLDPCDecode, 2)
	if d3 != sim.FromUs(40) {
		t.Fatalf("third request should queue: %v", d3)
	}
}

func TestEncodeCheaperThanDecode(t *testing.T) {
	a := DefaultFPGA()
	dec, err := a.Expected(ran.TaskLDPCDecode, 10)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := a.Expected(ran.TaskLDPCEncode, 10)
	if err != nil {
		t.Fatal(err)
	}
	if enc >= dec {
		t.Fatalf("encode %v should be cheaper than decode %v", enc, dec)
	}
}

// Regression: the encode path computed PerCodeblock/2 * codeblocks, so an
// odd per-codeblock rate truncated before multiplying and lost up to
// codeblocks/2 time units vs the documented half rate.
func TestEncodeOddRateNoTruncation(t *testing.T) {
	a := NewFleet(1, 1, 1, 0, sim.Time(7), sim.Time(1))
	got, err := a.Expected(ran.TaskLDPCEncode, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(7 * 5 / 2); got != want { // 17, not 3*5=15
		t.Fatalf("odd-rate encode = %v, want %v (multiply before divide)", got, want)
	}
	done, err := a.Submit(0, ran.TaskLDPCEncode, 5)
	if err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(17) {
		t.Fatalf("Submit completion %v, want 17", done)
	}
}

func TestSubmitAfterIdle(t *testing.T) {
	a := NewFleet(1, 1, 1, 0, sim.FromUs(10), sim.FromUs(1))
	// Request at t=100µs on an idle device starts immediately.
	d, _ := a.Submit(sim.FromUs(100), ran.TaskLDPCDecode, 1)
	if d != sim.FromUs(110) {
		t.Fatalf("completion %v want 110us", d)
	}
}

func TestUtilization(t *testing.T) {
	a := NewFleet(1, 1, 2, 0, sim.FromUs(10), sim.FromUs(1))
	a.Submit(0, ran.TaskLDPCDecode, 5) // 50µs busy
	if u := a.Utilization(sim.FromUs(100)); u < 0.24 || u > 0.26 {
		t.Fatalf("utilization %v want 0.25 (50µs of 200 lane-µs)", u)
	}
	if a.Utilization(0) != 0 {
		t.Fatal("zero elapsed must give zero utilization")
	}
}

func TestZeroCodeblocksClamped(t *testing.T) {
	a := DefaultFPGA()
	v, err := a.Expected(ran.TaskLDPCDecode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatal("zero codeblocks should clamp to one")
	}
}

func BenchmarkSubmit(b *testing.B) {
	a := DefaultFPGA()
	for i := 0; i < b.N; i++ {
		_, _ = a.Submit(sim.Time(i)*sim.Microsecond, ran.TaskLDPCDecode, 5)
	}
}

// Regression: a struct-literal accelerator with zero lanes used to index an
// empty lane table in Submit and panic; it must return ErrNoLanes instead.
func TestSubmitZeroLanesTypedError(t *testing.T) {
	a := &Accelerator{Lanes: 0, PerCodeblock: sim.FromUs(10), SubmitCost: sim.FromUs(1)}
	if _, err := a.Submit(0, ran.TaskLDPCDecode, 2); err != ErrNoLanes {
		t.Fatalf("got %v want ErrNoLanes", err)
	}
}

// Regression: a non-positive PerCodeblock produced zero-or-negative device
// times (instant completions, or completion times in the past that panic the
// event engine); Submit must reject it with ErrInvalidRate.
func TestSubmitInvalidRateTypedError(t *testing.T) {
	for _, per := range []sim.Time{0, -sim.FromUs(5)} {
		a := &Accelerator{Lanes: 2, PerCodeblock: per, SubmitCost: sim.FromUs(1)}
		if _, err := a.Submit(0, ran.TaskLDPCDecode, 2); err != ErrInvalidRate {
			t.Fatalf("PerCodeblock=%v: got %v want ErrInvalidRate", per, err)
		}
	}
}

// A struct-literal accelerator with valid lanes but no NewFleet call must
// work: Submit sizes the lane table lazily.
func TestSubmitStructLiteralLazyLanes(t *testing.T) {
	a := &Accelerator{Lanes: 2, PerCodeblock: sim.FromUs(10), SubmitCost: sim.FromUs(1)}
	d1, err := a.Submit(0, ran.TaskLDPCDecode, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Submit(0, ran.TaskLDPCDecode, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != sim.FromUs(10) || d2 != sim.FromUs(10) {
		t.Fatalf("two requests must run on parallel lanes: %v %v", d1, d2)
	}
}

// Expected mirrors Submit's validity checks and must surface them: the old
// signature swallowed ErrInvalidRate/ErrNotOffloadable and returned a bare
// 0, which a WCET predictor reads as "offload is free".
func TestExpectedInvalidRate(t *testing.T) {
	a := &Accelerator{Lanes: 2, PerCodeblock: 0}
	if _, err := a.Expected(ran.TaskLDPCDecode, 4); err != ErrInvalidRate {
		t.Fatalf("Expected on invalid device: err = %v, want ErrInvalidRate", err)
	}
	b := DefaultFPGA()
	if _, err := b.Expected(ran.TaskModulation, 4); err != ErrNotOffloadable {
		t.Fatalf("Expected on wrong kind: err = %v, want ErrNotOffloadable", err)
	}
}

// Regression: Submit only sized the lane table when it was empty, so raising
// Lanes after construction kept scanning the stale shorter table while
// Utilization divided by the new Lanes — silently under-using engines.
func TestLanesRaisedAfterConstruction(t *testing.T) {
	a := NewFleet(1, 1, 1, 0, sim.FromUs(10), sim.FromUs(1))
	d1, _ := a.Submit(0, ran.TaskLDPCDecode, 1)
	if d1 != sim.FromUs(10) {
		t.Fatalf("first completion %v want 10us", d1)
	}
	a.Lanes = 2
	// The new engine is idle, so the second request must run in parallel,
	// and the in-flight schedule of engine 0 must be preserved.
	d2, _ := a.Submit(0, ran.TaskLDPCDecode, 1)
	if d2 != sim.FromUs(10) {
		t.Fatalf("after raising Lanes, second completion %v want 10us (fresh engine)", d2)
	}
	d3, _ := a.Submit(0, ran.TaskLDPCDecode, 1)
	if d3 != sim.FromUs(20) {
		t.Fatalf("third completion %v want 20us (both engines busy until 10us)", d3)
	}
}

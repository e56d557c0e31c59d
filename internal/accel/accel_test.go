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

// NewFleet builds at least one device, VF and engine: the zero shape is a
// working single-engine accelerator, so two requests serialize.
func TestNewFleetZeroShapeHasOneEngine(t *testing.T) {
	a := NewFleet(0, 0, 0, 0, sim.FromUs(10), sim.FromUs(1))
	if n := a.DeviceCount(); n != 1 {
		t.Fatalf("zero shape built %d devices, want 1", n)
	}
	var ids []int
	a.Probe = func(r OffloadRecord) { ids = append(ids, r.Lane, r.Device, r.VF) }
	d1, err := a.Submit(0, ran.TaskLDPCDecode, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Submit(0, ran.TaskLDPCDecode, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != sim.FromUs(10) || d2 != sim.FromUs(20) {
		t.Fatalf("completions %v %v, want 10us and 20us on one engine", d1, d2)
	}
	for _, id := range ids {
		if id != 0 {
			t.Fatalf("lane/device/VF ids %v, want all 0", ids)
		}
	}
}

// Regression: a non-positive per-codeblock time produced zero-or-negative
// device times (instant completions, or completion times in the past that
// panic the event engine); Submit must reject it with ErrInvalidRate.
func TestSubmitInvalidRateTypedError(t *testing.T) {
	for _, per := range []sim.Time{0, -sim.FromUs(5)} {
		a := NewFleet(1, 1, 2, 0, per, sim.FromUs(1))
		if _, err := a.Submit(0, ran.TaskLDPCDecode, 2); err != ErrInvalidRate {
			t.Fatalf("per-codeblock %v: got %v want ErrInvalidRate", per, err)
		}
	}
}

// Expected mirrors Submit's validity checks and must surface them: the old
// signature swallowed ErrInvalidRate/ErrNotOffloadable and returned a bare
// 0, which a WCET predictor reads as "offload is free".
func TestExpectedInvalidRate(t *testing.T) {
	a := NewFleet(1, 1, 2, 0, 0, 0)
	if _, err := a.Expected(ran.TaskLDPCDecode, 4); err != ErrInvalidRate {
		t.Fatalf("Expected on invalid device: err = %v, want ErrInvalidRate", err)
	}
	b := DefaultFPGA()
	if _, err := b.Expected(ran.TaskModulation, 4); err != ErrNotOffloadable {
		t.Fatalf("Expected on wrong kind: err = %v, want ErrNotOffloadable", err)
	}
}

package core

import (
	"math"
	"testing"

	"concordia/internal/costmodel"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/rng"
	"concordia/internal/sim"
)

// profileAppend is Profile as it was before it sized each kind's samples
// exactly: one sweep that appends every task's sample to its kind's slice,
// which starts at slots entries and grows. It is the reference
// TestProfileExactSizes holds Profile to.
func profileAppend(cells []ran.CellConfig, slots int, model *costmodel.Model, poolCores int, seed uint64) map[ran.TaskKind][]predictor.Sample {
	r := rng.New(seed)
	env := costmodel.Env{PoolCores: poolCores}
	out := map[ran.TaskKind][]predictor.Sample{}
	var (
		dag   ran.DAG
		alloc ran.SlotAllocator
	)
	record := func(d *ran.DAG) {
		for _, t := range d.Tasks {
			s := out[t.Kind]
			if s == nil {
				s = make([]predictor.Sample, 0, slots)
			}
			out[t.Kind] = append(s, predictor.Sample{
				Features: t.Features,
				Runtime:  model.Sample(t.Kind, &t.Features, env),
			})
		}
	}
	for s := 0; s < slots; s++ {
		cell := cells[s%len(cells)]
		ulPeak := 1 + r.Intn(64*1024)
		dlPeak := 1 + r.Intn(128*1024)
		record(ran.BuildUplinkDAGInto(&dag, cell, s, 0, sim.FromMs(2), alloc.Allocate(cell, ulPeak, r)))
		record(ran.BuildDownlinkDAGInto(&dag, cell, s, 0, sim.FromMs(2), alloc.Allocate(cell, dlPeak, r)))
		record(ran.BuildMACDAGInto(&dag, cell, s, 0, cell.Numerology.SlotDuration(), 1+r.Intn(cell.MaxUEs)))
	}
	return out
}

// TestProfileExactSizes requires Profile to return the append loop's
// samples, bit for bit, in slices whose capacity is their length, and to
// leave the cost model's stream where the append loop leaves it: the pool
// continues that stream after training.
func TestProfileExactSizes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells []ran.CellConfig
	}{
		{"20mhz-7", ran.Cells20MHz(7)},
		{"100mhz-2", ran.Cells100MHz(2)},
		{"lte-1", ran.CellsLTE(1)},
	} {
		const slots, cores, seed = 1000, 8, 5
		model, refModel := costmodel.New(seed), costmodel.New(seed)
		got := Profile(tc.cells, slots, model, cores, seed^0x0ff1)
		want := profileAppend(tc.cells, slots, refModel, cores, seed^0x0ff1)
		if len(got) != len(want) {
			t.Fatalf("%s: %d kinds, reference %d", tc.name, len(got), len(want))
		}
		for kind, ref := range want {
			s := got[kind]
			if len(s) != len(ref) {
				t.Fatalf("%s %v: %d samples, reference %d", tc.name, kind, len(s), len(ref))
			}
			if cap(s) != len(s) {
				t.Errorf("%s %v: capacity %d for %d samples", tc.name, kind, cap(s), len(s))
			}
			for i := range s {
				if s[i].Runtime != ref[i].Runtime {
					t.Fatalf("%s %v sample %d: runtime %v, reference %v", tc.name, kind, i, s[i].Runtime, ref[i].Runtime)
				}
				for f := range s[i].Features {
					if math.Float64bits(s[i].Features[f]) != math.Float64bits(ref[i].Features[f]) {
						t.Fatalf("%s %v sample %d: %v = %v, reference %v",
							tc.name, kind, i, ran.Feature(f), s[i].Features[f], ref[i].Features[f])
					}
				}
			}
		}
		var fv ran.FeatureVector
		fv.Set(ran.FCodeblocks, 4)
		env := costmodel.Env{PoolCores: cores}
		if next, ref := model.Sample(ran.TaskLDPCDecode, &fv, env), refModel.Sample(ran.TaskLDPCDecode, &fv, env); next != ref {
			t.Errorf("%s: the cost model's next draw is %v, after the reference %v", tc.name, next, ref)
		}
	}
}

var profileSink map[ran.TaskKind][]predictor.Sample

// BenchmarkProfile times Profile on steady's seven 20 MHz cells at the
// default profiling length.
func BenchmarkProfile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		profileSink = Profile(ran.Cells20MHz(7), DefaultTrainingSlots, costmodel.New(1), 8, 2)
	}
}

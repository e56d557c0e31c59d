package costmodel

import (
	"math"
	"slices"
	"testing"

	"concordia/internal/ran"
	"concordia/internal/stats"
)

func decodeFeatures(cbs int, snr float64) *ran.FeatureVector {
	f := new(ran.FeatureVector)
	f.Set(ran.FCodeblocks, float64(cbs))
	f.Set(ran.FSNRdB, snr)
	f.Set(ran.FTBSBits, float64(cbs*8448))
	return f
}

func TestIterationFactorMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for snr := 0.0; snr <= 32; snr++ {
		v := IterationFactor(snr)
		if v > prev {
			t.Fatalf("iteration factor increased at %v dB", snr)
		}
		if v < 0.5 || v > 2.2 {
			t.Fatalf("iteration factor %v out of range at %v dB", v, snr)
		}
		prev = v
	}
}

func TestStallPenaltyBounds(t *testing.T) {
	if StallPenalty(1) != 1 {
		t.Fatal("single core must have no stall penalty")
	}
	for cores := 2; cores <= 16; cores++ {
		p := StallPenalty(cores)
		if p <= 1 || p > 1.25 {
			t.Fatalf("stall penalty %v at %d cores outside (1, 1.25]", p, cores)
		}
		if p < StallPenalty(cores-1) {
			t.Fatalf("stall penalty not monotone at %d cores", cores)
		}
	}
}

// Fig 6a: runtime grows linearly with codeblocks; 4-6 core spreading adds
// up to ~25%.
func TestDecodeLinearInCodeblocks(t *testing.T) {
	m := New(1)
	env := Env{PoolCores: 1}
	r3 := m.Mean(ran.TaskLDPCDecode, decodeFeatures(3, 18), env)
	r15 := m.Mean(ran.TaskLDPCDecode, decodeFeatures(15, 18), env)
	ratio := float64(r15) / float64(r3)
	// Linear with a small intercept: 15/3 = 5, allow intercept slack.
	if ratio < 4 || ratio > 5.2 {
		t.Fatalf("codeblock scaling ratio %v want ~5", ratio)
	}
}

func TestDecodeCalibration(t *testing.T) {
	// Fig 6a magnitude: 15 codeblocks on one core is a few hundred µs.
	m := New(1)
	r := m.Mean(ran.TaskLDPCDecode, decodeFeatures(15, 18), Env{PoolCores: 1})
	if us := r.Us(); us < 250 || us > 700 {
		t.Fatalf("15-codeblock decode %v µs outside the Fig 6a regime", us)
	}
}

func TestMultiCorePenaltyMatchesFig6(t *testing.T) {
	m := New(1)
	f := decodeFeatures(9, 18)
	one := m.Mean(ran.TaskLDPCDecode, f, Env{PoolCores: 1})
	six := m.Mean(ran.TaskLDPCDecode, f, Env{PoolCores: 6})
	inc := float64(six)/float64(one) - 1
	if inc <= 0.10 || inc > 0.25 {
		t.Fatalf("6-core stall increase %.0f%% want (10%%, 25%%]", inc*100)
	}
}

func TestSNRDependence(t *testing.T) {
	m := New(1)
	env := Env{PoolCores: 1}
	low := m.Mean(ran.TaskLDPCDecode, decodeFeatures(5, 2), env)
	high := m.Mean(ran.TaskLDPCDecode, decodeFeatures(5, 28), env)
	if low <= high {
		t.Fatal("low-SNR decode should cost more than high-SNR")
	}
	if ratio := float64(low) / float64(high); ratio < 1.5 {
		t.Fatalf("SNR effect ratio %v too weak", ratio)
	}
}

func TestInterferenceInflatesRuntime(t *testing.T) {
	m := New(1)
	f := decodeFeatures(5, 18)
	iso := m.Mean(ran.TaskLDPCDecode, f, Env{PoolCores: 4})
	loaded := m.Mean(ran.TaskLDPCDecode, f, Env{PoolCores: 4, Interference: 1})
	inc := float64(loaded)/float64(iso) - 1
	if inc < 0.05 || inc > 0.25 {
		t.Fatalf("interference inflation %.0f%% outside calibration", inc*100)
	}
}

func TestSampleDistribution(t *testing.T) {
	m := New(2)
	f := decodeFeatures(5, 18)
	env := Env{PoolCores: 4}
	mean := float64(m.Mean(ran.TaskLDPCDecode, f, env))
	n := 20000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(m.Sample(ran.TaskLDPCDecode, f, env))
	}
	got := stats.Mean(samples)
	if math.Abs(got-mean)/mean > 0.05 {
		t.Fatalf("sample mean %.0f deviates from model mean %.0f", got, mean)
	}
	// Samples must vary and stay positive.
	if stats.StdDev(samples) == 0 {
		t.Fatal("samples have no variance")
	}
	if slices.Min(samples) <= 0 {
		t.Fatal("non-positive runtime sample")
	}
}

func TestInterferenceHeavyTail(t *testing.T) {
	// Interference must fatten the extreme tail more than the body (Fig 7b).
	m := New(3)
	f := decodeFeatures(5, 18)
	quantileRatio := func(interference float64) float64 {
		env := Env{PoolCores: 4, Interference: interference}
		n := 60000
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(m.Sample(ran.TaskLDPCDecode, f, env))
		}
		qs := stats.Quantiles(s, 0.5, 0.9999)
		return qs[1] / qs[0]
	}
	iso := quantileRatio(0)
	loaded := quantileRatio(1)
	if loaded <= iso {
		t.Fatalf("interference did not fatten tail: iso %.2f loaded %.2f", iso, loaded)
	}
}

func TestAllKindsPositive(t *testing.T) {
	m := New(4)
	f := new(ran.FeatureVector)
	f.Set(ran.FPRBs, 100)
	f.Set(ran.FAntennas, 4)
	f.Set(ran.FLayers, 2)
	f.Set(ran.FTBSBits, 50000)
	f.Set(ran.FCodeblocks, 6)
	f.Set(ran.FSNRdB, 15)
	f.Set(ran.FNumUEs, 4)
	for k := ran.TaskKind(0); k < ran.NumTaskKinds; k++ {
		if m.Mean(k, f, Env{PoolCores: 2}) <= 0 {
			t.Fatalf("kind %v has non-positive mean", k)
		}
		if m.Sample(k, f, Env{PoolCores: 2}) <= 0 {
			t.Fatalf("kind %v has non-positive sample", k)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	m := New(1)
	f := decodeFeatures(5, 18)
	env := Env{PoolCores: 4, Interference: 0.5}
	for i := 0; i < b.N; i++ {
		_ = m.Sample(ran.TaskLDPCDecode, f, env)
	}
}

func TestTurboHeavierThanLDPC(t *testing.T) {
	// §A.1: 4G turbo decoding is more expensive than 5G LDPC per block.
	m := New(9)
	f := decodeFeatures(5, 15)
	env := Env{PoolCores: 1}
	turbo := m.Mean(ran.TaskTurboDecode, f, env)
	ldpc := m.Mean(ran.TaskLDPCDecode, f, env)
	if turbo <= ldpc {
		t.Fatalf("turbo %v not above LDPC %v", turbo, ldpc)
	}
	if enc := m.Mean(ran.TaskTurboEncode, f, env); enc >= turbo {
		t.Fatal("turbo encode should be far cheaper than decode")
	}
}

package phy

import (
	"math"
	"testing"
	"testing/quick"

	"concordia/internal/rng"
)

func TestLDPCConstruction(t *testing.T) {
	c, err := NewLDPCCode(100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 150 {
		t.Fatalf("N = %d", c.N())
	}
	if r := c.Rate(); r < 0.66 || r > 0.67 {
		t.Fatalf("rate %v", r)
	}
}

func TestLDPCInvalidDims(t *testing.T) {
	if _, err := NewLDPCCode(0, 10, 1); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewLDPCCode(10, 2, 1); err == nil {
		t.Fatal("M=2 accepted")
	}
}

func TestLDPCEncodeSystematic(t *testing.T) {
	c, _ := NewLDPCCode(64, 32, 2)
	r := rng.New(3)
	info := randomBits(r, 64)
	cw, err := c.Encode(info)
	if err != nil {
		t.Fatal(err)
	}
	for i := range info {
		if cw[i] != info[i] {
			t.Fatal("codeword is not systematic")
		}
	}
	if !c.CheckSyndrome(cw) {
		t.Fatal("valid codeword fails syndrome check")
	}
}

func TestLDPCEncodeWrongLength(t *testing.T) {
	c, _ := NewLDPCCode(64, 32, 2)
	if _, err := c.Encode(make([]byte, 10)); err == nil {
		t.Fatal("wrong-length encode accepted")
	}
}

func TestLDPCSyndromeRejectsCorruption(t *testing.T) {
	c, _ := NewLDPCCode(128, 64, 4)
	r := rng.New(5)
	cw, _ := c.Encode(randomBits(r, 128))
	for trial := 0; trial < 50; trial++ {
		pos := r.Intn(len(cw))
		cw[pos] ^= 1
		if c.CheckSyndrome(cw) {
			t.Fatalf("single flip at %d passes syndrome", pos)
		}
		cw[pos] ^= 1
	}
}

func randomBits(r *rng.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Intn(2))
	}
	return out
}

// codewordLLR sends a codeword as BPSK over AWGN at snrDB and returns the
// channel LLRs.
func codewordLLR(cw []byte, snrDB float64, r *rng.Rand) []float64 {
	// BPSK over AWGN: x = 1-2b, y = x + n, llr = 2y/sigma^2
	ch := NewAWGNChannel(snrDB, r)
	syms := make([]complex128, len(cw))
	for i, b := range cw {
		syms[i] = complex(1-2*float64(b), 0)
	}
	rx := ch.Transmit(syms)
	llr := make([]float64, len(cw))
	for i, y := range rx {
		llr[i] = 2 * real(y) / ch.NoiseVar
	}
	return llr
}

func TestAWGNNoiseVariance(t *testing.T) {
	r := rng.New(8)
	ch := NewAWGNChannel(10, r)
	zeros := make([]complex128, 100000)
	noisy := ch.Transmit(zeros)
	var p float64
	for _, s := range noisy {
		p += real(s)*real(s) + imag(s)*imag(s)
	}
	p /= float64(len(noisy))
	if math.Abs(p-ch.NoiseVar)/ch.NoiseVar > 0.05 {
		t.Fatalf("measured noise power %v want %v", p, ch.NoiseVar)
	}
}

func TestLDPCDecodeNoiseless(t *testing.T) {
	c, _ := NewLDPCCode(256, 128, 6)
	r := rng.New(7)
	info := randomBits(r, 256)
	cw, _ := c.Encode(info)
	llr := make([]float64, len(cw))
	for i, b := range cw {
		llr[i] = 10
		if b == 1 {
			llr[i] = -10
		}
	}
	res, err := c.Decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("noiseless decode: converged=%v iters=%d", res.Converged, res.Iterations)
	}
	for i := range info {
		if res.Info[i] != info[i] {
			t.Fatal("noiseless decode corrupted info bits")
		}
	}
}

func TestLDPCDecodeHighSNR(t *testing.T) {
	c, _ := NewLDPCCode(512, 256, 8)
	r := rng.New(9)
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		info := randomBits(r, 512)
		cw, _ := c.Encode(info)
		res, err := c.Decode(codewordLLR(cw, 6, r))
		if err != nil {
			t.Fatal(err)
		}
		ok := res.Converged
		for i := range info {
			if res.Info[i] != info[i] {
				ok = false
				break
			}
		}
		if !ok {
			failures++
		}
	}
	if failures > 2 {
		t.Fatalf("%d/%d high-SNR decodes failed", failures, trials)
	}
}

func TestLDPCIterationsIncreaseWithNoise(t *testing.T) {
	c, _ := NewLDPCCode(512, 256, 10)
	r := rng.New(11)
	avgIters := func(snrDB float64) float64 {
		var total int
		const trials = 15
		for trial := 0; trial < trials; trial++ {
			info := randomBits(r, 512)
			cw, _ := c.Encode(info)
			res, _ := c.Decode(codewordLLR(cw, snrDB, r))
			total += res.Iterations
		}
		return float64(total) / trials
	}
	high := avgIters(8)
	low := avgIters(2)
	if low <= high {
		t.Fatalf("iterations did not increase with noise: %.1f (high SNR) vs %.1f (low SNR)", high, low)
	}
}

func TestLDPCDecodeWrongLength(t *testing.T) {
	c, _ := NewLDPCCode(64, 32, 2)
	if _, err := c.Decode(make([]float64, 10)); err == nil {
		t.Fatal("wrong-length decode accepted")
	}
}

func TestLDPCDeterministicConstruction(t *testing.T) {
	a, _ := NewLDPCCode(100, 50, 42)
	b, _ := NewLDPCCode(100, 50, 42)
	for r := range a.checkVars {
		if len(a.checkVars[r]) != len(b.checkVars[r]) {
			t.Fatal("same seed produced different codes")
		}
		for i := range a.checkVars[r] {
			if a.checkVars[r][i] != b.checkVars[r][i] {
				t.Fatal("same seed produced different codes")
			}
		}
	}
}

// Property: every encoded word satisfies the syndrome, for arbitrary inputs.
func TestLDPCEncodeSyndromeProperty(t *testing.T) {
	c, _ := NewLDPCCode(96, 48, 13)
	r := rng.New(14)
	err := quick.Check(func(_ uint8) bool {
		cw, err := c.Encode(randomBits(r, 96))
		return err == nil && c.CheckSyndrome(cw)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — the XOR of two codewords is a codeword.
func TestLDPCLinearity(t *testing.T) {
	c, _ := NewLDPCCode(96, 48, 15)
	r := rng.New(16)
	for trial := 0; trial < 30; trial++ {
		a, _ := c.Encode(randomBits(r, 96))
		b, _ := c.Encode(randomBits(r, 96))
		x := make([]byte, len(a))
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		if !c.CheckSyndrome(x) {
			t.Fatal("XOR of codewords is not a codeword")
		}
	}
}

func BenchmarkLDPCEncode8448(b *testing.B) {
	c, _ := NewLDPCCode(8448, 4224, 1)
	r := rng.New(1)
	info := randomBits(r, 8448)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Encode(info)
	}
}

func BenchmarkLDPCDecode8448(b *testing.B) {
	c, _ := NewLDPCCode(8448, 4224, 1)
	r := rng.New(1)
	info := randomBits(r, 8448)
	cw, _ := c.Encode(info)
	llr := codewordLLR(cw, 6, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Decode(llr)
	}
}

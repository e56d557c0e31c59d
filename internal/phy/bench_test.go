package phy

import (
	"fmt"
	"sync"
	"testing"

	"concordia/internal/rng"
)

// noisyLLRs produces channel LLRs for a random codeword of code at snrDB.
func noisyLLRs(b testing.TB, code *LDPCCode, snrDB float64, r *rng.Rand) []float64 {
	cw, err := code.Encode(randomBits(r, code.K))
	if err != nil {
		b.Fatal(err)
	}
	return codewordLLR(cw, snrDB, r)
}

// BenchmarkLDPCDecode measures one min-sum decode of a full-size codeblock
// at a mid-range SNR.
func BenchmarkLDPCDecode(b *testing.B) {
	const k = 8448
	code, err := NewLDPCCode(k, k/2+4, 9)
	if err != nil {
		b.Fatal(err)
	}
	llr := noisyLLRs(b, code, 6, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(llr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDPCDecodeParallel decodes the same codeblock from all
// GOMAXPROCS goroutines at once: the pooled-scratch design should scale
// near-linearly because the Tanner graph is shared read-only.
func BenchmarkLDPCDecodeParallel(b *testing.B) {
	const k = 8448
	code, err := NewLDPCCode(k, k/2+4, 9)
	if err != nil {
		b.Fatal(err)
	}
	llr := noisyLLRs(b, code, 6, rng.New(1))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := code.Decode(llr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestLDPCDecodeConcurrentSafe hammers one code from many goroutines and
// checks every result is bit-for-bit the serial result — the contract the
// pooled scratch state must provide.
func TestLDPCDecodeConcurrentSafe(t *testing.T) {
	const k = 1024
	code, err := NewLDPCCode(k, k/2+4, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	const cases = 8
	llrs := make([][]float64, cases)
	want := make([]*DecodeResult, cases)
	for i := range llrs {
		llrs[i] = noisyLLRs(t, code, 4, r)
		want[i], err = code.Decode(llrs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % cases
				got, err := code.Decode(llrs[i])
				if err != nil {
					errs <- err
					return
				}
				if got.Iterations != want[i].Iterations || got.Converged != want[i].Converged {
					errs <- fmt.Errorf("case %d: got %d/%v want %d/%v",
						i, got.Iterations, got.Converged, want[i].Iterations, want[i].Converged)
					return
				}
				for j := range got.Info {
					if got.Info[j] != want[i].Info[j] {
						errs <- fmt.Errorf("case %d: info bit %d differs", i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

package phy

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"concordia/internal/rng"
)

// noisyLLRs produces channel LLRs for a random codeword of code at snrDB.
func noisyLLRs(b testing.TB, code *LDPCCode, snrDB float64, r *rng.Rand) []float64 {
	info := make([]byte, code.K)
	for i := range info {
		info[i] = byte(r.Intn(2))
	}
	cw, err := code.Encode(info)
	if err != nil {
		b.Fatal(err)
	}
	ch := NewAWGNChannel(snrDB, r)
	syms := make([]complex128, len(cw))
	for i, bit := range cw {
		syms[i] = complex(1-2*float64(bit), 0)
	}
	rx := ch.Transmit(syms)
	llr := make([]float64, len(cw))
	for i, y := range rx {
		llr[i] = 2 * real(y) / ch.NoiseVar
	}
	return llr
}

// BenchmarkLDPCDecode measures one min-sum decode of a full-size codeblock
// at a mid-range SNR (the hot kernel of the RX chain).
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

// BenchmarkTransceiverLoopback runs the full TX→AWGN→RX chain for a
// multi-codeblock transport block, per worker setting.
func BenchmarkTransceiverLoopback(b *testing.B) {
	// On a 1-CPU host the second setting would rerun workers=1.
	settings := []int{1}
	if runtime.NumCPU() > 1 {
		settings = append(settings, runtime.NumCPU())
	}
	for _, workers := range settings {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tx, err := NewTransceiver(TransceiverConfig{
				TBBits:   60000, // 8 codeblocks
				Mod:      QAM16,
				CodeRate: 0.5,
				CInit:    777,
				FFTSize:  2048,
				CPLen:    144,
				Carriers: 1200,
				LDPCSeed: 9,
				Workers:  workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(5)
			payload := make([]byte, 60000)
			for i := range payload {
				payload[i] = byte(r.Intn(2))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tx.Loopback(payload, 8, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatal("loopback failed CRC at 8 dB")
				}
			}
		})
	}
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

// TestReceiveWorkersDeterministic checks the parallel RX path returns the
// identical RxResult for any worker count.
func TestReceiveWorkersDeterministic(t *testing.T) {
	const tb = 40000 // several codeblocks
	build := func(workers int) *Transceiver {
		tx, err := NewTransceiver(TransceiverConfig{
			TBBits:   tb,
			Mod:      QAM16,
			CodeRate: 0.5,
			CInit:    777,
			FFTSize:  1024,
			CPLen:    72,
			Carriers: 600,
			LDPCSeed: 9,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	serial := build(1)
	r := rng.New(11)
	payload := make([]byte, tb)
	for i := range payload {
		payload[i] = byte(r.Intn(2))
	}
	td, err := serial.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewAWGNChannel(6, r)
	samples := ch.Transmit(td)
	want, err := serial.Receive(samples, ch.NoiseVar)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		tx := build(workers)
		got, err := tx.Receive(samples, ch.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != want.OK || got.TotalIterations != want.TotalIterations {
			t.Fatalf("workers=%d: OK=%v iters=%d, want OK=%v iters=%d",
				workers, got.OK, got.TotalIterations, want.OK, want.TotalIterations)
		}
		if len(got.Payload) != len(want.Payload) {
			t.Fatalf("workers=%d: payload length %d want %d", workers, len(got.Payload), len(want.Payload))
		}
		for i := range want.Payload {
			if got.Payload[i] != want.Payload[i] {
				t.Fatalf("workers=%d: payload bit %d differs", workers, i)
			}
		}
	}
}

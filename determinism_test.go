package concordia_test

// Regression test for the parallel execution engine's core guarantee: the
// Workers knob changes wall-clock time and nothing else. Every experiment
// partitions its iteration space into fixed shards with their own RNG
// substreams (see internal/parallel), so its rendered output must be
// byte-for-byte identical whether one goroutine or eight execute it.

import (
	"bytes"
	"strings"
	"testing"

	"concordia/internal/experiments"
)

// wallClockOutputs are experiments whose rendered output embeds host
// wall-clock measurements (scheduler/predictor overhead in µs, calibration
// decode timings). Their simulated results are still worker-independent, but
// the printed timings legitimately vary run to run, so byte equality is not
// required of them.
var wallClockOutputs = map[string]bool{
	"fig15a":      true,
	"calibration": true,
}

func TestExperimentsWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	base := experiments.Options{Seed: 42, Scale: 0.005, TrainingSlots: 150}
	for _, name := range experiments.Names {
		t.Run(name, func(t *testing.T) {
			serial, fanout := base, base
			serial.Workers = 1
			fanout.Workers = 8
			var got1, got8 bytes.Buffer
			if _, err := experiments.Run(name, serial, &got1); err != nil {
				t.Fatal(err)
			}
			if _, err := experiments.Run(name, fanout, &got8); err != nil {
				t.Fatal(err)
			}
			if got1.Len() == 0 || got8.Len() == 0 {
				t.Fatal("experiment rendered no output")
			}
			if wallClockOutputs[name] {
				return
			}
			if !bytes.Equal(got1.Bytes(), got8.Bytes()) {
				l1 := strings.Split(got1.String(), "\n")
				l8 := strings.Split(got8.String(), "\n")
				for i := range l1 {
					if i >= len(l8) || l1[i] != l8[i] {
						t.Fatalf("output differs between Workers=1 and Workers=8 at line %d:\n  w1: %q\n  w8: %q", i+1, l1[i], l8[min(i, len(l8)-1)])
					}
				}
				t.Fatalf("output differs between Workers=1 and Workers=8 (w8 has %d extra bytes)", got8.Len()-got1.Len())
			}
		})
	}
}

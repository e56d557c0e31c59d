package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"syscall"
	"time"
)

// span is what the benchmark measures around one call it makes itself.
type span struct {
	wall    time.Duration
	cpu     time.Duration // process user+system CPU, all goroutines
	allocMB float64       // heap bytes allocated (MemStats.TotalAlloc delta)
	gcs     uint32        // GC cycles completed
	pauseNs uint64        // total GC stop-the-world pause
}

// measure runs f and returns its span.
func measure(f func() error) (span, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return span{
		wall:    wall,
		cpu:     c1 - c0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		gcs:     m1.NumGC - m0.NumGC,
		pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}, err
}

func (s span) add(o span) span {
	return span{s.wall + o.wall, s.cpu + o.cpu, s.allocMB + o.allocMB, s.gcs + o.gcs, s.pauseNs + o.pauseNs}
}

// rusage reads the process's resource usage. getrusage(RUSAGE_SELF) fails
// only on a bad pointer, which only a bug can produce.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// ranMetric is one simulated (RAN-side) result. These are deterministic for
// a seed, so they are printed and covered by the digest rather than
// reported as bounded metrics.
type ranMetric struct {
	name, value, unit, note string
}

// rep is one execution of a workload: the ready system is built (setup),
// then the timed operation runs (op).
type rep struct {
	setup, op span
	digest    string
	ran       []ranMetric
	// layer holds counts read from public results and spans of calls the
	// benchmark makes inside the operation, keyed by per-layer metric name.
	layer map[string]float64
	errs  []string
}

func newRep() *rep { return &rep{layer: map[string]float64{}} }

// expect records a failed output check unless ok holds.
func (r *rep) expect(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *rep) addRAN(name, unit, note string, value float64) {
	r.ran = append(r.ran, ranMetric{name, fmt.Sprintf("%.6f", value), unit, note})
}

// addPercentile reports a latency percentile only where at least ten DAGs
// lie beyond it, with the DAG count beside it.
func (r *rep) addPercentile(name string, q float64, n uint64, quantile func(float64) float64) {
	beyond := uint64(float64(n) * (1 - q))
	if beyond < 10 {
		r.ran = append(r.ran, ranMetric{name, "n/a", "us",
			fmt.Sprintf("%d DAGs, only %d beyond (needs 10)", n, beyond)})
		return
	}
	r.addRAN(name, "us", fmt.Sprintf("%d DAGs, %d beyond", n, beyond), quantile(q))
}

// digester hashes simulated outputs and counts the bytes written.
type digester struct {
	h hash.Hash
	n int64
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digester) add(s string) { d.Write([]byte(s)) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

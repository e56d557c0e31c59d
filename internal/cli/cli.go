// Package cli declares the command-line flags that several binaries share
// (-workers, -scale, -training, the SLO plane's four flags, -cpuprofile and
// -memprofile) and the export and exit helpers their mains use, so each
// shared flag has one name, one help text and one validation.
//
// Numeric flags are checked when they are parsed: a value that would be
// silently replaced by a default, or that does not fit its simulated
// duration, is refused with an error naming the flag, and the flag
// package's ExitOnError handling exits 2.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"concordia/internal/sim"
	"concordia/internal/slo"
)

// Exit prints "error: " and err to stderr and exits with code: 1 when a run
// or an export failed, 2 when the input is refused.
func Exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(code)
}

// WriteFile creates path and streams one export into it, returning the
// first create, write or close error. An empty path writes nothing.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Workers declares -workers.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker goroutines for parallel work (0 = NumCPU, 1 = serial; output is identical)")
}

// Seconds declares a flag of simulated seconds that must be positive and
// fit in a sim.Time.
func Seconds(fs *flag.FlagSet, name string, value float64, usage string) *float64 {
	v := value
	fs.Var(&checkedFloat{&v, func(s float64) error { return positiveTime(s, sim.Second) }}, name, usage)
	return &v
}

// Scale declares -scale, a factor on simulated durations that must be
// positive and small enough that longest, the longest duration it scales,
// still fits in a sim.Time.
func Scale(fs *flag.FlagSet, value float64, longest sim.Time, usage string) *float64 {
	v := value
	fs.Var(&checkedFloat{&v, func(s float64) error { return positiveTime(s, longest) }}, "scale", usage)
	return &v
}

// Training declares -training, the offline profiling length in TTIs. 0
// selects the default; a negative count is refused.
func Training(fs *flag.FlagSet) *int {
	var v int
	fs.Var((*nonNegativeInt)(&v), "training", "offline profiling `TTIs` (0 = default)")
	return &v
}

// SLO holds the streaming SLO plane's flags: -slo and -slo-report name its
// two exports, -slo-window and -slo-burn tune the tracker.
type SLO struct {
	csv, report    string
	windowMs, burn float64
}

// BindSLO declares -slo, -slo-report, -slo-window and -slo-burn.
func BindSLO(fs *flag.FlagSet) *SLO {
	s := &SLO{}
	fs.StringVar(&s.csv, "slo", "", "attach the streaming SLO plane and write its window rows CSV to this file")
	fs.StringVar(&s.report, "slo-report", "", "attach the streaming SLO plane and write its markdown health report to this file")
	fs.Var(&checkedFloat{&s.windowMs, func(v float64) error {
		if v == 0 {
			return nil
		}
		return positiveTime(v, sim.Millisecond)
	}}, "slo-window", fmt.Sprintf("SLO tumbling sub-window width in `ms` (0 = default %g)", slo.DefaultWindow.Ms()))
	fs.Var(&checkedFloat{&s.burn, func(v float64) error {
		if v == 0 || v > 0 && !math.IsInf(v, 1) {
			return nil
		}
		return errors.New("must be a positive finite number")
	}}, "slo-burn", fmt.Sprintf("SLO burn-rate alert `threshold` (0 = default %g)", slo.DefaultBurnThreshold))
	return s
}

// Options returns the tracker options the flags select, or nil when
// neither export was asked for.
func (s *SLO) Options() *slo.Options {
	if s.csv == "" && s.report == "" {
		return nil
	}
	return &slo.Options{Window: sim.FromMs(s.windowMs), BurnThreshold: s.burn}
}

// Write writes the exports that were asked for from t.
func (s *SLO) Write(t *slo.Tracker) error {
	if err := WriteFile(s.csv, t.WriteCSV); err != nil {
		return err
	}
	return WriteFile(s.report, t.WriteHealthReport)
}

// Profiles holds -cpuprofile and -memprofile.
type Profiles struct{ cpu, mem string }

// BindProfiles declares -cpuprofile and -memprofile.
func BindProfiles(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file")
	return p
}

// Start begins the CPU profile, exiting 1 if it cannot, and returns the
// function that writes the heap profile and stops the CPU profile.
// Profiles go to their own files and errors to stderr, so profiling never
// perturbs a binary's output.
func (p *Profiles) Start() (stop func()) {
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			Exit(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Exit(1, err)
		}
	}
	return func() {
		err := WriteFile(p.mem, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		if p.cpu != "" {
			pprof.StopCPUProfile()
		}
	}
}

// checkedFloat is a float64 flag whose value must pass check.
type checkedFloat struct {
	v     *float64
	check func(float64) error
}

func (f *checkedFloat) String() string {
	if f.v == nil { // the zero value flag.PrintDefaults builds to spot defaults
		return "0"
	}
	return strconv.FormatFloat(*f.v, 'g', -1, 64)
}

// Set parses s as flag.Float64 does, with the same parse errors, then
// applies the check.
func (f *checkedFloat) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if errors.Is(err, strconv.ErrRange) {
		return errors.New("value out of range")
	}
	if err != nil {
		return errors.New("parse error")
	}
	if err := f.check(v); err != nil {
		return err
	}
	*f.v = v
	return nil
}

// nonNegativeInt is an int flag that refuses negative values.
type nonNegativeInt int

func (n *nonNegativeInt) String() string {
	if n == nil {
		return "0"
	}
	return strconv.Itoa(int(*n))
}

// Set parses s as flag.Int does, with the same parse errors, then refuses a
// negative value.
func (n *nonNegativeInt) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if errors.Is(err, strconv.ErrRange) {
		return errors.New("value out of range")
	}
	if err != nil {
		return errors.New("parse error")
	}
	if v < 0 {
		return errors.New("must not be negative")
	}
	*n = nonNegativeInt(v)
	return nil
}

// positiveTime checks that v units convert, as sim.FromMs does, to a
// positive sim.Time.
func positiveTime(v float64, unit sim.Time) error {
	d := v * float64(unit)
	switch {
	case !(v > 0):
		return errors.New("must be positive")
	case d >= math.MaxInt64+1:
		return errors.New("overflows a simulated duration")
	case sim.Time(d) == 0:
		return errors.New("rounds to 0 ns")
	}
	return nil
}

// Command experiments regenerates the paper's tables and figures on the
// simulated platform and prints them as text tables.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-list] [name ...]
//
// With no names, every experiment runs in order. Scale 1.0 runs
// full-quality durations; smaller values trade statistical depth for speed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"concordia/internal/experiments"
)

// captureTelemetry runs the canonical instrumented scenario and writes the
// requested exports (either path may be empty).
func captureTelemetry(o experiments.Options, tracePath, metricsPath string) error {
	open := func(path string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		return os.Create(path)
	}
	tf, err := open(tracePath)
	if err != nil {
		return err
	}
	mf, err := open(metricsPath)
	if err != nil {
		return err
	}
	// *os.File nil-ness does not survive the interface conversion; keep the
	// io.Writer nil when no path was given.
	var tw, mw io.Writer
	if tf != nil {
		tw = tf
	}
	if mf != nil {
		mw = mf
	}
	if err := experiments.CaptureTelemetry(o, tw, mw); err != nil {
		return err
	}
	for _, f := range []*os.File{tf, mf} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes an experiment result's raw data series to
// <dir>/<name>.csv when the result has a CSV form.
func writeCSV(dir, name string, res fmt.Stringer) error {
	if _, ok := res.(experiments.Tabular); !ok {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = experiments.WriteCSV(res, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() {
	seed := flag.Uint64("seed", 42, "deterministic seed")
	scale := flag.Float64("scale", 0.25, "duration scale (1.0 = full experiment quality)")
	training := flag.Int("training", 0, "offline profiling TTIs (0 = default)")
	workers := flag.Int("workers", 0, "worker goroutines for experiment fan-out (0 = NumCPU, 1 = serial; output is identical)")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also write raw data series as <dir>/<name>.csv where supported")
	traceOut := flag.String("trace", "", "capture the canonical scenario's Chrome trace-event JSON (Perfetto) to this file and exit")
	metricsOut := flag.String("metrics", "", "capture the canonical scenario's metrics time-series CSV to this file and exit")
	faultsSpec := flag.String("faults", "", `run the chaos study with this fault spec ("sweep" for the per-class ladder) and exit`)
	autopsyOut := flag.String("autopsy", "", `run the canonical scenario (or, with -faults, a chaos run) through the analysis engine and write the markdown autopsy report to this file`)
	sloOut := flag.String("slo", "", "run the chaos testbed with the streaming SLO plane and write its window rows CSV to this file, then exit")
	sloReport := flag.String("slo-report", "", "run the chaos testbed with the streaming SLO plane and write its markdown health report to this file, then exit")
	sloWindow := flag.Float64("slo-window", 0, "SLO tumbling sub-window width in ms (0 = default 20)")
	sloBurn := flag.Float64("slo-burn", 0, "SLO burn-rate alert threshold (0 = default 14.4)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	// Profiles go to their own files and errors to stderr, so profiling can
	// never perturb the deterministic tables on stdout.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		f.Close()
	}()

	if *list {
		for _, n := range experiments.Names {
			fmt.Println(n)
		}
		return
	}
	o := experiments.Options{Seed: *seed, Scale: *scale, TrainingSlots: *training, Workers: *workers}
	if *autopsyOut != "" {
		spec := *faultsSpec
		if spec == "sweep" {
			fmt.Fprintln(os.Stderr, `error: -autopsy needs a concrete fault spec, not "sweep"`)
			os.Exit(2)
		}
		a, _, err := experiments.CaptureAutopsy(o, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		f, err := os.Create(*autopsyOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		err = a.WriteReport(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *sloOut != "" || *sloReport != "" {
		spec := *faultsSpec
		if spec == "sweep" {
			fmt.Fprintln(os.Stderr, `error: -slo needs a concrete fault spec, not "sweep"`)
			os.Exit(2)
		}
		open := func(path string) (*os.File, io.Writer, error) {
			if path == "" {
				return nil, nil, nil
			}
			f, err := os.Create(path)
			if err != nil {
				return nil, nil, err
			}
			return f, f, nil
		}
		cf, cw, err := open(*sloOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		rf, rw, err := open(*sloReport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		err = experiments.CaptureSLO(o, spec, *sloWindow, *sloBurn, cw, rw)
		for _, f := range []*os.File{cf, rf} {
			if f == nil {
				continue
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *traceOut != "" || *metricsOut != "" {
		if err := captureTelemetry(o, *traceOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *faultsSpec != "" {
		res, err := experiments.RunChaos(o, *faultsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "chaos", res); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
		return
	}
	names := flag.Args()
	if len(names) == 0 && *csvDir == "" {
		// Full regeneration goes through RunAll so experiments fan out
		// across workers; the rendered output is identical to running each
		// name in order.
		if err := experiments.RunAll(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if len(names) == 0 {
		names = experiments.Names
	}
	for _, name := range names {
		res, err := experiments.Run(name, o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, res); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
	}
}
